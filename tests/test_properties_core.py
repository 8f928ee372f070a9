"""Hypothesis property-based tests for the core format library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core.elem import E2M1, E2M3, E3M2, E4M3, E5M2
from repro.core.intquant import quantize_int_groupwise
from repro.core.layout import pack_mxplus, unpack_mxplus
from repro.core.mx import MXFP4, MXFP6, MXFP8
from repro.core.mxplus import MXFP4Plus, MXFP6Plus, MXFP8Plus
from repro.core.mxpp import MXFP4PlusPlus, MXPPFormat
from repro.core.registry import available_formats, get_format
from repro.core.scale import E8M0_NAN, decode_e8m0, encode_e8m0
from repro.nn.bf16 import bf16_round

finite_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=96),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
    ),
)

codecs = st.sampled_from([E2M1, E2M3, E3M2, E4M3, E5M2])


@given(finite_arrays, codecs)
@settings(max_examples=60, deadline=None)
def test_codec_idempotent(x, codec):
    q = codec.quantize(x)
    np.testing.assert_array_equal(codec.quantize(q), q)


@given(finite_arrays, codecs)
@settings(max_examples=60, deadline=None)
def test_codec_bounded_by_max_normal(x, codec):
    q = codec.quantize(x)
    assert np.all(np.abs(q) <= codec.max_normal)


@given(finite_arrays, codecs)
@settings(max_examples=60, deadline=None)
def test_codec_sign_preserved(x, codec):
    q = codec.quantize(x)
    assert np.all((q == 0) | (np.sign(q) == np.sign(x)))


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_mx_error_bounded_by_relative_ulp(x):
    """MXFP4 error is bounded per element by half the block's coarsest ulp."""
    fmt = MXFP4()
    q = fmt(x)
    err = np.abs(x - q)
    # Bound: the element grid step at the top of the block is
    # scale * 2^(emax - mbits); saturation cannot occur because the BM
    # defines the scale.
    from repro.core.blocks import to_blocks

    bx = to_blocks(x, 32).data
    amax = np.max(np.abs(bx), axis=-1, keepdims=True)
    bound = np.maximum(amax, 2.0**-100) * 1.0  # coarse envelope: err < amax
    berr = to_blocks(err, 32).data
    assert np.all(berr <= bound + 1e-12)


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_mxplus_never_worse_than_mx(x):
    """Per-tensor MSE: MXFP4+ <= MXFP4 (NBMs identical, BM refined)."""
    e_plus = np.mean((x - MXFP4Plus()(x)) ** 2)
    e_base = np.mean((x - MXFP4()(x)) ** 2)
    assert e_plus <= e_base + 1e-18 + 1e-9 * e_base


@given(
    finite_arrays,
    st.sampled_from([E2M1, E2M3, E4M3]),
    st.sampled_from([16, 32, 64]),
)
@settings(max_examples=60, deadline=None)
def test_mxplus_never_worse_than_mx_any_codec_block(x, codec, block):
    """MX+ <= MX quantize-dequantize error for *every* codec and block size.

    The MX+ BM grid at the top binade is a superset of the element grid
    (extended mantissa, same anchor) and NBMs are untouched, so the
    per-tensor error can never exceed plain MX's for the same codec/block
    — including block-64 variants like mxfp4-k64 vs mxfp4+-k64.
    """
    from repro.core.mx import MXFormat
    from repro.core.mxplus import MXPlusFormat

    e_plus = np.mean((x - MXPlusFormat(codec, block_size=block)(x)) ** 2)
    e_base = np.mean((x - MXFormat(codec, block_size=block)(x)) ** 2)
    assert e_plus <= e_base + 1e-18 + 1e-9 * e_base


@given(finite_arrays, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_error_monotone_in_outlier_budget(x, k):
    """Quantization error is non-increasing in the outlier budget.

    Promoting the top-(k+1) magnitudes to the wider codec relaxes the
    top-k scheme: the extra promoted element moves to a superset grid
    under the same shared scale and every other element is unchanged.
    """
    from repro.core.topk import TopKPromoteFormat

    e_k = np.mean((x - TopKPromoteFormat(k)(x)) ** 2)
    e_k1 = np.mean((x - TopKPromoteFormat(k + 1)(x)) ** 2)
    assert e_k1 <= e_k + 1e-18 + 1e-9 * e_k


@given(finite_arrays, st.sampled_from([MXFP4Plus, MXFP6Plus, MXFP8Plus]))
@settings(max_examples=40, deadline=None)
def test_mxplus_batched_encode_matches_reference(x, factory):
    """The vectorized encoder equals the per-block reference field by field."""
    fmt = factory()
    fast, slow = fmt.encode(x), fmt.encode_reference(x)
    np.testing.assert_array_equal(fast.shared_exp, slow.shared_exp)
    np.testing.assert_array_equal(fast.bm_index, slow.bm_index)
    np.testing.assert_array_equal(fast.elem_values, slow.elem_values)
    np.testing.assert_array_equal(fmt.decode(fast), fmt.decode(slow))


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_mxpp_never_worse_than_mxplus(x):
    """Per-tensor MSE: MXFP4++ <= MXFP4+ (NBM grid refined, no saturation)."""
    e_pp = np.mean((x - MXFP4PlusPlus()(x)) ** 2)
    e_p = np.mean((x - MXFP4Plus()(x)) ** 2)
    assert e_pp <= e_p + 1e-18 + 1e-9 * e_p


@given(finite_arrays, st.sampled_from([MXFP4, MXFP6, MXFP8]))
@settings(max_examples=40, deadline=None)
def test_mx_pow2_equivariance(x, factory):
    """Scaling by a power of two only shifts the shared exponent.

    Holds only while the shifted exponent stays inside the E8M0 clamp
    range [-127, 127]; at the boundary the spec-mandated clamp breaks
    equivariance (e.g. float32-subnormal inputs under MXFP8). Flush
    sub-2^-100 magnitudes to zero to keep every block's shared exponent
    (max |x| exponent minus emax <= 8, plus 3 for the x8) well in range —
    zeros quantize to zero under any scale, so they stay equivariant.
    """
    x = np.where(np.abs(x) < 2.0**-100, 0.0, x)
    fmt = factory()
    np.testing.assert_allclose(fmt(x * 8.0), fmt(x) * 8.0, rtol=1e-12)


@given(finite_arrays, st.sampled_from([MXFP4Plus, MXFP6Plus, MXFP8Plus]))
@settings(max_examples=40, deadline=None)
def test_mxplus_pack_roundtrip(x, factory):
    fmt = factory()
    enc = fmt.encode(x)
    restored = unpack_mxplus(fmt, pack_mxplus(fmt, enc))
    np.testing.assert_allclose(fmt.decode(restored), fmt.decode(enc), rtol=1e-12)


@given(finite_arrays, st.sampled_from([MXFP4Plus, MXFP6Plus, MXFP8Plus]))
@settings(max_examples=40, deadline=None)
def test_mxplus_bm_top_binade_or_flush(x, factory):
    """Non-flushed blocks keep the scaled BM inside [2^emax, 2^(emax+1))."""
    from repro.core.scale import ZERO_BLOCK_SENTINEL

    fmt = factory()
    enc = fmt.encode(x)
    bm_vals = np.take_along_axis(
        enc.elem_values, enc.bm_index[..., None].astype(np.int64), axis=-1
    )[..., 0]
    live = enc.shared_exp != ZERO_BLOCK_SENTINEL
    emax = fmt.elem.emax
    assert np.all((np.abs(bm_vals[live]) >= 2.0**emax) | ~np.isfinite(bm_vals[live]))
    assert np.all(np.abs(bm_vals[live]) < 2.0 ** (emax + 1))


@given(finite_arrays, st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_int_groupwise_bounded(x, bits):
    q = quantize_int_groupwise(x, bits, group=32)
    # error is at most half a quantization step of the group max
    from repro.core.blocks import to_blocks

    bx = to_blocks(x, 32).data
    bq = to_blocks(q, 32).data
    amax = np.max(np.abs(bx), axis=-1, keepdims=True)
    step = amax / ((1 << (bits - 1)) - 1)
    assert np.all(np.abs(bx - bq) <= step / 2 + 1e-12)


@given(finite_arrays)
@settings(max_examples=30, deadline=None)
def test_quantized_never_exceeds_block_envelope(x):
    """No quantized magnitude exceeds max_normal * scale of its block."""
    from repro.core.blocks import to_blocks

    fmt = MXFP4Plus()
    q = fmt(x)
    bx = to_blocks(x, 32).data
    bq = to_blocks(q, 32).data
    amax = np.max(np.abs(bx), axis=-1, keepdims=True)
    # scale <= 2 * amax / 2^emax; extended BM < 2^(emax+1) * scale
    assert np.all(np.abs(bq) <= 4 * np.maximum(amax, 0) + 1e-30)


# ----------------------------------------------------------------------
# Fused fake quantization: quantize_dequantize == decode(encode(x))
# ----------------------------------------------------------------------
ENCODABLE = [n for n in available_formats() if hasattr(get_format(n), "encode")]
#: 2**shift multiplies the inputs: the middle of the range, near +-120, the
#: MX+ flush threshold (2**(-127 + e_max)) and the E8M0 clamp at both ends.
SHIFTS = [0, 120, -120, -124, -126, -127, -130, -140, 126, 130, 135]


@st.composite
def block_inputs(draw):
    """(x, axis): random shape and axis (lengths off the block multiple),
    float32 or float64, a wide exponent regime, exact and negative zeros,
    all-zero blocks, (on the half-integer grid) tied block maxima and lone
    outliers (which give MX++ a nonzero NBM scale delta)."""
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=70))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    shift = draw(st.sampled_from(SHIFTS))
    # float32 overflows past 2**128: mantissas (outliers included) stay
    # below 2**13, so it only takes shifts up to 110
    dtype = draw(st.sampled_from([np.float64, np.float32] if shift <= 110 else [np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mant = rng.standard_normal(shape)
    if draw(st.booleans()):
        mant = np.round(mant * 2.0) / 2.0  # ties within and across signs
    if draw(st.booleans()):
        lone = rng.random(shape) < 0.03
        mant[lone] *= np.exp2(rng.integers(2, 10, shape))[lone]
    mant[rng.random(shape) < 0.1] = -0.0
    if draw(st.booleans()):
        np.moveaxis(mant, axis, -1)[..., :40] = 0.0  # at least one zero block
    return np.ldexp(mant, shift).astype(dtype), axis


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)  # NaN == NaN here
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@given(block_inputs(), st.sampled_from(ENCODABLE))
@settings(max_examples=150, deadline=None)
def test_fake_quant_equals_decode_of_encode(inp, name):
    x, axis = inp
    fmt = get_format(name)
    before = x.copy()
    got = fmt.quantize_dequantize(x, axis=axis)
    assert_bitwise_equal(x, before)  # the caller's array is never written
    assert_bitwise_equal(got, fmt.decode(fmt.encode(x, axis=axis)))


@given(block_inputs(), st.sampled_from(ENCODABLE))
@settings(max_examples=20, deadline=None)
def test_fake_quant_never_encodes(inp, name):
    """The fused path computes its output without the structured encoding."""
    x, axis = inp
    fmt = get_format(name)

    def refuse(*_args, **_kwargs):
        raise AssertionError("quantize_dequantize went through encode/decode")

    fmt.encode = fmt.decode = refuse
    fmt.quantize_dequantize(x, axis=axis)


def _nearest_even_oracle(codec, x):
    """Nearest of ``±representable_values()``, ties to the even code."""
    vals = codec.representable_values()
    mag = np.abs(x)
    hi_i = np.clip(np.searchsorted(vals, mag), 1, len(vals) - 1)
    lo, hi = vals[hi_i - 1], vals[hi_i]
    d_lo, d_hi = mag - lo, hi - mag
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi_i % 2 == 0))
    q = np.where(mag >= vals[-1], vals[-1], np.where(pick_hi, hi, lo))
    return np.where(x < 0, -q, q)


@given(
    codecs,
    st.lists(
        st.one_of(
            st.floats(-1000.0, 1000.0, allow_nan=False),
            st.floats(-1e-3, 1e-3, allow_nan=False),
            st.integers(0, 10**6),  # index of a grid midpoint: an exact tie
        ),
        min_size=1,
        max_size=64,
    ),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_codec_quantize_is_nearest_even(codec, items, negate):
    vals = codec.representable_values()
    mids = (vals[:-1] + vals[1:]) / 2.0
    x = np.array(
        [mids[i % len(mids)] * (-1.0 if negate else 1.0) if isinstance(i, int) else i for i in items],
        dtype=np.float64,
    )
    assert_bitwise_equal(codec.quantize(x), _nearest_even_oracle(codec, x))


def test_codec_quantize_signed_zeros_and_specials():
    x = np.array([0.0, -0.0, -1e-30, 1e-30, np.inf, -np.inf, np.nan])
    q = E2M1.quantize(x)
    np.testing.assert_array_equal(q, [0.0, 0.0, 0.0, 0.0, 6.0, -6.0, np.nan])
    np.testing.assert_array_equal(np.signbit(q[:4]), [False, False, True, False])


def _bf16_scalar(bits: int) -> np.float64:
    """bf16 rounding of one float32 bit pattern in Python integers."""
    if (bits >> 23) & 0xFF == 0xFF:  # Inf/NaN pass through
        kept = bits
    else:
        upper, lower = bits >> 16, bits & 0xFFFF
        if lower > 0x8000 or (lower == 0x8000 and upper & 1):
            upper += 1  # may carry into the exponent: max finite -> Inf
        kept = upper << 16
    with np.errstate(invalid="ignore"):
        return np.float64(np.array([kept], dtype=np.uint32).view(np.float32)[0])


@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**32 - 1),
            st.sampled_from([0x7F800001, 0xFF800001, 0x7F800000, 0xFF800000,
                             0x7F7FFFFF, 0xFF7FFFFF, 0x7FC00000, 0xFFFFFFFF,
                             0x80000000, 0x00000001, 0x3F808000, 0x3F818000]),
        ),
        min_size=1,
        max_size=64,
    )
)
@settings(max_examples=100, deadline=None)
def test_bf16_round_matches_scalar_reference(patterns):
    x32 = np.array(patterns, dtype=np.uint32).view(np.float32)
    want = np.array([_bf16_scalar(b) for b in patterns])
    with np.errstate(invalid="ignore"):  # signalling-NaN payloads
        before = x32.copy()
        got = bf16_round(x32)
    assert_bitwise_equal(x32.view(np.uint32), before.view(np.uint32))
    assert_bitwise_equal(got, want)
    # float64 input rounds through float32 first
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(bf16_round(x32.astype(np.float64)), want)


def test_bf16_round_specials():
    with np.errstate(invalid="ignore"):
        got = bf16_round(np.array([0x7F800001, 0x7F7FFFFF, 0xFF7FFFFF], np.uint32).view(np.float32))
    assert np.isnan(got[0])  # a low-bit payload must not round to Inf
    np.testing.assert_array_equal(got[1:], [np.inf, -np.inf])
    np.testing.assert_array_equal(bf16_round(np.array([np.inf, -np.inf])), [np.inf, -np.inf])


# ----------------------------------------------------------------------
# Non-finite blocks decode to NaN; finite blocks are untouched
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ENCODABLE)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_block_is_nan(name, bad):
    fmt = get_format(name)
    k = fmt.block_size
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3 * k))
    x[1, k + 5] = bad  # row 1, second block
    clean = x.copy()
    clean[1, k + 5] = 0.0
    got = fmt.quantize_dequantize(x)
    assert np.all(np.isnan(got[1, k : 2 * k]))
    live = np.ones(got.shape, bool)
    live[1, k : 2 * k] = False
    assert_bitwise_equal(got[live], fmt.quantize_dequantize(clean)[live])
    enc = fmt.encode(x)
    assert enc.shared_exp[1, 1] == E8M0_NAN
    assert_bitwise_equal(fmt.decode(enc), got)
    if hasattr(fmt, "encode_reference"):
        # The per-block MX+ oracle, inherited unchanged by MX++: its shared
        # exponent and BM choice hold for both families, its elements only
        # for MX+ (MX++ requantizes NBMs against a decoupled scale).
        ref = fmt.encode_reference(x)
        np.testing.assert_array_equal(ref.shared_exp, enc.shared_exp)
        np.testing.assert_array_equal(ref.bm_index, enc.bm_index)
        if not isinstance(fmt, MXPPFormat):
            assert_bitwise_equal(fmt.decode(ref), got)


def test_e8m0_nan_scale_pattern():
    assert encode_e8m0(np.array([E8M0_NAN, 0]))[0] == 255
    assert encode_e8m0(np.array([E8M0_NAN]), mx_plus=True)[0] == 255
    with pytest.raises(ValueError):
        decode_e8m0(np.array([255], dtype=np.uint8))
