"""Element data-type codecs for block floating-point formats.

An *element codec* maps already-scaled values (i.e. values divided by the
block's shared scale) onto the representable grid of a small floating-point
or integer encoding, using IEEE-754-style semantics: an implicit leading one
for normals, gradual underflow via subnormals, round-to-nearest-even, and
saturation on overflow (the OCP MX specification converts with saturation).

The codecs here are value-level (they return exactly-representable floats)
and bit-level (they can produce and consume the packed bit patterns used by
:mod:`repro.core.layout`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FloatCodec",
    "IntCodec",
    "E2M1",
    "E2M3",
    "E3M2",
    "E4M3",
    "E5M2",
    "INT8_MX",
    "INT4_MX",
    "round_half_even",
    "floor_log2",
]


def round_half_even(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to nearest integer with ties to even (IEEE default rounding).

    ``np.round`` already implements banker's rounding; this wrapper exists so
    the rounding rule used across the library is named and testable in one
    place. Pass ``out=x`` to round a float array in place.
    """
    return np.round(x, out=out)


def floor_log2(x: np.ndarray) -> np.ndarray:
    """Exact ``floor(log2(|x|))`` for positive finite values.

    Uses :func:`numpy.frexp` rather than ``log2`` so results are exact for
    powers of two (``log2`` can return e.g. ``2.9999999999999996`` for 8.0 on
    some platforms, which would corrupt shared-exponent selection).

    Entries equal to zero map to the most negative int32 so that callers can
    treat them as "no magnitude".
    """
    x = np.asarray(x, dtype=np.float64)
    _, e = np.frexp(np.abs(x))
    out = (e - 1).astype(np.int32)
    out = np.where(x == 0, np.int32(np.iinfo(np.int32).min // 2), out)
    return out


@dataclass(frozen=True)
class FloatCodec:
    """A small floating-point encoding ``1 + ebits + mbits`` bits wide.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"e2m1"``.
    ebits, mbits:
        Exponent and mantissa field widths.
    bias:
        Exponent bias.
    ieee_inf:
        If True the top exponent field is reserved for Inf/NaN (E5M2 style),
        which lowers ``emax`` by one. If False but ``nan_encoding`` is True,
        only the all-ones pattern is NaN (E4M3 style) which removes the top
        mantissa code from ``max_normal`` but keeps ``emax``.
    nan_encoding:
        Whether a NaN encoding exists at all.
    """

    name: str
    ebits: int
    mbits: int
    bias: int
    ieee_inf: bool = False
    nan_encoding: bool = False

    @property
    def bits(self) -> int:
        return 1 + self.ebits + self.mbits

    @property
    def emax(self) -> int:
        """Maximum exponent of a normal number (paper's ``e_max``)."""
        top = (1 << self.ebits) - 1 - self.bias
        return top - 1 if self.ieee_inf else top

    @property
    def emin(self) -> int:
        """Exponent of the smallest normal number."""
        return 1 - self.bias

    @property
    def max_normal(self) -> float:
        """Largest representable finite magnitude."""
        top_mant = (1 << self.mbits) - 1
        if self.nan_encoding and not self.ieee_inf:
            # E4M3 style: S.1111.111 is NaN, so the largest finite value has
            # mantissa 111...0.
            top_mant -= 1
        return float(2.0 ** self.emax * (1.0 + top_mant / (1 << self.mbits)))

    @property
    def min_normal(self) -> float:
        return float(2.0 ** self.emin)

    @property
    def min_subnormal(self) -> float:
        return float(2.0 ** (self.emin - self.mbits))

    # ------------------------------------------------------------------
    # Value-level quantization
    # ------------------------------------------------------------------
    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Map ``x`` to the nearest representable value (saturating).

        Round-to-nearest-even in the format's mantissa space; magnitudes
        above ``max_normal`` saturate; magnitudes that round to zero flush
        to zero, signed like ``x`` (an exact ``-0.0`` input gives ``+0.0``).
        NaN stays NaN. Returns a new float64 array.
        """
        return self.quantize_inplace(np.array(x, dtype=np.float64))

    def quantize_inplace(self, buf: np.ndarray) -> np.ndarray:
        """:meth:`quantize` written into ``buf``, a float64 array the caller
        owns; returns ``buf``.

        One ``frexp`` reads every element's binade, ``ldexp`` scales it so
        the grid step becomes 1, :func:`round_half_even` rounds and ``ldexp``
        scales back — exact power-of-two scalings, so the result is the
        nearest grid point bit for bit. The block formats run this on their
        own block buffers, so fake quantization allocates no per-element
        temporaries besides the exponents.
        """
        np.add(buf, 0.0, out=buf)  # -0.0 -> +0.0; every other value unchanged
        # Saturating first is the same as after: max_normal is on the grid
        # and rounding is monotone.
        np.clip(buf, -self.max_normal, self.max_normal, out=buf)
        # floor(log2|x|) + 1 per element (0 for zeros and NaN)
        _, e = np.frexp(buf, out=(None, np.empty(buf.shape, np.int32)))
        # grid step 2**(max(floor(log2|x|), emin) - mbits): subnormals share
        # emin's step
        np.maximum(e, self.emin + 1, out=e)
        np.subtract(self.mbits + 1, e, out=e)
        np.ldexp(buf, e, out=buf)
        round_half_even(buf, out=buf)
        np.negative(e, out=e)
        return np.ldexp(buf, e, out=buf)

    def representable_values(self) -> np.ndarray:
        """All non-negative representable magnitudes, ascending (for tests)."""
        vals = [0.0]
        # subnormals
        for m in range(1, 1 << self.mbits):
            vals.append(2.0 ** self.emin * m / (1 << self.mbits))
        # normals
        for e in range(self.emin, self.emax + 1):
            for m in range(1 << self.mbits):
                v = 2.0**e * (1.0 + m / (1 << self.mbits))
                if v <= self.max_normal:
                    vals.append(v)
        return np.array(sorted(set(vals)))

    # ------------------------------------------------------------------
    # Bit-level encode/decode
    # ------------------------------------------------------------------
    def encode_bits(self, x: np.ndarray) -> np.ndarray:
        """Encode representable values to their bit patterns (uint32).

        ``x`` must already be on the representable grid (e.g. the output of
        :meth:`quantize`); values off-grid raise ``ValueError``.
        """
        x = np.asarray(x, dtype=np.float64)
        sign = (x < 0) | ((x == 0) & (np.signbit(x)))
        mag = np.abs(x)

        exp = floor_log2(mag)
        is_sub = (mag > 0) & (exp < self.emin)
        is_zero = mag == 0

        norm_exp = np.clip(exp, self.emin, self.emax)
        frac = np.where(is_zero, 0.0, mag / np.exp2(norm_exp.astype(np.float64)))
        # normals: frac in [1, 2) -> mantissa = (frac - 1) * 2^mbits
        # subnormals: use emin's scale -> mantissa = mag / 2^(emin - mbits)
        mant = np.where(
            is_sub | is_zero,
            mag / np.exp2(float(self.emin - self.mbits)),
            (frac - 1.0) * (1 << self.mbits),
        )
        mant_i = round_half_even(mant).astype(np.uint32)
        if not np.allclose(mant, mant_i, atol=1e-9):
            raise ValueError("values are not on the representable grid")
        exp_field = np.where(
            is_sub | is_zero, 0, norm_exp + self.bias
        ).astype(np.uint32)
        return (
            (sign.astype(np.uint32) << (self.ebits + self.mbits))
            | (exp_field << self.mbits)
            | mant_i
        )

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        """Decode bit patterns back to float values."""
        bits = np.asarray(bits, dtype=np.uint32)
        sign = (bits >> (self.ebits + self.mbits)) & 1
        exp_field = (bits >> self.mbits) & ((1 << self.ebits) - 1)
        mant = bits & ((1 << self.mbits) - 1)

        is_sub = exp_field == 0
        exp = np.where(is_sub, self.emin, exp_field.astype(np.int64) - self.bias)
        frac = np.where(is_sub, 0.0, 1.0) + mant.astype(np.float64) / (1 << self.mbits)
        val = np.exp2(exp.astype(np.float64)) * frac
        return np.where(sign == 1, -val, val)


@dataclass(frozen=True)
class IntCodec:
    """Fixed-point integer element codec (MXINT style).

    Values are interpreted as ``q * 2**-frac_bits`` with ``q`` a signed
    integer clamped symmetrically to ``±(2**(bits-1) - 1)`` (the
    microxcaling reference library uses the same symmetric clamp).
    """

    name: str
    bits: int
    frac_bits: int
    int_bits: int = field(default=1)

    @property
    def emax(self) -> int:
        """``e_max`` analog for Eq. (1): 0 because magnitudes are < 2."""
        return 0

    @property
    def max_q(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def max_normal(self) -> float:
        return self.max_q / float(1 << self.frac_bits)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        return self.quantize_inplace(np.array(x, dtype=np.float64))

    def quantize_inplace(self, buf: np.ndarray) -> np.ndarray:
        """:meth:`quantize` written into ``buf`` (float64, caller-owned)."""
        scale = float(1 << self.frac_bits)
        np.multiply(buf, scale, out=buf)
        round_half_even(buf, out=buf)
        np.clip(buf, -self.max_q, self.max_q, out=buf)
        return np.divide(buf, scale, out=buf)

    def encode_bits(self, x: np.ndarray) -> np.ndarray:
        q = round_half_even(np.asarray(x, dtype=np.float64) * (1 << self.frac_bits))
        q = np.clip(q, -self.max_q, self.max_q).astype(np.int64)
        return (q & ((1 << self.bits) - 1)).astype(np.uint32)

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint32).astype(np.int64)
        signed = np.where(bits >= (1 << (self.bits - 1)), bits - (1 << self.bits), bits)
        return signed.astype(np.float64) / (1 << self.frac_bits)


# Concrete MX element data types (OCP MX spec v1.0, Table 1 of the paper).
E2M1 = FloatCodec("e2m1", ebits=2, mbits=1, bias=1)
E2M3 = FloatCodec("e2m3", ebits=2, mbits=3, bias=1)
E3M2 = FloatCodec("e3m2", ebits=3, mbits=2, bias=3)
E4M3 = FloatCodec("e4m3", ebits=4, mbits=3, bias=7, nan_encoding=True)
E5M2 = FloatCodec("e5m2", ebits=5, mbits=2, bias=15, ieee_inf=True, nan_encoding=True)

INT8_MX = IntCodec("int8", bits=8, frac_bits=6)
INT4_MX = IntCodec("int4", bits=4, frac_bits=2)
