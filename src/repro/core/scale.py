"""Shared-scale codecs: E8M0 (MX) and E4M3 (NVFP4).

The OCP MX scale is E8M0 — a bare 8-bit biased exponent (bias 127) encoding
a power-of-two scale ``2**(b - 127)``. The pattern ``b = 255`` is NaN per
spec; the encoders give it to a block whose largest magnitude is Inf or
NaN, and every element of such a block decodes to NaN. MX+ additionally
*reserves* ``b = 0`` to flag an all-zero block (Section 4.1 of the paper),
so representable shared exponents in MX+ are ``[-126, 127]``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "E8M0_BIAS",
    "E8M0_MIN",
    "E8M0_MIN_MXPLUS",
    "E8M0_MAX",
    "E8M0_NAN",
    "ZERO_BLOCK_SENTINEL",
    "encode_e8m0",
    "decode_e8m0",
]

E8M0_BIAS = 127
E8M0_MAX = 127
E8M0_MIN = -127  # plain MX lower bound (biased pattern 0)
E8M0_MIN_MXPLUS = -126  # MX+ reserves biased 0 for the zero-block flag
E8M0_NAN = E8M0_MAX + 1  # biased pattern 255: NaN scale (non-finite block)

# Integer sentinel used in *unpacked* arrays of shared exponents to mark a
# flushed (all-zero) block. It encodes to the reserved biased pattern 0.
ZERO_BLOCK_SENTINEL = np.int32(-(1 << 20))


def encode_e8m0(shared_exp: np.ndarray, mx_plus: bool = False) -> np.ndarray:
    """Encode shared exponents to biased E8M0 bytes.

    ``ZERO_BLOCK_SENTINEL`` entries become the reserved biased pattern 0
    (only meaningful when ``mx_plus`` is True; plain MX has no zero flag and
    callers must not pass the sentinel then); ``E8M0_NAN`` entries become
    the NaN pattern 255.
    """
    shared_exp = np.asarray(shared_exp)
    is_zero = shared_exp == ZERO_BLOCK_SENTINEL
    lo = E8M0_MIN_MXPLUS if mx_plus else E8M0_MIN
    clipped = np.clip(shared_exp, lo, E8M0_MAX)
    biased = (clipped + E8M0_BIAS).astype(np.uint8)
    biased = np.where(shared_exp == E8M0_NAN, np.uint8(255), biased)
    if mx_plus:
        biased = np.where(is_zero, np.uint8(0), biased)
    elif np.any(is_zero):
        raise ValueError("zero-block sentinel requires the MX+ encoding")
    return biased


def decode_e8m0(biased: np.ndarray, mx_plus: bool = False) -> np.ndarray:
    """Decode biased E8M0 bytes to shared exponents (int32).

    With ``mx_plus`` the biased pattern 0 decodes to the zero-block
    sentinel; without it, pattern 0 means ``-127`` per the base spec.
    """
    biased = np.asarray(biased, dtype=np.int32)
    if np.any(biased == 255):
        raise ValueError("E8M0 NaN scale encountered")
    exp = biased - E8M0_BIAS
    if mx_plus:
        exp = np.where(biased == 0, ZERO_BLOCK_SENTINEL, exp)
    return exp
