"""Bfloat16 rounding emulation.

The paper's baseline performs matrix multiplications and element-wise ops in
BF16 (softmax in FP32). Numpy has no native bfloat16, so we emulate the
rounding: view float32 bits, round-to-nearest-even on the low 16 mantissa
bits, truncate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bf16_round", "BF16_EPS"]

# Relative spacing of bfloat16 (8-bit mantissa incl. implicit bit).
BF16_EPS = 2.0**-8


def bf16_round(x: np.ndarray) -> np.ndarray:
    """Round an array to the nearest bfloat16 value (returned as float64).

    Round-to-nearest-even on the truncated 16 bits, matching hardware
    BF16 conversion; finite values past the largest bfloat16 round to
    ±Inf. NaN/Inf pass through unchanged. The rounding runs as in-place
    integer ops on a float32 copy of ``x``.
    """
    x32 = np.array(x, dtype=np.float32)  # owned copy, rounded in place
    bits = x32.view(np.uint32)
    finite = np.isfinite(x32)
    special = None if finite.all() else ~finite
    saved = None if special is None else x32[special]
    # round to nearest even: add 0x7FFF + lsb of the kept part, truncate
    lsb = bits >> 16
    lsb &= 1
    lsb += 0x7FFF
    bits += lsb
    bits &= 0xFFFF0000
    if special is not None:  # NaN payloads and Inf are restored verbatim
        x32[special] = saved
    return x32.astype(np.float64)
