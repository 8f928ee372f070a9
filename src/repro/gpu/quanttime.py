"""Quantization-time measurement (Table 6).

Unlike the other performance tables, quantization time is measured on
*our own* conversion kernels: we time the fused MXFP4 / MXFP4+ / MXFP4++
fake-quantization kernels (``quantize_dequantize``: one in-place pass per
cache-sized slab of blocks, no structured encoding) on (tokens x dim)
activations and report time normalized to MXFP4. The paper's qualitative
claims — MXFP4+ costs about the same as MXFP4 (the BM is found anyway
while computing the shared scale) and MXFP4++ pays a small extra for the
second-max — fall out of the kernel structure itself.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.mx import MXFP4
from ..core.mxplus import MXFP4Plus
from ..core.mxpp import MXFP4PlusPlus

__all__ = ["measure_quantization_time", "quantization_time_table"]


def measure_quantization_time(
    tokens: int, dim: int = 4096, repeats: int = 3, seed: int = 0
) -> dict[str, float]:
    """Seconds to quantize a (tokens, dim) activation, per format.

    The formats are timed round-robin within each repeat (rather than one
    tight loop per format) so that transient machine load degrades every
    format in the same round instead of skewing a single one; the reported
    time is the per-format minimum across rounds, which makes the
    MXFP4-normalized ratios stable on shared/loaded CPUs.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((tokens, dim))
    formats = {
        "mxfp4": MXFP4(),
        "mxfp4+": MXFP4Plus(),
        "mxfp4++": MXFP4PlusPlus(),
    }
    best = {name: float("inf") for name in formats}
    for fmt in formats.values():  # warm-up
        fmt.quantize_dequantize(x)
    for _ in range(repeats):
        for name, fmt in formats.items():
            t0 = time.perf_counter()
            fmt.quantize_dequantize(x)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def quantization_time_table(
    token_lengths: list[int], dim: int = 4096, repeats: int = 3
) -> dict[int, dict[str, float]]:
    """Table 6: normalized quantization time per input-token length."""
    out: dict[int, dict[str, float]] = {}
    for tokens in token_lengths:
        raw = measure_quantization_time(tokens, dim, repeats)
        base = raw["mxfp4"]
        out[tokens] = {k: v / base for k, v in raw.items()}
    return out
