"""MX++ — decoupling the NBM shared scale via the reserved bits (Section 4.3).

MX++ keeps the BM exactly as in MX+ but lets the NBM elements use a smaller
shared scale so they land on a finer quantization grid. The NBM shared
exponent is

    e = max2(floor(log2(|x|))) - e_max + 1

where ``max2`` is the second-largest exponent in the block (the ``+1``
offset prevents the largest NBM from saturating after scaling — the paper's
0.99 -> 7.92 example). The final exponent is

    shared_exp_new = CLIP(e, {shared_exp - 7, shared_exp})

so the delta from the BM's shared exponent fits the 3 reserved bits.

MX++ reuses the MX+ block kernel with its own block statistics (the
second-max pass below) and its own fake quantization, which scales BMs and
NBMs back by their separate exponents; neither goes through ``encode``.
"""

from __future__ import annotations

import numpy as np

from .blocks import block_absmax, block_slabs, from_blocks, to_blocks
from .elem import E2M1, FloatCodec, floor_log2
from .mxplus import MXPlusFormat
from .scale import E8M0_NAN, ZERO_BLOCK_SENTINEL

__all__ = ["MXPPFormat", "MXFP4PlusPlus", "MXFP6PlusPlus", "MXFP8PlusPlus"]


class MXPPFormat(MXPlusFormat):
    """MX++ format (MX+ plus decoupled NBM scale)."""

    def __init__(self, elem: FloatCodec, block_size: int = 32, name: str | None = None):
        super().__init__(elem, block_size, name or f"mx-{elem.name}++")

    def _block_stats(self, mags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MX+ statistics plus the decoupled NBM shared exponent."""
        bm_index, shared_exp, _ = super()._block_stats(mags)
        # Largest NBM: mask out the BM position (an NBM tied with it counts).
        np.put_along_axis(mags, bm_index, 0.0, axis=-1)
        _, nbm_amax = block_absmax(mags)
        e = floor_log2(nbm_amax) - self.elem.emax + 1
        shared = np.where(shared_exp == ZERO_BLOCK_SENTINEL, 0, shared_exp)
        new_exp = np.clip(e, shared - 7, shared)
        # Blocks whose NBMs are all zero keep the BM scale (delta 0).
        new_exp = np.where(nbm_amax == 0, shared, new_exp)
        # Flushed and non-finite blocks carry the block's own marker.
        marked = (shared_exp == ZERO_BLOCK_SENTINEL) | (shared_exp == E8M0_NAN)
        return bm_index, shared_exp, np.where(marked, shared_exp, new_exp).astype(np.int32)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """``decode(encode(x))`` bit for bit, computed in one block buffer,
        one cache-sized slab at a time: round in place, scale NBMs back by
        the NBM exponent and the BM by the block's shared exponent."""
        blocked = to_blocks(x, self.block_size, axis)
        for slab in block_slabs(blocked.data):
            bm_index, _, _, bm_exp, nbm_exp = self._round_blocks(slab)
            bm = np.ldexp(np.take_along_axis(slab, bm_index, axis=-1), bm_exp)
            np.ldexp(slab, nbm_exp, out=slab)
            np.put_along_axis(slab, bm_index, bm, axis=-1)
        return from_blocks(blocked)


def MXFP4PlusPlus() -> MXPPFormat:
    return MXPPFormat(E2M1, name="mxfp4++")


def MXFP6PlusPlus() -> MXPPFormat:
    from .elem import E2M3

    return MXPPFormat(E2M3, name="mxfp6++")


def MXFP8PlusPlus() -> MXPPFormat:
    from .elem import E4M3

    return MXPPFormat(E4M3, name="mxfp8++")
