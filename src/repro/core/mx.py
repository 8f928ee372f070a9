"""OCP Microscaling (MX) quantization: MXFP4/MXFP6/MXFP8 and MXINT8.

Implements Eq. (1) of the paper:

    shared_exp = max(floor(log2(|x|))) - e_max,     X = 2**shared_exp

with the shared exponent clamped to the E8M0 range ``[-127, 127]`` and
elements converted with saturation, per the OCP MX specification v1.0. A
block whose largest magnitude is Inf or NaN gets the E8M0 NaN scale and
decodes to NaN.

``encode`` and ``quantize_dequantize`` share one kernel that rounds the
scaled elements in place in a block buffer; fake quantization runs it slab
by slab and scales each slab back instead of building an
:class:`MXEncoded` and decoding it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockFormat, block_absmax, block_slabs, from_blocks, to_blocks
from .elem import E2M1, E2M3, E3M2, E4M3, E5M2, INT8_MX, FloatCodec, IntCodec, floor_log2
from .scale import E8M0_MAX, E8M0_MIN, E8M0_NAN

__all__ = [
    "MXEncoded",
    "MXFormat",
    "MXFP4",
    "MXFP4K64",
    "MXFP6",
    "MXFP6_E3M2",
    "MXFP8",
    "MXFP8_E5M2",
    "MXINT8",
]


@dataclass
class MXEncoded:
    """Structured MX encoding: per-block shared exponents + element values.

    ``elem_values`` are the *scaled* element values (already divided by the
    shared scale), exactly representable in the element data type.
    """

    shared_exp: np.ndarray  # (..., nblocks) int32
    elem_values: np.ndarray  # (..., nblocks, k) float64, scaled domain
    blocked: object  # Blocked bookkeeping for decode


class MXFormat(BlockFormat):
    """An MX-compliant format: one element codec + E8M0 shared scale."""

    def __init__(self, elem: FloatCodec | IntCodec, block_size: int = 32, name: str | None = None):
        self.elem = elem
        self.block_size = block_size
        self.name = name or f"mx-{elem.name}"

    # ------------------------------------------------------------------
    def _shared_exp(self, blocks: np.ndarray) -> np.ndarray:
        """Per-block shared exponent per Eq. (1), clamped to E8M0 range;
        ``E8M0_NAN`` where the block's largest magnitude is Inf or NaN."""
        _, amax = block_absmax(np.abs(blocks))
        # All-zero blocks get the minimum exponent; their elements quantize
        # to zero regardless of scale.
        exp = np.where(amax == 0, E8M0_MIN, floor_log2(amax) - self.elem.emax)
        exp = np.clip(exp, E8M0_MIN, E8M0_MAX)
        return np.where(np.isfinite(amax), exp, E8M0_NAN).astype(np.int32)

    def _round_blocks(self, buf: np.ndarray) -> np.ndarray:
        """Overwrite the blocks ``buf`` (caller-owned) with their scaled
        element values — :attr:`MXEncoded.elem_values` — and return the
        shared exponents."""
        shared_exp = self._shared_exp(buf)
        np.ldexp(buf, -shared_exp[..., None], out=buf)
        self.elem.quantize_inplace(buf)
        buf[shared_exp == E8M0_NAN] = np.nan
        return shared_exp

    def encode(self, x: np.ndarray, axis: int = -1) -> MXEncoded:
        blocked = to_blocks(x, self.block_size, axis)
        elem_values = blocked.data.copy()
        shared_exp = self._round_blocks(elem_values)
        return MXEncoded(shared_exp=shared_exp, elem_values=elem_values, blocked=blocked)

    def decode(self, enc: MXEncoded) -> np.ndarray:
        scale = np.exp2(enc.shared_exp.astype(np.float64))[..., None]
        return from_blocks(enc.blocked, enc.elem_values * scale)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """``decode(encode(x))`` bit for bit, computed in one block buffer,
        one cache-sized slab at a time: round in place, scale back."""
        blocked = to_blocks(x, self.block_size, axis)
        for slab in block_slabs(blocked.data):
            shared_exp = self._round_blocks(slab)
            np.ldexp(slab, shared_exp[:, None], out=slab)
        return from_blocks(blocked)

    def bits_per_element(self) -> float:
        return self.elem.bits + 8.0 / self.block_size


def MXFP4() -> MXFormat:
    """MXFP4: E2M1 elements, block 32, E8M0 scale (avg 4.25 bits/elem)."""
    return MXFormat(E2M1, name="mxfp4")


def MXFP4K64() -> MXFormat:
    """MXFP4 over 64-element blocks: halves the shared-scale sideband to
    4.125 avg bits/elem at a quality cost — the cheapest point on the
    tuner's format ladder (and a lean KV-cache storage format)."""
    return MXFormat(E2M1, block_size=64, name="mxfp4-k64")


def MXFP6() -> MXFormat:
    """MXFP6 (E2M3) — the higher-mantissa 6-bit variant the paper uses."""
    return MXFormat(E2M3, name="mxfp6")


def MXFP6_E3M2() -> MXFormat:
    return MXFormat(E3M2, name="mxfp6-e3m2")


def MXFP8() -> MXFormat:
    """MXFP8 (E4M3) — the higher-mantissa 8-bit variant the paper uses."""
    return MXFormat(E4M3, name="mxfp8")


def MXFP8_E5M2() -> MXFormat:
    return MXFormat(E5M2, name="mxfp8-e5m2")


def MXINT8() -> MXFormat:
    return MXFormat(INT8_MX, name="mxint8")
