"""Block partitioning utilities and the abstract :class:`BlockFormat` API.

Every block-based format in this library follows the same contract:

``quantize_dequantize(x, axis=-1)``
    Fake-quantize an array: values come back on the format's representable
    grid, shape and dtype preserved, and ``x`` itself is never written.
    This is the workhorse for model evaluation. The MX, MX+ and MX++
    formats compute it in one pass over their own block buffer; it equals
    ``decode(encode(x))`` bit for bit without building the encoding.

``encode(x, axis=-1) -> Encoded`` / ``decode(Encoded)``
    Structured encode/decode exposing per-block fields (shared exponents,
    element values, BM indices, ...), used by the bit-level layout code and
    by the hardware model.

Blocking happens along one axis: the axis is moved last, padded with zeros
to a multiple of the block size, and reshaped to ``(..., nblocks, k)``.
Padding never changes a block's max-magnitude statistics because zeros are
never larger than any real magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Blocked",
    "to_blocks",
    "from_blocks",
    "block_absmax",
    "block_slabs",
    "BlockFormat",
]

# Elements per slab of the fused fake-quantization kernels: one slab plus
# the kernel's per-element temporaries stays in a core's L2 cache across
# the kernel's dozen passes instead of streaming through memory. Against
# whole-tensor passes, slabbing raised perfbench numeric-ppl throughput by
# 14% and cut its peak RSS by 13% (5 alternating pairs, 2-core Xeon with
# 2 MiB L2 per core); numeric-decode, with small one-row operands, was even.
_SLAB_ELEMS = 1 << 16


@dataclass
class Blocked:
    """An array reshaped into blocks along its last axis, with restore info."""

    data: np.ndarray  # (..., nblocks, k)
    axis: int
    orig_len: int
    orig_shape: tuple
    orig_dtype: np.dtype


def to_blocks(x: np.ndarray, block_size: int, axis: int = -1) -> Blocked:
    """Reshape ``x`` into zero-padded blocks of ``block_size`` along ``axis``.

    ``data`` is a fresh C-contiguous float64 buffer (one copy of ``x``), so
    callers may overwrite it in place.
    """
    x = np.asarray(x)
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    nblocks = -(-n // block_size)
    data = np.empty(moved.shape[:-1] + (nblocks, block_size))
    flat = data.reshape(moved.shape[:-1] + (nblocks * block_size,))
    flat[..., :n] = moved
    flat[..., n:] = 0.0
    return Blocked(
        data=data,
        axis=axis,
        orig_len=n,
        orig_shape=x.shape,
        orig_dtype=x.dtype,
    )


def from_blocks(blocked: Blocked, data: np.ndarray | None = None) -> np.ndarray:
    """Invert :func:`to_blocks`, dropping padding and restoring axis order."""
    d = blocked.data if data is None else data
    flat = d.reshape(d.shape[:-2] + (-1,))[..., : blocked.orig_len]
    out = np.moveaxis(flat, -1, blocked.axis)
    return out.reshape(blocked.orig_shape).astype(blocked.orig_dtype, copy=False)


def block_absmax(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position ``(..., nblocks, 1)`` and value ``(..., nblocks)`` of each
    block's largest entry of ``mags`` (magnitudes, blocks on the last axis).

    The first maximum wins ties, and a NaN counts as the largest, so a
    block holding one reports a NaN maximum. ``argmax`` plus a gather is
    cheaper than ``max`` over short block rows.
    """
    idx = np.argmax(mags, axis=-1)[..., None]
    return idx, np.take_along_axis(mags, idx, axis=-1)[..., 0]


def block_slabs(data: np.ndarray) -> list[np.ndarray]:
    """Consecutive whole-block row slabs of about ``_SLAB_ELEMS``
    elements each, as writable views ``(rows, k)`` of the C-contiguous
    blocks ``data`` (``(..., nblocks, k)``, e.g. :attr:`Blocked.data`)."""
    rows = data.reshape(-1, data.shape[-1])
    step = max(1, _SLAB_ELEMS // data.shape[-1])
    return [rows[i : i + step] for i in range(0, rows.shape[0], step)]


class BlockFormat:
    """Base class for block-based reduced-precision formats."""

    #: format name for the registry (e.g. ``"mxfp4+"``)
    name: str = "abstract"
    #: number of elements sharing one scale
    block_size: int = 32

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Round ``x`` onto the format grid and return it in the input dtype."""
        raise NotImplementedError

    def bits_per_element(self) -> float:
        """Average storage bits per element including all sidebands."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.quantize_dequantize(x, axis=axis)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(name={self.name!r}, k={self.block_size})"
