"""Exact activation-outlier injection for trained transformers.

Real LLM activations carry channel-concentrated outliers (Figure 4a); tiny
models trained for a few hundred steps do not. We reproduce the phenomenon
*exactly* with an invariance of RMSNorm-gated architectures:

    rmsnorm(x) * g  @ W  ==  rmsnorm(x) * (g * s)  @  (W / s-rows)

Scaling gain channel ``c`` by ``s`` while dividing row ``c`` of every
consumer weight by ``s`` leaves all model outputs bit-identical in exact
arithmetic — but the *activations entering the matmul* now have a channel
of magnitude ``s``x, which is precisely what low-bit MX quantization
struggles with. The analogous transform on the query/key projections
(scale a Q column by ``s``, the matching K column by ``1/s``) plants
outliers inside the attention dot products for the Section 8.3 reordering
experiments.

``verify_equivalence`` checks the injected model against the original to
float tolerance, so every zoo model's outliers are provably artificial in
exact arithmetic and real under quantization.
"""

from __future__ import annotations

import numpy as np

from ..nn.quantize import QuantContext
from ..nn.transformer import TransformerLM

__all__ = ["inject_outliers", "inject_qk_outliers", "verify_equivalence"]


def _rescale(param, index, op: np.ufunc, scale: float) -> None:
    """``param.data[index] = op(param.data[index], scale)`` on a copy that
    is then rebound: a weight is immutable once quantised (see
    :mod:`repro.nn.quantize`)."""
    data = param.data.copy()
    data[index] = op(data[index], scale)
    param.data = data


def inject_outliers(
    model: TransformerLM,
    channels: list[int],
    scale: float,
    include_final_norm: bool = True,
) -> None:
    """Plant activation outliers at ``channels`` of every block input.

    Mutates the model in place; the transformation is exact (see module
    docstring), so BF16-baseline behaviour is essentially unchanged while
    quantized behaviour now faces realistic outliers.
    """
    for block in model.blocks:
        for c in channels:
            _rescale(block.attn_norm.gain, c, np.multiply, scale)
            for linear in (block.attn.wq, block.attn.wk, block.attn.wv):
                _rescale(linear.weight, c, np.divide, scale)
            _rescale(block.mlp_norm.gain, c, np.multiply, scale)
            for linear in (block.mlp.w_gate, block.mlp.w_up):
                _rescale(linear.weight, c, np.divide, scale)
    if include_final_norm and model.lm_head is not None:
        for c in channels:
            _rescale(model.final_norm.gain, c, np.multiply, scale)
            _rescale(model.lm_head.weight, c, np.divide, scale)


def inject_qk_outliers(model: TransformerLM, channels: list[int], scale: float) -> None:
    """Plant outlier channels inside the Q/K attention operands.

    ``QK^T = sum_c Q_c K_c`` is invariant under scaling a Q column by ``s``
    and the matching K column by ``1/s``; the Q operand then carries an
    outlier channel that the KV-cache quantization sees.
    """
    for block in model.blocks:
        for c in channels:
            _rescale(block.attn.wq.weight, (slice(None), c), np.multiply, scale)
            _rescale(block.attn.wk.weight, (slice(None), c), np.divide, scale)


def verify_equivalence(
    original: TransformerLM,
    transformed: TransformerLM,
    tokens: np.ndarray,
    atol: float = 1e-6,
) -> float:
    """Max |logit difference| between the two models on ``tokens``.

    Raises ``AssertionError`` if the transform broke exactness beyond
    floating-point noise.
    """
    a = original(tokens).data
    b = transformed(tokens).data
    diff = float(np.max(np.abs(a - b)))
    if diff > atol:
        raise AssertionError(f"outlier injection is not equivalence-preserving: {diff}")
    return diff
