"""Quantized-inference context: which format each matmul operand uses.

The paper's direct-cast flow (Section 7.1): all tensors involved in any dot
product — activations, weights, the language-modeling head, and the KV
cache — are cast to the chosen format right before the matmul; element-wise
ops stay in BF16 and softmax in FP32. ``QuantContext`` encodes one such
configuration, e.g.::

    QuantContext.named("mxfp4")            # A-MXFP4, W-MXFP4
    QuantContext.named("a-mxfp4+")         # MXFP4+ activations, MXFP4 weights
    QuantContext(act=None, weight=fmt)     # weight-only quantization

The canonical configuration surface is :class:`repro.serve.QuantRecipe`;
``QuantContext`` is the numeric execution object a recipe adapts to via
``QuantRecipe.to_context()`` (and ``named`` delegates to recipe parsing).

Weights do not change while serving, so each one is quantised once:
``quantize_weight`` keeps one cached quantised copy per weight array (see
``_WEIGHT_CACHE``). The contract that keeps it fresh: **a weight is
immutable once quantised.** Both the cached source array and its cached
copy are made read-only, so an in-place write raises ``ValueError``
instead of serving stale weights. Code that changes a weight (the
optimisers, outlier injection, ``load_state_dict``) rebinds ``p.data`` to
a new array, which the cache has never seen.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..core.blocks import BlockFormat
from .bf16 import bf16_round

__all__ = ["QuantContext", "BASELINE", "as_context"]

#: Quantised weights, one slot per live weight array, keyed by ``id``. A
#: slot is ``(weakref to the array, format, axis, bf16_base, output)``:
#: the format is held strongly and compared with ``is`` (names and ids of
#: dead formats can be reused), a different tag replaces the slot, and the
#: weakref's callback drops the slot when the array dies.
_WEIGHT_CACHE: dict[int, tuple] = {}


def _forget(key: int, ref: weakref.ref) -> None:
    slot = _WEIGHT_CACHE.get(key)
    if slot is not None and slot[0] is ref:
        del _WEIGHT_CACHE[key]


def _quantize_weight_cached(
    fmt: BlockFormat | None, w: np.ndarray, axis: int, bf16_base: bool
) -> np.ndarray:
    """``fmt`` applied to ``w`` (BF16-rounded first under ``bf16_base``),
    computed once per array.

    Views bypass the cache: making a view read-only does not guard its
    base against writes.
    """
    if fmt is None and not bf16_base:
        return w
    key = id(w)
    slot = _WEIGHT_CACHE.get(key)
    if (
        slot is not None
        and slot[0]() is w
        and slot[1] is fmt
        and slot[2] == axis
        and slot[3] == bf16_base
    ):
        return slot[4]
    base = bf16_round(w) if bf16_base else w
    out = base if fmt is None else fmt.quantize_dequantize(base, axis=axis)
    if w.base is not None:
        return out
    w.flags.writeable = False
    out.flags.writeable = False
    ref = weakref.ref(w, partial(_forget, key))
    _WEIGHT_CACHE[key] = (ref, fmt, axis, bf16_base, out)
    return out


@dataclass
class QuantContext:
    """Per-tensor-role format assignment for quantized inference.

    ``None`` for a role means "baseline precision" (BF16 rounding when
    ``bf16_base`` is set, else exact float64).
    """

    act: BlockFormat | None = None
    weight: BlockFormat | None = None
    kv: BlockFormat | None = None  # defaults to act when left None and act set
    lm_head: BlockFormat | None = None  # defaults to weight when left None
    bf16_base: bool = True
    quantize_lm_head: bool = True
    quantize_attention: bool = True  # QK^T and PV matmuls (incl. KV cache)
    name: str = "baseline"
    # Optional channel permutations for the query/key projections keyed by
    # layer index (Section 8.3 reordering); applied inside attention.
    qk_permutations: dict = field(default_factory=dict)
    # Per-layer contexts for mixed-precision recipes: transformer block i
    # runs under ``layer_overrides[i]`` when present (see ``layer_context``).
    # Built by ``QuantRecipe.to_context()`` from the recipe's
    # ``layer_overrides`` map; plain uniform contexts leave this empty.
    layer_overrides: dict = field(default_factory=dict)
    # Layer space the override keys index: 0 = physical block indices; a
    # positive G means G equal groups spread over the model's blocks, the
    # same convention the timing path uses (QuantRecipe.n_layer_groups).
    n_layer_groups: int = 0

    # ------------------------------------------------------------------
    @staticmethod
    def named(spec: str) -> "QuantContext":
        """Build a context from a paper-style name.

        Delegates to :meth:`repro.serve.QuantRecipe.from_name` — the
        canonical parser — and adapts the recipe to a context. Accepts
        ``"baseline"``/``"bf16"``, plain format names (``"mxfp4"``,
        ``"mxfp6+"``), activation-only MX+ (``"a-mxfp4+"``), registered
        recipe names (``"a8w4"``), and explicit mixes
        (``"a:<fmt>,w:<fmt>[,kv:<fmt>]"``).
        """
        from ..serve.recipe import QuantRecipe  # lazy: avoid import cycle

        return QuantRecipe.from_name(spec).to_context()

    def with_(self, **kwargs) -> "QuantContext":
        return replace(self, **kwargs)

    def layer_context(self, layer_index: int, n_layers: int = 0) -> "QuantContext":
        """The context transformer block ``layer_index`` should run under.

        Mixed-precision recipes assign some layers their own format; this
        returns the per-layer derived context when one exists and ``self``
        otherwise, so uniform recipes pay nothing. With group-indexed
        overrides (``n_layer_groups == G``) and the model's ``n_layers``
        supplied, physical block ``i`` resolves to the group whose band
        ``[g*n/G, (g+1)*n/G)`` contains it — ``g = (i*G + G-1) // n``,
        the exact inverse of the timing path's
        :func:`repro.gpu.inference.spread_layer_overrides` band rule even
        when ``G`` does not divide ``n``, so one recipe means the same
        thing on the stand-in and the full model.
        The LM head is *not* a layer — it follows :meth:`head_context`
        on the base context.
        """
        if (
            self.layer_overrides
            and self.n_layer_groups
            and n_layers
            and self.n_layer_groups != n_layers
        ):
            g = self.n_layer_groups
            layer_index = (layer_index * g + g - 1) // n_layers
        return self.layer_overrides.get(layer_index, self)

    # ------------------------------------------------------------------
    def _base(self, x: np.ndarray) -> np.ndarray:
        return bf16_round(x) if self.bf16_base else x

    def quantize_act(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Quantize a matmul activation operand along its reduction axis."""
        if self.act is None:
            return self._base(x)
        return self.act.quantize_dequantize(self._base(x), axis=axis)

    def quantize_weight(self, w: np.ndarray, axis: int = 0) -> np.ndarray:
        """Quantize a weight operand along its reduction axis (input dim).

        The result is cached per weight array and returned read-only; ``w``
        itself becomes read-only too, because a weight is immutable once
        quantised. To change a weight, rebind the parameter's ``data`` to
        a new array. Views (``w.base is not None``) are not cached.
        """
        return _quantize_weight_cached(self.weight, w, axis, self.bf16_base)

    def quantize_head_weight(self, w: np.ndarray, axis: int = 0) -> np.ndarray:
        """Quantize the LM-head weight (``lm_head`` role, falls back to
        the weight format); cached like :meth:`quantize_weight`."""
        fmt = self.lm_head if self.lm_head is not None else self.weight
        return _quantize_weight_cached(fmt, w, axis, self.bf16_base)

    def head_context(self) -> "QuantContext | None":
        """The context the LM-head matmul should run under.

        ``None`` when the head is excluded from quantization; otherwise a
        context whose weight format is the ``lm_head`` role override (or
        this context unchanged when no override is set).
        """
        if not self.quantize_lm_head:
            return None
        if self.lm_head is None:
            return self
        return self.with_(weight=self.lm_head)

    def quantize_kv(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Quantize a KV-cache / attention operand."""
        if not self.quantize_attention:
            return self._base(x)
        fmt = self.kv if self.kv is not None else self.act
        if fmt is None:
            return self._base(x)
        return fmt.quantize_dequantize(self._base(x), axis=axis)

    def quantize_matmul_pair(
        self, x: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint hook for one ``x @ w`` matmul (x: (..., K), w: (K, N)).

        The default treats the operands independently. Schemes that
        co-transform the pair — SmoothQuant's scale migration, QuaRot's
        rotation, AWQ's weight scaling — override this in
        :mod:`repro.quant` so the migration stays mathematically paired.
        """
        return self.quantize_act(x, axis=-1), self.quantize_weight(w, axis=0)


def as_context(qc) -> QuantContext | None:
    """Normalize ``QuantContext | QuantRecipe | name | None`` to a context.

    The single coercion point that lets the eval harness, the transformer,
    and the schemes all accept a :class:`repro.serve.QuantRecipe` (or its
    name) wherever a context is expected.
    """
    if qc is None or isinstance(qc, QuantContext):
        return qc
    if isinstance(qc, str):
        return QuantContext.named(qc)
    to_context = getattr(qc, "to_context", None)
    if callable(to_context):
        return to_context()
    raise TypeError(f"expected QuantContext, QuantRecipe, or name, got {qc!r}")


#: The BF16 baseline configuration (B in Figure 2).
BASELINE = QuantContext()
