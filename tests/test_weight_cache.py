"""The quantised-weight cache behind ``QuantContext.quantize_weight``.

A weight is quantised once per (array, format object, axis, bf16_base);
the arrays are read-only once quantised, and every writer rebinds
``p.data``. These tests pin that no path can serve stale or wrong-format
weights and that the cache stays bounded.
"""

import dataclasses
import gc

import numpy as np
import pytest

from repro.core.mx import MXFormat, MXFP4
from repro.models.outliers import inject_outliers, inject_qk_outliers
from repro.nn import quantize
from repro.nn.optim import SGD, Adam
from repro.nn.quantize import QuantContext
from repro.nn.tensor import no_grad
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import QuantRecipe

CFG = TransformerConfig(vocab_size=31, dim=32, n_layers=2, n_heads=4, hidden=64, seed=0)
TOKENS = np.random.default_rng(0).integers(0, CFG.vocab_size, (2, 24))
N_WEIGHTS = 7 * CFG.n_layers + 1  # q/k/v/o + gate/up/down per block, LM head


def logits(model, qc):
    with no_grad():
        return model(TOKENS, qc).data


def fresh_copy(model):
    """A model with the same parameters in arrays the cache has never seen."""
    copy = TransformerLM(model.config)
    copy.load_state_dict(model.state_dict())
    return copy


def weight_arrays(model):
    """The arrays of the model's linear layers (the embedding is not one)."""
    return [
        p.data
        for name, p in model.named_parameters()
        if name.endswith("weight") and name != "embed.weight"
    ]


def entries_for(model):
    """Cache slots whose source array is one of ``model``'s parameters."""
    ids = {id(p.data) for p in model.parameters()}
    return [slot for key, slot in quantize._WEIGHT_CACHE.items() if key in ids]


def sgd_step(model):
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    model.loss(TOKENS).backward()
    opt.step()


def adam_step(model):
    opt = Adam(model.parameters(), lr=1e-2)
    model.loss(TOKENS).backward()
    opt.step()


def load_other(model):
    model.load_state_dict(TransformerLM(dataclasses.replace(CFG, seed=1)).state_dict())


WRITERS = {
    "sgd": sgd_step,
    "adam": adam_step,
    "inject_outliers": lambda m: inject_outliers(m, channels=[3, 17], scale=64.0),
    "inject_qk_outliers": lambda m: inject_qk_outliers(m, channels=[2], scale=16.0),
    "load_state_dict": load_other,
}


class TestFreshness:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_writer_invalidates(self, writer):
        model = TransformerLM(CFG)
        qc = QuantRecipe.from_name("mxfp4+").to_context()
        before = logits(model, qc)  # warms the cache
        assert entries_for(model)
        WRITERS[writer](model)
        after = logits(model, qc)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, logits(fresh_copy(model), qc))

    def test_in_place_write_raises(self):
        model = TransformerLM(CFG)
        logits(model, QuantContext.named("mxfp4"))
        w = model.blocks[0].attn.wq.weight.data
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        with pytest.raises(ValueError):
            w /= 2.0
        slot = quantize._WEIGHT_CACHE[id(w)]
        with pytest.raises(ValueError):
            slot[-1][0, 0] = 1.0


class TestFormatKey:
    def test_alternating_formats(self):
        model = TransformerLM(CFG)
        reference = fresh_copy(model)
        for name in ("mxfp4", "mxfp4+", "mxfp4"):
            qc = QuantRecipe.from_name(name).to_context()
            got = logits(model, qc)
            np.testing.assert_array_equal(got, logits(reference, qc))
        assert len(entries_for(model)) == N_WEIGHTS

    def test_same_name_subclass(self):
        class Halved(MXFormat):
            def quantize_dequantize(self, x, axis=-1):
                return 0.5 * super().quantize_dequantize(x, axis=axis)

        registered = MXFP4()
        impostor = Halved(registered.elem, name=registered.name)
        assert impostor.name == registered.name
        w = np.random.default_rng(1).standard_normal((64, 16))
        plain = QuantContext(weight=registered).quantize_weight(w)
        halved = QuantContext(weight=impostor).quantize_weight(w)
        np.testing.assert_array_equal(halved, 0.5 * plain)
        np.testing.assert_array_equal(QuantContext(weight=registered).quantize_weight(w), plain)

    def test_axis_and_bf16_base_are_part_of_the_key(self):
        fmt = MXFP4()
        w = np.random.default_rng(2).standard_normal((64, 64))
        for axis, bf16_base in ((0, True), (1, True), (0, False), (0, True)):
            got = QuantContext(weight=fmt, bf16_base=bf16_base).quantize_weight(w, axis=axis)
            want = QuantContext(weight=fmt, bf16_base=bf16_base).quantize_weight(w.copy(), axis=axis)
            np.testing.assert_array_equal(got, want)


class TestBounds:
    def test_one_slot_per_array_and_dies_with_model(self):
        model = TransformerLM(CFG)
        for _ in range(50):
            logits(model, QuantRecipe.from_name("mxfp4+").to_context())
        slots = entries_for(model)
        assert len(slots) == N_WEIGHTS
        assert {id(s[0]()) for s in slots} == {id(w) for w in weight_arrays(model)}
        refs = [s[0] for s in slots]
        del model, slots
        gc.collect()
        assert all(ref() is None for ref in refs)
        live = {id(slot[0]) for slot in quantize._WEIGHT_CACHE.values()}
        assert not live & {id(ref) for ref in refs}

    def test_permuted_temporaries_leave_no_entry(self):
        model = TransformerLM(CFG)
        perm = np.random.default_rng(3).permutation(CFG.dim)
        qc = QuantContext.named("mxfp4").with_(qk_permutations={0: perm, 1: perm})
        before = set(quantize._WEIGHT_CACHE)
        logits(model, qc)
        new = set(quantize._WEIGHT_CACHE) - before
        permuted = {id(lin.weight.data) for b in model.blocks for lin in (b.attn.wq, b.attn.wk)}
        assert new == {id(w) for w in weight_arrays(model)} - permuted

    def test_tied_head_view_bypasses_cache(self):
        model = TransformerLM(dataclasses.replace(CFG, tie_lm_head=True))
        before = set(quantize._WEIGHT_CACHE)
        logits(model, QuantContext.named("mxfp4"))
        new = set(quantize._WEIGHT_CACHE) - before
        assert new == {id(w) for w in weight_arrays(model)}
        assert model.embed.weight.data.flags.writeable
