"""Synthetic language corpora standing in for WikiText-2 and C4.

A corpus is a first-order Markov chain over a small vocabulary with
Zipfian state popularity and sparse per-state successor sets — enough
structure for a small transformer to learn real next-token statistics, so
that perplexity (and its degradation under quantization) is meaningful.

Two named profiles mirror the paper's two datasets: ``wiki2-sim`` and
``c4-sim`` differ in seed, vocabulary mixing, and branching factor, so they
give correlated-but-distinct perplexities, like WikiText-2 vs C4 do.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = ["CorpusSpec", "Corpus", "make_corpus", "DATASETS"]


@dataclass(frozen=True)
class CorpusSpec:
    name: str
    vocab_size: int = 128
    branching: int = 8  # likely successors per state
    concentration: float = 0.4  # Dirichlet concentration over successors
    zipf_a: float = 1.2  # popularity skew of successor states
    seed: int = 1234
    train_tokens: int = 60_000
    val_tokens: int = 12_000
    # Blend this chain's transitions with another named dataset's:
    # (name, weight-of-other). Used to make c4-sim a *related* distribution
    # to wiki2-sim, the way C4 and WikiText-2 share English — models
    # trained on one transfer to the other with moderately higher
    # perplexity instead of collapsing.
    blend: tuple | None = None


@dataclass
class Corpus:
    spec: CorpusSpec
    transitions: np.ndarray  # (V, V) row-stochastic
    train: np.ndarray  # (train_tokens,) int64
    val: np.ndarray  # (val_tokens,) int64

    def entropy_rate(self) -> float:
        """Per-token entropy of the generating chain (nats): the perplexity
        floor any model can reach is exp(entropy_rate)."""
        pi = _stationary(self.transitions)
        p = self.transitions
        with np.errstate(divide="ignore", invalid="ignore"):
            h_rows = -np.nansum(np.where(p > 0, p * np.log(p), 0.0), axis=1)
        return float(pi @ h_rows)

    def val_batch(self, batch: int, seq_len: int, offset: int = 0) -> np.ndarray:
        """Deterministic evaluation batch of shape (batch, seq_len + 1)."""
        need = batch * (seq_len + 1)
        start = offset % max(1, len(self.val) - need)
        chunk = self.val[start : start + need]
        return chunk.reshape(batch, seq_len + 1)


def _stationary(p: np.ndarray) -> np.ndarray:
    """Stationary distribution via power iteration."""
    v = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(200):
        v = v @ p
        v /= v.sum()
    return v


def _build_transitions(spec: CorpusSpec, rng: np.random.Generator) -> np.ndarray:
    vocab = spec.vocab_size
    # Zipfian popularity: low token ids are globally more likely successors.
    popularity = 1.0 / np.arange(1, vocab + 1) ** spec.zipf_a
    popularity /= popularity.sum()
    p = np.zeros((vocab, vocab))
    for state in range(vocab):
        succ = rng.choice(vocab, size=spec.branching, replace=False, p=popularity)
        weights = rng.dirichlet(np.full(spec.branching, spec.concentration))
        p[state, succ] += weights
    # Small smoothing so every transition has nonzero probability (keeps
    # cross-entropy finite for any model output).
    p = 0.98 * p + 0.02 / vocab
    return p / p.sum(axis=1, keepdims=True)


def _generate(p: np.ndarray, n: int, rng: np.random.Generator, start: int = 0) -> np.ndarray:
    # bisect_left on Python lists is np.searchsorted(side="left") without
    # its per-call overhead: the chain is sequential, one lookup per token.
    cdf = np.cumsum(p, axis=1).tolist()
    out = []
    state = start
    for u in rng.random(n).tolist():
        state = bisect_left(cdf[state], u)
        out.append(state)
    return np.array(out, dtype=np.int64)


def make_corpus(spec: CorpusSpec) -> Corpus:
    rng = np.random.default_rng(spec.seed)
    p = _build_transitions(spec, rng)
    if spec.blend is not None:
        other_name, weight = spec.blend
        other = _build_transitions(DATASETS[other_name], np.random.default_rng(DATASETS[other_name].seed))
        p = (1.0 - weight) * other + weight * p
        p = p / p.sum(axis=1, keepdims=True)
    train = _generate(p, spec.train_tokens, rng)
    val = _generate(p, spec.val_tokens, rng, start=int(train[-1]))
    return Corpus(spec=spec, transitions=p, train=train, val=val)


#: Named dataset profiles standing in for the paper's two corpora.
DATASETS: dict[str, CorpusSpec] = {
    "wiki2-sim": CorpusSpec(name="wiki2-sim", seed=1234, branching=8, zipf_a=1.2),
    "c4-sim": CorpusSpec(
        name="c4-sim", seed=987, branching=12, zipf_a=1.05, concentration=0.6,
        blend=("wiki2-sim", 0.25),
    ),
}
