"""Decoder-only transformer language model with quantized-inference hooks.

This is the scaled-down stand-in for the paper's LLMs: RMSNorm + causal
attention + SwiGLU blocks, a (optionally tied) LM head, and a
:class:`~repro.nn.quantize.QuantContext` threaded through every matmul —
including the LM head, which the paper explicitly quantizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Embedding, Linear, Module, RMSNorm, TransformerBlock
from .quantize import QuantContext, as_context
from .tensor import Tensor, no_grad

__all__ = ["TransformerConfig", "TransformerLM"]


@dataclass
class TransformerConfig:
    vocab_size: int = 256
    dim: int = 96
    n_layers: int = 2
    n_heads: int = 4
    hidden: int = 256
    max_seq: int = 256
    tie_lm_head: bool = False
    seed: int = 0
    name: str = "tiny"
    # --- activation-outlier profile -----------------------------------
    # Positional phases concentrated on a few high-magnitude channels:
    # entries are (channel, period, "sin"|"cos"). Attention must read these
    # channels *precisely* to locate recent tokens, which reproduces the
    # real-LLM phenomenon that block-max quantization error — not just
    # NBM crushing — drives model degradation. pe_scale = 0 falls back to
    # standard spread-out sinusoidal positions (no outliers).
    pe_channels: tuple = field(default_factory=tuple)
    pe_scale: float = 0.0
    # Heavy-tailed fixed per-channel gains after every norm (lognormal,
    # capped), giving activations the wide within-block dynamic range of
    # real LLM tensors. sigma = 0 disables.
    channel_gain_sigma: float = 0.0
    channel_gain_cap: float = 6.0
    gain_seed: int = 42

    def fixed_channel_gains(self) -> np.ndarray:
        """The fixed post-norm per-channel amplifier vector."""
        if self.channel_gain_sigma <= 0:
            return np.ones(self.dim)
        rng = np.random.default_rng(self.gain_seed)
        tails = np.exp2(np.abs(rng.normal(0.0, self.channel_gain_sigma, self.dim)))
        return np.minimum(tails, self.channel_gain_cap)


class TransformerLM(Module):
    def __init__(self, config: TransformerConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        gains = config.fixed_channel_gains()
        self.embed = Embedding(rng, config.vocab_size, config.dim)
        self.blocks = [
            TransformerBlock(
                rng, config.dim, config.n_heads, config.hidden, fixed_scale=gains
            )
            for _ in range(config.n_layers)
        ]
        self.final_norm = RMSNorm(config.dim, fixed_scale=gains)
        if config.tie_lm_head:
            self.lm_head = None
        else:
            self.lm_head = Linear(rng, config.dim, config.vocab_size)

    # ------------------------------------------------------------------
    def __call__(self, tokens: np.ndarray, qc: QuantContext | None = None) -> Tensor:
        """Forward pass: (batch, seq) int tokens -> (batch, seq, vocab) logits.

        ``qc`` may be a :class:`QuantContext`, a
        :class:`repro.serve.QuantRecipe`, or a recipe name.
        """
        qc = as_context(qc)
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        x = self.embed(tokens)
        x = x + self._positional(tokens.shape[1])
        for i, block in enumerate(self.blocks):
            # Mixed-precision recipes override individual layers' formats.
            block_qc = (
                qc if qc is None else qc.layer_context(i, len(self.blocks))
            )
            x = block(x, block_qc, layer_index=i)
        x = self.final_norm(x)
        head_qc = qc if qc is None else qc.head_context()
        if self.lm_head is not None:
            return self.lm_head(x, head_qc)
        # Tied head: reuse embedding weights; quantize both operands of the
        # dot product as the paper does for the LM head, or neither when
        # the head is excluded, exactly as the untied head does.
        w = self.embed.weight.swapaxes(0, 1)
        if head_qc is not None:
            x = x.apply_ste(lambda a: qc.quantize_act(a, axis=-1))
            w = w.apply_ste(lambda a: qc.quantize_head_weight(a, axis=0))
        return x @ w

    def _positional(self, seq: int) -> Tensor:
        """Fixed positional encoding (kept out of the parameter set).

        With ``pe_scale > 0`` the positions live on a few dedicated
        high-magnitude channels (the outlier mechanism — see
        TransformerConfig); otherwise standard spread sinusoids.
        """
        cfg = self.config
        dim = cfg.dim
        pos = np.arange(seq)[:, None]
        if cfg.pe_scale > 0 and cfg.pe_channels:
            enc = np.zeros((seq, dim))
            t = np.arange(seq)
            for channel, period, kind in cfg.pe_channels:
                phase = 2.0 * np.pi * t / period
                wave = np.sin(phase) if kind == "sin" else np.cos(phase)
                enc[:, channel] = cfg.pe_scale * wave
            return Tensor(enc[None, :, :])
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
        return Tensor(enc[None, :, :])

    # ------------------------------------------------------------------
    def loss(self, tokens: np.ndarray, qc: QuantContext | None = None) -> Tensor:
        """Next-token cross-entropy over a (batch, seq) batch."""
        from .functional import cross_entropy

        tokens = np.asarray(tokens)
        logits = self(tokens[:, :-1], qc)
        return cross_entropy(logits, tokens[:, 1:])

    def perplexity(self, tokens: np.ndarray, qc: QuantContext | None = None) -> float:
        """exp(mean NLL) over the token stream, without building a graph."""
        with no_grad():
            return float(np.exp(self.loss(tokens, qc).item()))

    def sequence_logprob(
        self,
        prefix: np.ndarray,
        continuation: np.ndarray,
        qc: QuantContext | None = None,
    ) -> float:
        """Log-probability of ``continuation`` given ``prefix`` (1-D arrays)."""
        from .functional import log_softmax

        seq = np.concatenate([np.asarray(prefix), np.asarray(continuation)])
        with no_grad():
            logits = self(seq[None, :-1], qc)
            logp = log_softmax(logits, axis=-1).data[0]
        start = len(prefix) - 1
        targets = seq[start + 1 :]
        rows = np.arange(start, start + len(targets))
        return float(logp[rows, targets].sum())

    def generate(
        self, prefix: np.ndarray, n_tokens: int, qc: QuantContext | None = None,
        temperature: float = 0.0, seed: int = 0,
    ) -> np.ndarray:
        """Greedy (or sampled) generation — exercises the decode path."""
        rng = np.random.default_rng(seed)
        seq = list(np.asarray(prefix))
        with no_grad():
            for _ in range(n_tokens):
                window = np.array(seq[-self.config.max_seq :])
                logits = self(window[None, :], qc).data[0, -1]
                if temperature <= 0:
                    seq.append(int(np.argmax(logits)))
                else:
                    p = np.exp((logits - logits.max()) / temperature)
                    p /= p.sum()
                    seq.append(int(rng.choice(len(p), p=p)))
        return np.array(seq[len(prefix) :])
