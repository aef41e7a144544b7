"""The Generator: prompt processing + token generation with KV-cache policies.

This is the inference engine the paper's evaluation runs on.  It mirrors the
two phases described in §2.1:

1. **Prompt processing** — the prompt is processed with full causal attention
   (one batched forward pass); keys/values of all prompt tokens are captured
   and handed to the :class:`~repro.kvcache.manager.CacheManager`, which lets
   the configured eviction policy reduce the cache from ``n`` to ``k`` tokens.
2. **Token generation** — tokens are generated auto-regressively; each step
   appends one KV entry per layer, attends over the reduced cache, and lets
   the policy evict back down to ``k`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.policies import EvictionPolicy, FullAttentionPolicy
from repro.kvcache.manager import CacheManager
from repro.kvcache.stats import CacheStats
from repro.models.config import GenerationConfig
from repro.models.tensor_ops import log_softmax
from repro.models.transformer import DecoderLM
from repro.generation.sampler import Sampler, make_sampler

__all__ = ["Generator", "GenerationResult"]


@dataclass
class GenerationResult:
    """Outcome of one generation call."""

    sequences: list[list[int]]
    prompt_lengths: list[int]
    cache_stats: CacheStats
    policy: dict = field(default_factory=dict)
    n_steps: int = 0
    log_probs: list[float] = field(default_factory=list)
    #: Draft/verify telemetry when the result came from speculative decoding
    #: (see :class:`repro.speculative.telemetry.SpeculationStats`); empty
    #: for vanilla generation.
    speculation: dict = field(default_factory=dict)

    @property
    def n_generated(self) -> int:
        return max((len(seq) for seq in self.sequences), default=0)


class Generator:
    """Autoregressive generator with a pluggable KV-cache eviction policy."""

    def __init__(
        self,
        model: DecoderLM,
        policy: EvictionPolicy | None = None,
        positional_mode: str | None = None,
        kv_dtype: str | None = None,
    ):
        self.model = model
        self.policy = policy or FullAttentionPolicy()
        self.positional_mode = positional_mode
        #: KV-page storage format: ``None`` keeps full-precision pages (the
        #: bit-exact default), ``"int8"`` stores quantized pages — see
        #: :mod:`repro.kvcache.quant` and ``docs/quantization.md``.
        self.kv_dtype = kv_dtype

    # ------------------------------------------------------------------
    # prompt phase
    # ------------------------------------------------------------------
    def _prompt_forward(
        self, prompt_ids: np.ndarray, max_new_tokens: int
    ) -> tuple[np.ndarray, CacheManager]:
        """Run the prompt through the model and build the reduced KV cache."""
        logits = self.model.forward(prompt_ids, store_attention=True)
        prompt_kv, prompt_attn, prompt_logits = self.model.take_prompt_tensors()

        config = self.model.config
        manager = CacheManager(
            self.policy,
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            d_head=config.d_head,
            positional_mode=self.positional_mode,
            dtype=config.np_dtype,
            rope_dims=config.rope_dims if config.positional == "rope" else 0,
            kv_dtype=self.kv_dtype,
        )
        manager.initialize_from_prompt(prompt_kv, prompt_attn, prompt_logits, max_new_tokens)
        return logits, manager

    @staticmethod
    def _as_batch(prompt_ids) -> np.ndarray:
        arr = np.asarray(prompt_ids, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise ValueError(f"prompt_ids must be 1-D or 2-D, got shape {arr.shape}")
        if arr.shape[1] == 0:
            raise ValueError("prompt must contain at least one token")
        return arr

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(
        self, prompt_ids, config: GenerationConfig | None = None, sampler: Sampler | None = None
    ) -> GenerationResult:
        """Generate ``config.max_new_tokens`` tokens after the prompt.

        ``prompt_ids`` may be a single sequence or a batch of equal-length
        sequences.  Generation is greedy unless ``config`` requests sampling
        or a custom ``sampler`` is supplied.  Beam search lives in
        :class:`repro.generation.beam.BeamSearch`.
        """
        config = config or GenerationConfig()
        prompt = self._as_batch(prompt_ids)
        batch_size = prompt.shape[0]
        sampler = sampler or make_sampler(config.temperature, config.top_k, config.seed)

        logits, manager = self._prompt_forward(prompt, config.max_new_tokens)
        next_logits = logits[:, -1, :]
        # The per-layer cache views are stateless facades; build them once and
        # reuse them every step instead of reallocating view objects per token.
        layer_views = manager.layer_views()

        sequences: list[list[int]] = [[] for _ in range(batch_size)]
        finished = np.zeros(batch_size, dtype=bool)
        total_logprob = np.zeros(batch_size)

        tokens = sampler(next_logits)
        for step in range(config.max_new_tokens):
            logprobs = log_softmax(next_logits, axis=-1)
            total_logprob += np.where(
                finished, 0.0, logprobs[np.arange(batch_size), tokens]
            )
            for b in range(batch_size):
                if not finished[b]:
                    sequences[b].append(int(tokens[b]))
            if config.eos_token_id is not None:
                finished |= tokens == config.eos_token_id
            if finished.all() or step == config.max_new_tokens - 1:
                break

            next_logits = self.model.decode_step(
                tokens, manager.current_position, layer_views
            )
            manager.advance()
            tokens = sampler(next_logits)

        return GenerationResult(
            sequences=sequences,
            prompt_lengths=[prompt.shape[1]] * batch_size,
            cache_stats=manager.stats,
            policy=self.policy.describe(),
            n_steps=manager.generation_step,
            log_probs=[float(lp) for lp in total_logprob],
        )

    # ------------------------------------------------------------------
    # continuation scoring (few-shot evaluation)
    # ------------------------------------------------------------------
    def score_continuation(self, prompt_ids, continuation_ids) -> float:
        """Log-likelihood of ``continuation_ids`` following ``prompt_ids``.

        The prompt is processed once (with the eviction policy applied exactly
        as during generation) and the continuation is teacher-forced through
        the incremental decode path, so KV-cache reduction affects the scores
        the same way it would affect generation — this is the protocol of the
        paper's few-shot evaluation (Table 2).
        """
        prompt = self._as_batch(prompt_ids)
        continuation = [int(t) for t in np.asarray(continuation_ids).reshape(-1)]
        if not continuation:
            raise ValueError("continuation must contain at least one token")

        logits, manager = self._prompt_forward(prompt, max_new_tokens=len(continuation))
        next_logits = logits[:, -1, :]
        layer_views = manager.layer_views()
        total = 0.0
        for i, token in enumerate(continuation):
            logprobs = log_softmax(next_logits, axis=-1)
            total += float(logprobs[0, token])
            if i == len(continuation) - 1:
                break
            next_logits = self.model.decode_step(
                np.asarray([token]), manager.current_position, layer_views
            )
            manager.advance()
        return total

    # ------------------------------------------------------------------
    def perplexity(self, token_ids) -> float:
        """Teacher-forced perplexity of a full sequence under the policy.

        The first token is treated as the prompt; every subsequent token is
        scored through the incremental decode path with cache eviction active.
        """
        ids = [int(t) for t in np.asarray(token_ids).reshape(-1)]
        if len(ids) < 2:
            raise ValueError("need at least two tokens to compute perplexity")
        logprob = self.score_continuation([ids[0]], ids[1:])
        return float(np.exp(-logprob / (len(ids) - 1)))
