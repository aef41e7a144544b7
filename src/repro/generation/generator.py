"""The Generator: prompt processing + token generation with KV-cache policies.

This is the inference engine the paper's evaluation runs on.  It mirrors the
two phases described in §2.1:

1. **Prompt processing** — the prompt is processed with full causal attention
   (one batched :meth:`~repro.models.transformer.DecoderLM.forward_suffix`
   pass, which scores each row's instance of the configured eviction policy
   block by block); keys/values of all prompt tokens are returned and handed
   to the :class:`~repro.kvcache.manager.CacheManager`, which seeds one row
   per sequence in each layer's
   :class:`~repro.kvcache.batch.BatchedLayerKVCache` and lets each row's
   policy reduce its cache from ``n`` to ``k`` tokens.
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
from repro.generation.sampler import GreedySampler, Sampler

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


class _ForcedTokens(Sampler):
    """Teacher forcing: the ``i``-th call returns the ``i``-th token, whatever
    the logits."""

    def __init__(self, tokens: list[int]):
        self._tokens = iter(tokens)

    def __call__(self, logits: np.ndarray) -> np.ndarray:
        return np.asarray([next(self._tokens)])


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
        """Run the prompt through the model, scoring it into each row's
        policy, and build the reduced KV cache."""
        config = self.model.config
        manager = CacheManager(
            self.policy,
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            d_head=config.d_head,
            positional_mode=self.positional_mode,
            dtype=config.np_dtype,
            rope_dims=config.rope_dims,
            kv_dtype=self.kv_dtype,
        )
        policies = manager.setup_rows(*prompt_ids.shape, max_new_tokens)
        logits, prompt_kv = self.model.forward_suffix(
            prompt_ids, scorers=policies
        )
        manager.initialize_from_prompt(prompt_kv, max_new_tokens)
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
        sequences.  Generation is greedy unless a custom ``sampler`` is
        supplied.  Beam search lives in
        :class:`repro.generation.beam.BeamSearch`.
        """
        config = config or GenerationConfig()
        prompt = self._as_batch(prompt_ids)
        batch_size = prompt.shape[0]
        sampler = sampler or GreedySampler()

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
                tokens, manager.query_positions(), layer_views
            )
            manager.advance()
            tokens = sampler(next_logits)

        # The rows decode in lockstep: row 0's counters stand for the batch.
        stats = manager.stats[0]
        stats.batch_size = batch_size
        return GenerationResult(
            sequences=sequences,
            prompt_lengths=[prompt.shape[1]] * batch_size,
            cache_stats=stats,
            policy=self.policy.describe(),
            n_steps=manager.generation_step[0],
            log_probs=[float(lp) for lp in total_logprob],
        )

    # ------------------------------------------------------------------
    # continuation scoring (few-shot evaluation)
    # ------------------------------------------------------------------
    def score_continuation(self, prompt_ids, continuation_ids) -> float:
        """Log-likelihood of ``continuation_ids`` following ``prompt_ids``.

        The continuation is teacher-forced through :meth:`generate` by a
        sampler that returns its tokens in turn, so the prompt's eviction and
        every decode step's run exactly as during generation — this is the
        protocol of the paper's few-shot evaluation (Table 2).  Scores one
        sequence: a prompt batch of several rows is rejected.
        """
        prompt = self._as_batch(prompt_ids)
        if prompt.shape[0] != 1:
            raise ValueError(f"score_continuation scores one prompt, got {prompt.shape[0]}")
        continuation = [int(t) for t in np.asarray(continuation_ids).reshape(-1)]
        if not continuation:
            raise ValueError("continuation must contain at least one token")
        result = self.generate(
            prompt,
            GenerationConfig(max_new_tokens=len(continuation)),
            sampler=_ForcedTokens(continuation),
        )
        return result.log_probs[0]

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
