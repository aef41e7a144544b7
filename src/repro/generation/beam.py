"""Beam search over the incremental decode path with KV-cache eviction.

The paper uses a fixed beam size of 4 in its accuracy evaluation and notes
that Keyformer discards tokens "across heads, layers and beams"; here every
beam carries its own reduced KV cache and its own policy instance (the beam
dimension is mapped onto the rows of the caches) and beams are re-ordered
after every step, which moves page tables and policies alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.policies import EvictionPolicy, FullAttentionPolicy
from repro.models.config import GenerationConfig
from repro.models.tensor_ops import log_softmax
from repro.models.transformer import DecoderLM
from repro.generation.generator import Generator

__all__ = ["BeamSearch", "BeamSearchResult", "BeamHypothesis"]


@dataclass(order=True)
class BeamHypothesis:
    """A finished (or best-effort) hypothesis with its length-normalized score."""

    normalized_score: float
    tokens: list[int] = field(compare=False)
    raw_score: float = field(default=0.0, compare=False)


@dataclass
class BeamSearchResult:
    """Outcome of a beam-search decode."""

    best: BeamHypothesis
    hypotheses: list[BeamHypothesis]
    n_steps: int
    policy: dict = field(default_factory=dict)

    @property
    def tokens(self) -> list[int]:
        return self.best.tokens


class BeamSearch:
    """Length-penalized beam search with per-beam KV caches."""

    def __init__(
        self,
        model: DecoderLM,
        policy: EvictionPolicy | None = None,
        positional_mode: str | None = None,
    ):
        self.model = model
        self.policy = policy or FullAttentionPolicy()
        self.generator = Generator(model, self.policy, positional_mode=positional_mode)

    # ------------------------------------------------------------------
    def _normalize(self, score: float, length: int, penalty: float) -> float:
        return score / max(length, 1) ** penalty

    def search(self, prompt_ids, config: GenerationConfig | None = None) -> BeamSearchResult:
        """Run beam search for a single prompt sequence."""
        config = config or GenerationConfig(beam_size=4)
        beam_size = config.beam_size
        prompt = np.asarray(prompt_ids, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")

        # Replicate the prompt across beams so each beam owns a cache row.
        batch_prompt = np.tile(prompt[None, :], (beam_size, 1))
        logits, manager = self.generator._prompt_forward(batch_prompt, config.max_new_tokens)

        logprobs = log_softmax(logits[0:1], axis=-1)[0]
        top = np.argsort(-logprobs)[:beam_size]
        beam_tokens: list[list[int]] = [[int(t)] for t in top]
        beam_scores = logprobs[top].astype(np.float64)
        beam_alive = np.ones(beam_size, dtype=bool)
        finished: list[BeamHypothesis] = []

        if config.eos_token_id is not None:
            for i, t in enumerate(top):
                if int(t) == config.eos_token_id:
                    finished.append(
                        BeamHypothesis(
                            self._normalize(float(beam_scores[i]), 1, config.length_penalty),
                            [int(t)],
                            float(beam_scores[i]),
                        )
                    )
                    beam_alive[i] = False

        n_steps = 0
        layer_views = manager.layer_views()
        for step in range(1, config.max_new_tokens):
            if not beam_alive.any():
                break
            current = np.asarray([seq[-1] for seq in beam_tokens], dtype=np.int64)
            next_logits = self.model.decode_step(
                current, manager.query_positions(), layer_views
            )
            manager.advance()
            n_steps += 1

            logprobs = log_softmax(next_logits, axis=-1)
            vocab = logprobs.shape[-1]
            expanded = beam_scores[:, None] + logprobs
            # Dead beams must not spawn candidates.
            expanded[~beam_alive, :] = -np.inf

            flat = expanded.reshape(-1)
            top_flat = np.argsort(-flat)[: 2 * beam_size]
            parents = top_flat // vocab
            tokens = top_flat % vocab

            new_tokens: list[list[int]] = []
            new_scores: list[float] = []
            new_parents: list[int] = []
            for parent, token, flat_idx in zip(parents, tokens, top_flat):
                score = float(flat[flat_idx])
                if not np.isfinite(score):
                    continue
                candidate = beam_tokens[parent] + [int(token)]
                if config.eos_token_id is not None and int(token) == config.eos_token_id:
                    finished.append(
                        BeamHypothesis(
                            self._normalize(score, len(candidate), config.length_penalty),
                            candidate,
                            score,
                        )
                    )
                    continue
                new_tokens.append(candidate)
                new_scores.append(score)
                new_parents.append(int(parent))
                if len(new_tokens) == beam_size:
                    break

            if not new_tokens:
                break

            # Pad with repeats of the best beam if eos consumed too many slots.
            while len(new_tokens) < beam_size:
                new_tokens.append(list(new_tokens[0]))
                new_scores.append(new_scores[0])
                new_parents.append(new_parents[0])

            manager.reorder(np.asarray(new_parents, dtype=np.int64))
            beam_tokens = new_tokens
            beam_scores = np.asarray(new_scores, dtype=np.float64)
            beam_alive = np.ones(beam_size, dtype=bool)

        for seq, score in zip(beam_tokens, beam_scores):
            finished.append(
                BeamHypothesis(
                    self._normalize(float(score), len(seq), config.length_penalty),
                    seq,
                    float(score),
                )
            )

        finished.sort(reverse=True)
        return BeamSearchResult(
            best=finished[0],
            hypotheses=finished,
            n_steps=n_steps,
            policy=self.policy.describe(),
        )
