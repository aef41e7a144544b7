"""The prompt pass scores eviction policies block by block: the fused score
slabs and the generator state must be the post-forward reference loop's
(``tests/reference/prompt_scoring.py``) over :func:`reference_forward`'s
whole-tensor masked logits and probabilities, bit for bit."""

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import H2OPolicy
from repro.core.score import KeyformerScore
from repro.models.attention import MultiHeadAttention
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config
from tests.models.test_attention import (
    REFERENCE_LENGTHS,
    REFERENCE_POSITIONAL,
    reference_forward,
)
from tests.reference.prompt_scoring import reference_h2o_prompt, reference_keyformer_prompt

MAX_NEW_TOKENS = 8


def grid_policies() -> list:
    """Keyformer over noise × resample × prompt mode × shared score, and H2O."""
    policies = [
        KeyformerPolicy(
            KeyformerConfig(
                kv_fraction=0.5,
                seed=7,
                noise=noise,
                noise_resample=resample,
                prompt_mode=mode,
                shared_score=shared,
            )
        )
        for noise in ("gumbel", "gaussian", "constant", "none")
        for resample in ("per-step", "fixed")
        for mode in ("all", "last")
        for shared in (False, True)
    ]
    policies += [
        H2OPolicy(CachePolicyConfig(kv_fraction=0.5, prompt_mode=mode)) for mode in ("all", "last")
    ]
    return policies


class FanOut:
    """One row's scorer that feeds every policy of ``policies`` each block
    in turn, so that one prompt pass scores the whole grid."""

    def __init__(self, policies: list):
        self.policies = policies

    def prompt_scorer(self, layer_idx: int, n_rows: int, width: int):
        scorers = [policy.prompt_scorer(layer_idx, n_rows, width) for policy in self.policies]
        scorers = [scorer for scorer in scorers if scorer is not None]

        def score(start, logits, probs):
            for scorer in scorers:
                scorer(start, logits, probs)

        return score if scorers else None


@pytest.mark.parametrize("t", REFERENCE_LENGTHS)
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", sorted(REFERENCE_POSITIONAL))
def test_fused_scores_are_the_reference(family, dtype, batch, t, monkeypatch):
    positional, extra = REFERENCE_POSITIONAL[family]
    config = tiny_config(positional, n_heads=2, max_seq_len=640, compute_dtype=dtype, **extra)
    model = DecoderLM(config, seed=0)
    ids = np.random.default_rng(t).integers(0, config.vocab_size, size=(batch, t))
    geometry = (config.n_layers, config.n_heads, 1, t, MAX_NEW_TOKENS)

    rows = [grid_policies() for _ in range(batch)]
    for policy in (p for row in rows for p in row):
        policy.setup(*geometry)
    model.forward_suffix(ids, scorers=[FanOut(row) for row in rows])

    monkeypatch.setattr(MultiHeadAttention, "forward", reference_forward)
    model.forward(ids, store_attention=True)
    layers = [(block.attn.last_attention, block.attn.last_scores) for block in model.blocks]
    for b, row in enumerate(rows):
        for fused, reference in zip(row, grid_policies()):
            reference.setup(*geometry)
            score = reference.score
            for layer, (attention, scores) in enumerate(layers):
                if isinstance(score, KeyformerScore):
                    contribution = reference_keyformer_prompt(score, scores[b : b + 1])
                else:
                    contribution = reference_h2o_prompt(score, attention[b : b + 1])
                score._add(score._layers(layer), contribution[None])
            for layer in range(config.n_layers):
                got, want = fused.score.get(layer), score.get(layer)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (b, fused.describe(), layer)
            if isinstance(score, KeyformerScore):
                assert fused.score.rng.bit_generator.state == score.rng.bit_generator.state
