"""Golden pin: greedy speculative decoding reproduces vanilla greedy decode.

Speculative decoding's whole contract is that the drafter can only change
*how fast* tokens are produced, never *which* tokens: greedy verification
recomputes the target's own logits bit-exactly, so the output must equal the
full-attention golden fixtures pinned against the seed implementation —
token for token and log-probability for log-probability — whatever the
n-gram drafter proposes, at every draft length (one draft per round, the
default four, and a block longer than most accepted runs).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from golden_cases import FIXTURE_PATH, MAX_NEW_TOKENS, PROMPT_LEN, VOCAB, _model_config
from repro.models.config import GenerationConfig, ModelConfig
from repro.speculative import SpeculationConfig, SpeculativeGenerator

with FIXTURE_PATH.open() as fh:
    GOLDEN = json.load(fh)

def _case_model():
    from repro.models.transformer import DecoderLM

    return DecoderLM(ModelConfig(**_model_config("rope")), seed=0)


@pytest.mark.parametrize("k", [1, 4, 8])
def test_speculative_matches_full_attention_golden(k):
    model = _case_model()
    generator = SpeculativeGenerator(model, SpeculationConfig(k=k))
    prompt = (
        np.random.default_rng(7).integers(0, VOCAB, size=(1, PROMPT_LEN)).astype(np.int64)
    )
    result = generator.generate(prompt[0], GenerationConfig(max_new_tokens=MAX_NEW_TOKENS))
    golden = GOLDEN["full_rope"]
    assert [[int(t) for t in seq] for seq in result.sequences] == golden["sequences"]
    np.testing.assert_array_equal(
        np.asarray(result.log_probs), np.asarray(golden["log_probs"])
    )
    # Telemetry sanity: every token after the first (which comes from the
    # prompt logits, before any round) was committed by a verify round.
    assert result.speculation["committed"] == len(result.sequences[0]) - 1
    assert result.speculation["rounds"] >= 1
