"""Microbenchmarks of the implementation's hot components.

These do not correspond to a paper figure; they quantify the cost of the
building blocks (decode step, cache gather, policy selection, Gumbel-softmax
score update, beam-search step) so regressions in the library itself are
visible alongside the experiment-regeneration benchmarks.
"""

import numpy as np
import pytest

from repro.core.config import KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import H2OPolicy, mixed_topk_selection
from repro.core.registry import make_policy
from repro.generation.generator import Generator
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.tensor_ops import softmax
from repro.models.transformer import DecoderLM

from run_bench import solo_rows


@pytest.fixture(scope="module")
def micro_model():
    config = ModelConfig(
        vocab_size=256, d_model=64, n_layers=4, n_heads=8, d_ff=256, max_seq_len=1024,
        positional="rope",
    )
    return DecoderLM(config, seed=0)


@pytest.fixture(scope="module")
def micro_model_1k():
    """1k-context model at the float32 inference dtype (docs/performance.md)."""
    config = ModelConfig(
        vocab_size=256, d_model=64, n_layers=4, n_heads=8, d_ff=256, max_seq_len=2176,
        positional="rope", compute_dtype="float32",
    )
    return DecoderLM(config, seed=0)


def _bench_decode_1k(benchmark, model, policy_name, n_tokens=32):
    """Benchmark the token-generation phase at 1k context.

    The prompt phase runs in (untimed) per-round setup; the timed region is
    the incremental decode loop — the hot path the slab cache, rotated-key
    cache and compute dtype target.
    """
    prompt = np.random.default_rng(1).integers(0, 256, size=(1, 1024))

    def setup():
        policy = (
            make_policy("keyformer", kv_fraction=0.5)
            if policy_name == "keyformer"
            else make_policy(policy_name)
        )
        generator = Generator(model, policy)
        logits, manager = generator._prompt_forward(prompt, n_tokens)
        return (manager, logits), {}

    def decode(manager, logits):
        views = manager.layer_views()
        tokens = np.argmax(logits, axis=-1)
        for _ in range(n_tokens):
            step_logits = model.decode_step(tokens, manager.query_positions(), views)
            manager.advance()
            tokens = np.argmax(step_logits, axis=-1)

    benchmark.pedantic(decode, setup=setup, rounds=3, iterations=1)


def test_micro_generation_with_keyformer_1k(benchmark, micro_model_1k):
    _bench_decode_1k(benchmark, micro_model_1k, "keyformer")


def test_micro_generation_full_attention_1k(benchmark, micro_model_1k):
    _bench_decode_1k(benchmark, micro_model_1k, "full")


def test_micro_prompt_forward(benchmark, micro_model):
    ids = np.random.default_rng(0).integers(0, 256, size=(1, 256))
    benchmark(micro_model.forward, ids)


def test_micro_generation_with_keyformer(benchmark, micro_model):
    prompt = np.random.default_rng(1).integers(0, 256, size=128)
    generator = Generator(micro_model, make_policy("keyformer", kv_fraction=0.5))
    config = GenerationConfig(max_new_tokens=16)
    benchmark(generator.generate, prompt, config)


def test_micro_generation_full_attention(benchmark, micro_model):
    prompt = np.random.default_rng(1).integers(0, 256, size=128)
    generator = Generator(micro_model, make_policy("full"))
    config = GenerationConfig(max_new_tokens=16)
    benchmark(generator.generate, prompt, config)


def test_micro_cache_gather(benchmark):
    rng = np.random.default_rng(2)
    keys = rng.normal(size=(4, 8, 1024, 64))
    indices = np.sort(rng.choice(1024, size=(4, 8, 512), replace=True), axis=-1)

    def gather():
        fresh = solo_rows(keys)
        for row in range(len(fresh.tables)):
            fresh.gather_row(row, indices[row])

    benchmark(gather)


def test_micro_mixed_topk_selection(benchmark):
    scores = np.random.default_rng(3).normal(size=(4, 32, 2048))
    benchmark(mixed_topk_selection, scores, 1024, 256)


def test_micro_keyformer_score_update(benchmark):
    rng = np.random.default_rng(4)
    policy = KeyformerPolicy(KeyformerConfig(kv_fraction=0.5))
    policy.setup(n_layers=1, n_heads=32, batch_size=1, prompt_len=2048, max_new_tokens=64)
    logits = rng.normal(size=(1, 32, 1025))
    probs = softmax(logits, axis=-1)
    positions = np.broadcast_to(np.arange(1025), (1, 32, 1025))
    benchmark(policy.step_selection, 0, logits, probs, positions, 1)


def test_micro_h2o_score_update(benchmark):
    rng = np.random.default_rng(5)
    policy = H2OPolicy()
    policy.setup(n_layers=1, n_heads=32, batch_size=1, prompt_len=2048, max_new_tokens=64)
    logits = rng.normal(size=(1, 32, 1025))
    probs = softmax(logits, axis=-1)
    benchmark(policy.step_selection, 0, logits, probs, None, 1)
