"""Tests for the Generator: prompt phase, decode loop, scoring, perplexity."""

import numpy as np
import pytest

import gc
import tracemalloc
import weakref

from repro.core.config import KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.registry import make_policy
from repro.core.score import KeyformerScore
from repro.generation.generator import Generator
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.tensor_ops import log_softmax
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from tests.conftest import tiny_config
from tests.models.test_inference_state import assert_state_kept, model_state


class TestFullCacheEquivalence:
    """With the full-attention policy, incremental decoding must match running
    the model once over the whole (prompt + generated) sequence."""

    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_incremental_matches_full_forward(self, positional, rng):
        model = DecoderLM(tiny_config(positional), seed=3)
        prompt = rng.integers(0, 64, size=10)
        generator = Generator(model, make_policy("full"))
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=6))
        generated = result.sequences[0]

        # Greedy re-decoding with full forward passes must give the same tokens.
        sequence = list(prompt)
        for expected in generated:
            logits = model(np.asarray(sequence)[None, :])
            token = int(np.argmax(logits[0, -1]))
            assert token == expected
            sequence.append(token)

    def test_log_probs_match_full_forward(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=4)
        prompt = rng.integers(0, 64, size=8)
        generator = Generator(model, make_policy("full"))
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=4))
        generated = result.sequences[0]

        sequence = list(prompt)
        expected_logprob = 0.0
        for token in generated:
            logits = model(np.asarray(sequence)[None, :])
            expected_logprob += float(log_softmax(logits[0, -1])[token])
            sequence.append(token)
        np.testing.assert_allclose(result.log_probs[0], expected_logprob, atol=1e-8)


class TestBatchedRowsAreSoloRuns:
    """At float64 each row of a batched ``generate`` is that prompt generated
    alone, bit for bit.  The batch decodes through the one decode kernel,
    whose float64 projections are one BLAS gemv per row; a ``(B, d)`` GEMM
    rounds differently from ``(1, d)``, so this fails where a batch shares a
    GEMM.  Every row runs its own policy instance, so a Keyformer row draws
    the Gumbel noise it would draw alone."""

    @pytest.mark.parametrize("policy", ["full", "window", "h2o", "keyformer"])
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_rows_equal_solo_runs(self, positional, policy):
        config = ModelConfig(
            positional=positional, vocab_size=256, d_model=128, n_heads=8, d_ff=512,
            n_layers=2, max_seq_len=128,
        )
        model = DecoderLM(config, seed=0)
        prompts = np.random.default_rng(7).integers(0, config.vocab_size, size=(4, 40))
        gen_config = GenerationConfig(max_new_tokens=12)

        def generate(prompt):
            generator = Generator(model, make_policy(policy, kv_fraction=0.5))
            return generator.generate(prompt, gen_config)

        batch = generate(prompts)
        for b, prompt in enumerate(prompts):
            solo = generate(prompt)
            assert batch.sequences[b] == solo.sequences[0], b
            assert (
                np.float64(batch.log_probs[b]).tobytes()
                == np.float64(solo.log_probs[0]).tobytes()
            ), b


class TestGenerationBehaviour:
    def test_generates_requested_tokens(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("keyformer", kv_fraction=0.5))
        prompt = rng.integers(0, 64, size=20)
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=7))
        assert len(result.sequences[0]) == 7
        assert result.n_steps == 6  # final token is not fed back

    def test_single_token_budget(self, tiny_rope_model, rng):
        """max_new_tokens=1 emits exactly the argmax of the prompt logits,
        with its log-probability and zero decode steps."""
        prompt = rng.integers(0, 64, size=12)
        generator = Generator(tiny_rope_model, make_policy("full"))
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=1))
        logits = tiny_rope_model(np.asarray(prompt)[None, :])[0, -1]
        assert result.sequences[0] == [int(np.argmax(logits))]
        assert result.n_steps == 0
        expected = float(log_softmax(logits[None], axis=-1)[0, int(np.argmax(logits))])
        np.testing.assert_allclose(result.log_probs[0], expected, rtol=0, atol=0)

    def test_eos_as_first_token(self, tiny_rope_model, rng):
        """An immediate EOS is recorded (with its log-probability) and stops
        generation before any decode step."""
        prompt = rng.integers(0, 64, size=12)
        logits = tiny_rope_model(np.asarray(prompt)[None, :])[0, -1]
        eos = int(np.argmax(logits))
        generator = Generator(tiny_rope_model, make_policy("full"))
        result = generator.generate(
            prompt, GenerationConfig(max_new_tokens=10, eos_token_id=eos)
        )
        assert result.sequences[0] == [eos]
        assert result.n_steps == 0

    def test_eos_stops_early(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("full"))
        prompt = rng.integers(0, 64, size=12)
        probe = generator.generate(prompt, GenerationConfig(max_new_tokens=3))
        eos = probe.sequences[0][1]  # force EOS to be the second generated token
        result = generator.generate(
            prompt, GenerationConfig(max_new_tokens=10, eos_token_id=eos)
        )
        assert len(result.sequences[0]) <= 2
        assert result.sequences[0][-1] == eos

    def test_batch_generation(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("h2o", kv_fraction=0.5))
        prompts = rng.integers(0, 64, size=(3, 15))
        result = generator.generate(prompts, GenerationConfig(max_new_tokens=5))
        assert len(result.sequences) == 3
        assert all(len(seq) == 5 for seq in result.sequences)
        # Batched generation must match per-example generation.
        solo = Generator(tiny_rope_model, make_policy("h2o", kv_fraction=0.5))
        single = solo.generate(prompts[1], GenerationConfig(max_new_tokens=5))
        assert result.sequences[1] == single.sequences[0]

    def test_cache_stays_at_budget(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("keyformer", kv_fraction=0.5))
        prompt = rng.integers(0, 64, size=30)
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=8))
        assert result.cache_stats.peak_cache_length() <= 15 + 1

    def test_policy_description_attached(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("window", kv_fraction=0.3))
        result = generator.generate(
            rng.integers(0, 64, size=10), GenerationConfig(max_new_tokens=3)
        )
        assert result.policy["policy"] == "window"

    def test_rejects_empty_prompt(self, tiny_rope_model):
        generator = Generator(tiny_rope_model)
        with pytest.raises(ValueError):
            generator.generate(np.zeros((1, 0), dtype=np.int64))

    def test_positional_mode_changes_reduced_cache_output(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=5)
        prompt = rng.integers(0, 64, size=24)
        config = GenerationConfig(max_new_tokens=6)
        original = Generator(
            model, make_policy("keyformer", kv_fraction=0.4, positional_mode="original", seed=0)
        ).generate(prompt, config)
        renumbered = Generator(
            model, make_policy("keyformer", kv_fraction=0.4, positional_mode="new", seed=0)
        ).generate(prompt, config)
        # The two positional treatments are genuinely different computations;
        # they may coincidentally agree on tokens but the cache positions differ.
        assert (
            original.cache_stats.peak_cache_length()
            == renumbered.cache_stats.peak_cache_length()
        )


class TestScoring:
    def test_score_continuation_matches_forward(self, rng):
        model = DecoderLM(tiny_config("alibi"), seed=6)
        prompt = rng.integers(0, 64, size=9)
        continuation = rng.integers(0, 64, size=4)
        generator = Generator(model, make_policy("full"))
        score = generator.score_continuation(prompt, continuation)

        sequence = list(prompt)
        expected = 0.0
        for token in continuation:
            logits = model(np.asarray(sequence)[None, :])
            expected += float(log_softmax(logits[0, -1])[token])
            sequence.append(int(token))
        np.testing.assert_allclose(score, expected, atol=1e-8)

    def test_score_continuation_requires_tokens(self, tiny_rope_model):
        generator = Generator(tiny_rope_model)
        with pytest.raises(ValueError):
            generator.score_continuation([1, 2, 3], [])

    def test_score_continuation_rejects_a_prompt_batch(self, tiny_rope_model):
        generator = Generator(tiny_rope_model)
        with pytest.raises(ValueError, match="one prompt"):
            generator.score_continuation([[1, 2, 3], [4, 5, 6]], [7, 8])

    def test_reduced_cache_changes_scores(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=7)
        prompt = rng.integers(0, 64, size=40)
        continuation = rng.integers(0, 64, size=5)
        full = Generator(model, make_policy("full")).score_continuation(prompt, continuation)
        reduced = Generator(model, make_policy("window", kv_fraction=0.2)).score_continuation(
            prompt, continuation
        )
        assert full != pytest.approx(reduced)

    def test_perplexity_positive_and_finite(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("full"))
        ppl = generator.perplexity(rng.integers(0, 64, size=12))
        assert np.isfinite(ppl) and ppl > 0

    def test_perplexity_requires_two_tokens(self, tiny_rope_model):
        generator = Generator(tiny_rope_model)
        with pytest.raises(ValueError):
            generator.perplexity([5])

    def test_full_cache_perplexity_matches_one_forward_pass(self, tiny_model, rng):
        """With nothing evicted, scoring token by token through the decode path
        gives the perplexity of one teacher-forced forward pass."""
        ids = rng.integers(0, 64, size=14)
        log_probs = log_softmax(tiny_model.forward(ids[None])[0], axis=-1)
        nll = -np.mean(log_probs[np.arange(13), ids[1:]])
        generator = Generator(tiny_model, make_policy("full"))
        assert generator.perplexity(ids) == pytest.approx(np.exp(nll), rel=1e-9)

    @pytest.mark.parametrize(
        "policy, knobs",
        [
            ("full", {}),
            ("window", {"kv_fraction": 0.5}),
            ("h2o", {"kv_fraction": 0.5}),
            ("keyformer", {"kv_fraction": 0.5}),
        ],
        ids=["full", "window", "h2o", "keyformer"],
    )
    def test_uniform_logits_give_vocab_size(self, policy, knobs, rng):
        """A model whose logits are all zero is exactly as perplexed as the
        vocabulary is large, whatever the cache keeps."""
        model = DecoderLM(tiny_config("rope"), seed=0)
        model.token_embedding.params["weight"][...] = 0.0  # tied head: zero logits
        generator = Generator(model, make_policy(policy, **knobs))
        assert generator.perplexity(rng.integers(0, 64, size=20)) == pytest.approx(64, rel=1e-9)


def _keyformer():
    return KeyformerPolicy(KeyformerConfig(kv_fraction=0.5))


class TestNothingPinnedAfterPromptPass:
    """A finished prompt pass leaves no ``(B, H, T, T)`` tensor behind: the
    shared model holds nothing, and every per-block prompt scorer — its
    running sums and noise state — is released once the pass has closed it
    (none of it may live on the policy, which the engine snapshots)."""

    @pytest.fixture(autouse=True)
    def _track_scorers(self, monkeypatch):
        self.refs = []
        prompt_scorer = KeyformerScore.prompt_scorer

        def tracked(score, *args):
            scorer = prompt_scorer(score, *args)
            self.refs.append(weakref.ref(scorer))
            return scorer

        monkeypatch.setattr(KeyformerScore, "prompt_scorer", tracked)

    @pytest.fixture
    def model(self) -> DecoderLM:
        model = DecoderLM(tiny_config("rope"), seed=0)
        self.fresh = model_state(model)
        return model

    def _assert_model_holds_nothing(self, model: DecoderLM) -> None:
        """Every module attribute is still the object the fresh model held."""
        assert_state_kept(model, self.fresh)

    def _assert_released(self) -> None:
        assert self.refs, "the prompt pass scored nothing"
        gc.collect()
        assert all(ref() is None for ref in self.refs)

    def test_generator(self, model, rng):
        Generator(model, _keyformer()).generate(
            rng.integers(0, 64, size=20), GenerationConfig(max_new_tokens=3)
        )
        self._assert_model_holds_nothing(model)
        self._assert_released()

    def test_keyformer_engine_prefill(self, model, rng):
        engine = ContinuousBatchingEngine(model, policy_factory=_keyformer)
        engine.submit(rng.integers(0, 64, size=20), GenerationConfig(max_new_tokens=4))
        engine.step()  # admission: prompt pass, join, first token
        assert engine.n_running == 1
        self._assert_model_holds_nothing(model)
        self._assert_released()


class TestPromptPassMemory:
    """Keyformer scores the prompt inside the prompt pass, so its pass
    allocates what full attention's does, not ``n_layers × 2 × (B, H, T,
    T)`` tensors more."""

    @staticmethod
    def _peak_bytes(model, policy, ids) -> int:
        generator = Generator(model, policy)
        tracemalloc.start()
        try:
            generator._prompt_forward(ids, 16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_keyformer_peak_is_full_attentions(self):
        """tracemalloc keeps one peak over every domain; NumPy's data buffers
        (``np.lib.tracemalloc_domain``) dominate both passes at this size."""
        config = ModelConfig(
            vocab_size=256, d_model=128, n_layers=4, n_heads=8, d_ff=512,
            max_seq_len=512, compute_dtype="float32",
        )
        model = DecoderLM(config, seed=0)
        ids = np.random.default_rng(0).integers(0, 256, size=(1, 512))
        full = self._peak_bytes(model, make_policy("full"), ids)
        keyformer = self._peak_bytes(model, make_policy("keyformer", kv_fraction=0.5), ids)
        assert keyformer <= 1.15 * full, (keyformer, full)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_pass_retains_only_its_outputs(self, dtype):
        """Once the pass returns, the memory it still holds is its logits and
        KV: the model keeps no activation of the pass."""
        config = ModelConfig(
            vocab_size=256, d_model=128, n_layers=4, n_heads=8, d_ff=512,
            max_seq_len=512, compute_dtype=dtype,
        )
        model = DecoderLM(config, seed=0)
        ids = np.random.default_rng(0).integers(0, 256, size=(1, 512))
        tracemalloc.start()
        try:
            logits, kv = model.forward_suffix(ids)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        outputs = logits.nbytes + sum(k.nbytes + v.nbytes for k, v in kv)
        assert retained - outputs <= 64 * 1024, (retained, outputs)
