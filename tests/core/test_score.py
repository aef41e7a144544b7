"""Tests for the accumulated-attention and Keyformer score functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.score import AccumulatedAttentionScore, KeyformerScore, entropy
from repro.models.tensor_ops import softmax


def seed_era_sample(noise, size, rng):
    """``noise.sample(size, rng)`` as the seed wrote it."""
    if noise.name == "gumbel":
        u = rng.uniform(low=1e-12, high=1.0 - 1e-12, size=size)
        return noise.mu_loc - noise.beta * np.log(-np.log(u))
    if noise.name == "gaussian":
        return rng.normal(noise.mu, noise.sigma, size=size)
    return np.full(size, noise.value, dtype=np.float64)


def make_prompt_tensors(rng, batch=1, heads=2, t=6):
    logits = rng.normal(size=(batch, heads, t, t))
    mask = np.triu(np.ones((t, t), dtype=bool), k=1)
    logits = np.where(mask[None, None], -np.inf, logits)
    probs = softmax(logits, axis=-1)
    return logits, probs


class TestEntropy:
    def test_uniform_has_max_entropy(self):
        uniform = np.full(8, 1 / 8)
        peaked = np.zeros(8)
        peaked[0] = 1.0
        assert entropy(uniform) > entropy(peaked)
        np.testing.assert_allclose(entropy(uniform), np.log(8), atol=1e-12)

    def test_zero_entries_handled(self):
        p = np.array([0.5, 0.5, 0.0])
        assert np.isfinite(entropy(p))


class TestAccumulatedAttentionScore:
    def test_prompt_all_mode_is_column_sum(self, rng):
        logits, probs = make_prompt_tensors(rng)
        score = AccumulatedAttentionScore(prompt_mode="all")
        out = score.init_from_prompt(0, probs, logits)
        np.testing.assert_allclose(out, probs.sum(axis=-2), atol=1e-12)

    def test_prompt_last_mode_is_last_row(self, rng):
        logits, probs = make_prompt_tensors(rng)
        score = AccumulatedAttentionScore(prompt_mode="last")
        out = score.init_from_prompt(0, probs, logits)
        np.testing.assert_allclose(out, probs[..., -1, :], atol=1e-12)

    def test_update_accumulates_and_grows(self, rng):
        score = AccumulatedAttentionScore()
        first = np.abs(rng.normal(size=(1, 2, 4)))
        score.update(0, first, first)
        second = np.abs(rng.normal(size=(1, 2, 5)))  # one new cache slot
        out = score.update(0, second, second)
        np.testing.assert_allclose(out[..., :4], first + second[..., :4], atol=1e-12)
        np.testing.assert_allclose(out[..., 4], second[..., 4], atol=1e-12)

    def test_shrinking_contribution_raises(self, rng):
        score = AccumulatedAttentionScore()
        score.update(0, np.ones((1, 1, 5)), np.ones((1, 1, 5)))
        with pytest.raises(ValueError):
            score.update(0, np.ones((1, 1, 3)), np.ones((1, 1, 3)))

    def test_damping_decays_history(self):
        score = AccumulatedAttentionScore(damping=0.5)
        ones = np.ones((1, 1, 3))
        score.update(0, ones, ones)
        out = score.update(0, ones, ones)
        np.testing.assert_allclose(out, 0.5 * 1 + 1)

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            AccumulatedAttentionScore(damping=0.0)

    def test_per_layer_isolation(self, rng):
        score = AccumulatedAttentionScore(shared=False)
        a = np.abs(rng.normal(size=(1, 1, 3)))
        b = np.abs(rng.normal(size=(1, 1, 3)))
        score.update(0, a, a)
        score.update(1, b, b)
        np.testing.assert_allclose(score.get(0), a)
        np.testing.assert_allclose(score.get(1), b)

    def test_shared_accumulates_across_layers(self, rng):
        score = AccumulatedAttentionScore(shared=True)
        a = np.abs(rng.normal(size=(1, 1, 3)))
        b = np.abs(rng.normal(size=(1, 1, 3)))
        score.update(0, a, a)
        score.update(1, b, b)
        np.testing.assert_allclose(score.get(0), a + b)
        np.testing.assert_allclose(score.get(1), a + b)

    def test_gather_keeps_selected_entries(self, rng):
        score = AccumulatedAttentionScore()
        values = np.arange(6, dtype=np.float64).reshape(1, 1, 6)
        score.update(0, values, values)
        indices = np.array([[[0, 2, 5]]])
        score.gather(0, indices)
        np.testing.assert_allclose(score.get(0), [[[0, 2, 5]]])

    def test_gather_missing_layer_is_noop(self):
        score = AccumulatedAttentionScore()
        score.gather(3, np.zeros((1, 1, 1), dtype=np.int64))  # must not raise

    def test_reorder_batch(self, rng):
        score = AccumulatedAttentionScore()
        values = rng.normal(size=(3, 2, 4))
        score.update(0, values, values)
        score.reorder(np.array([2, 0, 0]))
        np.testing.assert_allclose(score.get(0)[0], values[2])
        np.testing.assert_allclose(score.get(0)[1], values[0])

    def test_get_uninitialized_raises(self):
        with pytest.raises(KeyError):
            AccumulatedAttentionScore().get(0)


class TestKeyformerScore:
    def test_prompt_requires_logits(self, rng):
        _, probs = make_prompt_tensors(rng)
        with pytest.raises(ValueError):
            KeyformerScore().init_from_prompt(0, probs, None)

    def test_noiseless_tau1_matches_accumulated_attention(self, rng):
        """With no noise and τ=1 the Keyformer score reduces to H2O's score."""
        logits, probs = make_prompt_tensors(rng)
        keyformer = KeyformerScore(noise="none")
        baseline = AccumulatedAttentionScore()
        kf = keyformer.init_from_prompt(0, probs, logits)
        h2o = baseline.init_from_prompt(0, probs, logits)
        np.testing.assert_allclose(kf, h2o, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("noise", ["gumbel", "gaussian"])
    @pytest.mark.parametrize("prompt_mode", ["all", "last"])
    @pytest.mark.parametrize("resample", ["per-step", "fixed"])
    @pytest.mark.parametrize("t", [5, 33, 70])
    def test_streamed_prompt_score_is_bit_identical(
        self, dtype, noise, prompt_mode, resample, t
    ):
        """The prompt is scored in blocks of query rows; the result — and the
        generator state left behind — must be exactly that of one
        whole-tensor noisy softmax reduced over the query axis."""
        from repro.core import score as score_module

        assert t % score_module._PROMPT_BLOCK_ROWS  # blocks never divide T
        logits, _ = make_prompt_tensors(np.random.default_rng(t), batch=2, heads=3, t=t)
        logits = logits.astype(dtype)
        kwargs = dict(noise=noise, prompt_mode=prompt_mode, resample=resample, seed=5)
        streamed, whole = KeyformerScore(**kwargs), KeyformerScore(**kwargs)

        got = streamed.init_from_prompt(0, None, logits, np.arange(t))

        noisy = whole.noisy_softmax(logits, np.arange(t), whole.tau_schedule(0))
        want = noisy.sum(axis=-2) if prompt_mode == "all" else noisy[..., -1, :]
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert streamed.rng.bit_generator.state == whole.rng.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("noise", ["gumbel", "gaussian", "constant"])
    @pytest.mark.parametrize("prompt_mode", ["all", "last"])
    @pytest.mark.parametrize("mask", ["causal", "none", "hole", "suffix-chunk"])
    def test_causal_half_prompt_score_equals_whole_row_scoring(
        self, dtype, noise, prompt_mode, mask
    ):
        """Only the columns a block of rows can see are transformed,
        exponentiated and divided.  Against whole rows scored the way the seed
        did (``rng.uniform`` / ``rng.normal``, ``tensor_ops.softmax``) the
        score and the generator stream must not differ by a bit — under a
        causal mask, with nothing masked at all (``valid = seq_len``: nothing
        may be skipped), with one visible entry above the diagonal, and for a
        chunk of the last rows only."""
        t, heads = 150, 2  # long enough that pairwise summation splits a row
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(1, heads, t, t)) * 3
        if mask != "none":
            logits[..., np.triu(np.ones((t, t), dtype=bool), k=1)] = -np.inf
        if mask == "hole":
            logits[0, 1, 40, 130] = 0.25
        if mask == "suffix-chunk":
            logits = logits[..., 90:, :]
        logits = logits.astype(dtype)
        score = KeyformerScore(noise=noise, prompt_mode=prompt_mode, seed=9)
        got = score.init_from_prompt(0, None, logits)

        reference = np.random.default_rng(9)
        zeta = seed_era_sample(score.noise, score.max_positions, reference)  # the fixed-mode ζ
        zeta = seed_era_sample(score.noise, logits.size, reference).reshape(logits.shape)
        noisy = softmax((logits + zeta.astype(dtype)) / score.tau_schedule(0), axis=-1)
        want = noisy.sum(axis=-2) if prompt_mode == "all" else noisy[..., -1, :]
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert score.rng.bit_generator.state == reference.bit_generator.state

    def test_noisy_softmax_is_distribution(self, rng):
        score = KeyformerScore(seed=1)
        logits = rng.normal(size=(1, 2, 7))
        out = score.noisy_softmax(logits, np.arange(7), tau=1.3)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out >= 0)

    def test_masked_logits_stay_masked(self, rng):
        score = KeyformerScore(seed=2)
        logits = rng.normal(size=(1, 1, 5))
        logits[0, 0, 3] = -np.inf
        out = score.noisy_softmax(logits, np.arange(5), tau=1.0)
        assert out[0, 0, 3] == 0.0

    def test_high_temperature_flattens_distribution(self, rng):
        score = KeyformerScore(noise="none")
        logits = rng.normal(size=(1, 1, 10)) * 4
        sharp = score.noisy_softmax(logits, np.arange(10), tau=1.0)
        flat = score.noisy_softmax(logits, np.arange(10), tau=50.0)
        assert entropy(flat).mean() > entropy(sharp).mean()

    def test_fixed_mode_is_deterministic(self, rng):
        logits = rng.normal(size=(1, 1, 6))
        a = KeyformerScore(seed=7, resample="fixed")
        b = KeyformerScore(seed=7, resample="fixed")
        np.testing.assert_allclose(
            a.noisy_softmax(logits, np.arange(6), 1.0),
            b.noisy_softmax(logits, np.arange(6), 1.0),
        )

    def test_per_step_mode_resamples(self, rng):
        score = KeyformerScore(seed=3, resample="per-step")
        logits = rng.normal(size=(1, 1, 6))
        first = score.noisy_softmax(logits, np.arange(6), 1.0)
        second = score.noisy_softmax(logits, np.arange(6), 1.0)
        assert not np.allclose(first, second)

    def test_gumbel_regularization_raises_entropy(self, rng):
        """Eq. 8: the expected Gumbel-adjusted distribution is more uniform."""
        logits = rng.normal(size=(1, 1, 12)) * 3
        plain = softmax(logits, axis=-1)
        score = KeyformerScore(seed=0, resample="per-step")
        draws = np.mean(
            [score.noisy_softmax(logits, np.arange(12), 1.0) for _ in range(200)], axis=0
        )
        assert entropy(draws).mean() > entropy(plain).mean()

    def test_invalid_resample(self):
        with pytest.raises(ValueError):
            KeyformerScore(resample="never")

    def test_configure_schedule(self):
        score = KeyformerScore()
        score.configure_schedule(1.0, 2.0, 10)
        assert score.tau_schedule(0) == pytest.approx(1.0)
        assert score.tau_schedule(10) == pytest.approx(2.0)

    def test_update_uses_schedule_step(self, rng):
        score = KeyformerScore(noise="none")
        score.configure_schedule(1.0, 2.0, 2)
        logits = rng.normal(size=(1, 1, 4)) * 3
        probs = softmax(logits, axis=-1)
        early = score.update(0, logits, probs, positions=np.arange(4), step=0).copy()
        score.reset()
        score.configure_schedule(1.0, 2.0, 2)
        late = score.update(0, logits, probs, positions=np.arange(4), step=2)
        # Higher τ at a later step flattens the contribution.
        assert entropy(late).mean() > entropy(early).mean()

    @given(arrays(np.float64, (1, 2, 8), elements=st.floats(-5, 5)))
    @settings(max_examples=25, deadline=None)
    def test_property_scores_nonnegative_and_bounded(self, logits):
        score = KeyformerScore(seed=0)
        out = score.update(0, logits, softmax(logits, axis=-1), positions=np.arange(8), step=1)
        assert np.all(out >= 0)
        # One update adds at most probability mass 1 per row.
        assert np.all(out.sum(axis=-1) <= 1.0 + 1e-9)
