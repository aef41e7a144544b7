"""One policy pass per decode step == one pass per layer, bit for bit.

The score policies (Keyformer, H2O, key-only) see a decode step once, after
its last layer: every layer's logits stacked, one noise draw, one softmax,
one accumulate, one strict-minimum search, a typed ``EvictOne`` per layer.
Here the same random steps are replayed through that pass (a real
``CacheManager``) and through a per-layer reference written out in this file
the way the seed did it — ``rng.uniform`` / ``rng.normal`` per layer,
``tensor_ops.softmax``, the general ``mixed_topk_selection``, the score cut
by ``take_along_axis`` and the KV pages by ``BlockPool._compact`` — and after
every step the score slabs, the selections, all four KV slabs, the page
tables, refcounts and free lists and the generator state must be equal, at
float64 *and* float32, through lengths below the budget, the steady state and
steps with an exact tie.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.distributions import GUMBEL_MEAN, GUMBEL_STD
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import EvictOne, H2OPolicy, KeyAttentionPolicy, mixed_topk_selection
from repro.kvcache.manager import CacheManager
from repro.models.tensor_ops import softmax

D_HEAD = 4
PROMPT_LEN = 8  # only sizes the budget: decoding starts from an empty cache


def seed_era_noise(config: KeyformerConfig, size: int, rng: np.random.Generator) -> np.ndarray:
    """``make_noise(...).sample(size, rng)`` as the seed wrote it."""
    mu, sigma = config.noise_mu, config.noise_sigma
    if config.noise == "gumbel":
        u = rng.uniform(low=1e-12, high=1.0 - 1e-12, size=size)
        beta = sigma / GUMBEL_STD
        return (mu - beta * GUMBEL_MEAN) - beta * np.log(-np.log(u))
    if config.noise == "gaussian":
        return rng.normal(mu, sigma, size=size)
    return np.full(size, mu if config.noise == "constant" else 0.0)


class PerLayerReference:
    """The policy and its caches driven one layer at a time."""

    def __init__(self, policy, twin: CacheManager):
        self.policy, self.twin = policy, twin
        self.keyformer = isinstance(policy, KeyformerPolicy)
        self.shared = policy.shared_selection
        self.acc: dict[int, np.ndarray] = {}
        if self.keyformer:
            config = policy.config
            self.rng = np.random.default_rng(config.seed)
            self.zeta = seed_era_noise(config, policy.score.max_positions, self.rng)

    def contribution(self, layer, logits, probs, step):
        if not self.keyformer:
            return probs
        config = self.policy.config
        if config.noise_resample == "per-step":
            zeta = seed_era_noise(config, logits.size, self.rng).reshape(logits.shape)
        else:
            positions = self.twin.caches[layer].retained_original_positions()
            zeta = self.zeta[np.clip(positions, 0, self.zeta.size - 1)]
        adjusted = logits + zeta.astype(logits.dtype)
        adjusted /= self.policy.score.tau_schedule(step)
        return softmax(adjusted, axis=-1)

    def observe(self, layer, logits, probs, step):
        """Returns the selection applied at this layer (or ``None``)."""
        policy = self.policy
        contribution = self.contribution(layer, logits, probs, step)
        key = 0 if self.shared else layer
        length = contribution.shape[-1]
        if key not in self.acc:
            self.acc[key] = contribution.copy()
        else:
            acc = self.acc[key]
            if policy.damping < 1.0:
                acc *= policy.damping
            grown = np.zeros(acc.shape[:-1] + (length,), dtype=acc.dtype)
            grown[..., : acc.shape[-1]] = acc
            grown += contribution
            self.acc[key] = grown
        if length <= policy.budget or (self.shared and layer < policy.n_layers - 1):
            return None
        recent = 0 if isinstance(policy, KeyAttentionPolicy) else policy.recent_window
        selection = mixed_topk_selection(self.acc[key], policy.budget, recent)
        self.acc[key] = np.take_along_axis(self.acc[key], selection, axis=-1)
        for target in range(policy.n_layers) if self.shared else (layer,):
            self.evict(target, selection)
        return selection

    def evict(self, layer, selection):
        cache = self.twin.caches[layer]
        suffix = np.arange(cache.length - selection.shape[-1], cache.length)
        for row, table in enumerate(cache.tables):
            if (selection[row] == suffix).all():
                cache.pool.gather(table, selection[row])  # pure suffix: a pointer bump
            else:
                cache.pool._compact(table, selection[row])
        cache._version += 1


def make_policy(kind, budget, recent_ratio, noise, resample, shared, damping, static_tau):
    if kind == "keyformer":
        return KeyformerPolicy(
            KeyformerConfig(
                kv_budget=budget,
                min_budget=1,
                recent_ratio=recent_ratio,
                noise=noise,
                noise_resample=resample,
                shared_score=shared,
                score_damping=damping,
                static_tau=static_tau,
                tau_end=3.0,
                seed=11,
            )
        )
    cls = H2OPolicy if kind == "h2o" else KeyAttentionPolicy
    config = CachePolicyConfig(kv_budget=budget, min_budget=1, recent_ratio=recent_ratio)
    return cls(config, damping=damping)


def storage(manager: CacheManager):
    out = []
    for cache in manager.caches:
        pool = cache.pool
        out.append(
            {
                "keys": cache.keys.copy(),
                "values": cache.values.copy(),
                "positions": cache.positions.copy(),
                "rotated": cache.rotated_keys().copy(),
                "tables": [(t.offset, t.length, list(t.pages)) for t in cache.tables],
                "refcounts": pool.refcounts.tolist(),
                "free": sorted(pool._free),
            }
        )
    return out


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["keyformer", "keyformer", "h2o", "key-only"]),
    geometry=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3)),
    budget=st.integers(2, 7),
    recent_ratio=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    noise=st.sampled_from(["gumbel", "gaussian", "constant", "none"]),
    resample=st.sampled_from(["per-step", "per-step", "fixed"]),
    shared=st.booleans(),
    damping=st.sampled_from([1.0, 0.9]),
    static_tau=st.sampled_from([None, 1.5]),
    dtype=st.sampled_from([np.float64, np.float32]),
    masked=st.integers(0, 3),
    seed=st.integers(0, 10_000),
)
def test_stacked_pass_equals_per_layer_reference(
    kind, geometry, budget, recent_ratio, noise, resample, shared, damping, static_tau,
    dtype, masked, seed,
):
    n_layers, batch, heads = geometry
    n_steps = budget + 5
    args = (kind, budget, recent_ratio, noise, resample, shared, damping, static_tau)
    managers = []
    for _ in range(2):
        manager = CacheManager(
            make_policy(*args), n_layers, heads, D_HEAD, dtype=dtype, rope_dims=D_HEAD, page_size=2
        )
        manager.initialize_empty(batch, n_steps, prompt_len=PROMPT_LEN)
        managers.append(manager)
    stacked, twin = managers
    policy = stacked.policy
    reference = PerLayerReference(twin.policy, twin)
    applied = []
    apply_selection = stacked._apply_selection
    stacked._apply_selection = lambda layer, sel: applied.append((layer, sel)) or apply_selection(
        layer, sel
    )

    rng = np.random.default_rng(seed)
    typed_steps = tied_steps = 0
    for step in range(1, n_steps + 1):
        applied.clear()
        expected = []
        for layer in range(n_layers):
            k = rng.standard_normal((batch, heads, D_HEAD)).astype(dtype)
            v = rng.standard_normal((batch, heads, D_HEAD)).astype(dtype)
            stacked.append(layer, k, v)
            twin.append(layer, k, v)
            length = stacked.caches[layer].length
            logits = rng.standard_normal((batch, heads, length)).astype(dtype)
            # Entries that never receive attention keep a score of exactly
            # zero: with two of them in the old region the minimum is tied.
            logits[..., 1 : 1 + min(masked, length - 1)] = -np.inf
            probs = softmax(logits, axis=-1)
            stacked.observe(layer, logits, probs)
            selection = reference.observe(layer, logits, probs, step)
            if selection is not None:
                expected.append(selection)
        stacked.advance()
        twin.advance()

        # -- selections ------------------------------------------------
        assert len(applied) == (n_layers if expected else 0)
        for layer, selection in applied:
            want = expected[0] if policy.shared_selection else expected[layer]
            np.testing.assert_array_equal(np.asarray(selection), want)
            assert selection.shape == want.shape
        if applied:
            typed = [isinstance(selection, EvictOne) for _, selection in applied]
            assert all(typed) or not any(typed)  # a tie in one layer sends the whole step general
            typed_steps += all(typed)
            tied_steps += not any(typed)
        # -- scores, storage, generator ----------------------------------
        for layer in range(n_layers):
            got = policy.score.get(layer)
            want = reference.acc[0 if policy.shared_selection else layer]
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)
        for got, want in zip(storage(stacked), storage(twin)):
            for name in ("tables", "refcounts", "free"):
                assert got[name] == want[name], name
            for name in ("keys", "values", "positions", "rotated"):
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        if kind == "keyformer":
            assert policy.score.rng.bit_generator.state == reference.rng.bit_generator.state
        assert stacked.stats.total_evicted == sum(c.total_evicted for c in stacked.caches)
    assert stacked.cache_lengths() == twin.cache_lengths() == [budget] * n_layers
    # Steady-state steps are either all typed or (on a tie) all general.
    recent = 0 if kind == "key-only" else policy.recent_window
    if recent < budget:
        assert typed_steps + tied_steps == n_steps - budget


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_exact_tie_takes_the_general_branch(dtype):
    """Two never-attended entries tie at zero: the step must not be typed,
    and must still match the reference (covered above) — here the branch
    itself is pinned so the tie case can never go vacuous."""
    policy = make_policy("keyformer", 4, 0.25, "none", "per-step", False, 1.0, None)
    manager = CacheManager(policy, 2, 2, D_HEAD, dtype=dtype, page_size=2)
    manager.initialize_empty(1, 8, prompt_len=PROMPT_LEN)
    seen = []
    apply_selection = manager._apply_selection
    manager._apply_selection = lambda layer, sel: seen.append(sel) or apply_selection(layer, sel)
    rng = np.random.default_rng(0)
    for _ in range(5):
        for layer in range(2):
            kv = rng.standard_normal((1, 2, D_HEAD)).astype(dtype)
            manager.append(layer, kv, kv)
            length = manager.caches[layer].length
            logits = rng.standard_normal((1, 2, length)).astype(dtype)
            if layer == 1:
                logits[..., :2] = -np.inf  # layer 1 only: the tie still decides for both
            manager.observe(layer, logits, softmax(logits, axis=-1))
        manager.advance()
    assert len(seen) == 2 and all(isinstance(sel, np.ndarray) for sel in seen)
    assert manager.cache_lengths() == [4, 4]


def test_layers_must_arrive_in_order():
    policy = make_policy("h2o", 4, 0.5, "none", "per-step", False, 1.0, None)
    manager = CacheManager(policy, 3, 1, D_HEAD, page_size=2)
    manager.initialize_empty(1, 4, prompt_len=PROMPT_LEN)
    step = np.ones((1, 1, 1))
    manager.observe(0, step, step)
    with pytest.raises(RuntimeError, match="out of step"):
        manager.observe(2, step, step)
    manager.observe(0, step, step)  # an abandoned step is simply restarted
    manager.observe(1, step, step)
    with pytest.raises(RuntimeError, match="out of step"):
        manager.observe(2, np.ones((1, 1, 2)), np.ones((1, 1, 2)))
