"""Tests for cache-policy configuration dataclasses."""

import pytest

from repro.core.config import CachePolicyConfig, KeyformerConfig


class TestCachePolicyConfig:
    def test_defaults_valid(self):
        config = CachePolicyConfig()
        assert 0 < config.kv_fraction <= 1

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(ValueError):
            CachePolicyConfig(kv_fraction=fraction)

    def test_invalid_recent_ratio(self):
        with pytest.raises(ValueError):
            CachePolicyConfig(recent_ratio=1.2)

    def test_invalid_positional_mode(self):
        with pytest.raises(ValueError):
            CachePolicyConfig(positional_mode="renumbered")

    def test_invalid_prompt_mode(self):
        with pytest.raises(ValueError):
            CachePolicyConfig(prompt_mode="mean")

    def test_budget_from_fraction(self):
        config = CachePolicyConfig(kv_fraction=0.5)
        assert config.resolve_budget(100) == 50

    def test_budget_absolute_override(self):
        config = CachePolicyConfig(kv_fraction=0.5, kv_budget=17)
        assert config.resolve_budget(100) == 17

    def test_budget_clamped_to_prompt(self):
        config = CachePolicyConfig(kv_budget=500)
        assert config.resolve_budget(100) == 100

    def test_budget_min_enforced(self):
        config = CachePolicyConfig(kv_fraction=0.1, min_budget=8)
        assert config.resolve_budget(20) == 8

    def test_budget_requires_positive_prompt(self):
        with pytest.raises(ValueError):
            CachePolicyConfig().resolve_budget(0)

    def test_recent_window_bounds(self):
        config = CachePolicyConfig(recent_ratio=0.3)
        assert config.resolve_recent_window(10) == 3
        assert config.resolve_recent_window(1) == 1
        with pytest.raises(ValueError):
            config.resolve_recent_window(0)


class TestKeyformerConfig:
    def test_defaults_match_paper(self):
        config = KeyformerConfig()
        assert config.tau_init == 1.0 and config.tau_end == 2.0
        assert config.noise == "gumbel"

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            KeyformerConfig(noise="laplace")

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            KeyformerConfig(tau_init=0.0)
        with pytest.raises(ValueError):
            KeyformerConfig(static_tau=-1.0)

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            KeyformerConfig(score_damping=0.0)
        with pytest.raises(ValueError):
            KeyformerConfig(score_damping=1.5)

    def test_invalid_resample(self):
        with pytest.raises(ValueError):
            KeyformerConfig(noise_resample="sometimes")

    def test_inherits_budget_logic(self):
        config = KeyformerConfig(kv_fraction=0.6)
        assert config.resolve_budget(50) == 30
