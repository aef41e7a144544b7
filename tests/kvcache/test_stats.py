"""Tests for cache statistics accounting."""

import numpy as np

from repro.kvcache.stats import CacheStats


class TestCacheStats:
    def make(self):
        stats = CacheStats(n_layers=2, n_heads=4, d_head=8, batch_size=1, prompt_len=10)
        stats.record_step([10, 10])
        stats.record_step([10, 10])
        stats.record_step([12, 12])
        return stats

    def test_step_counts(self):
        stats = self.make()
        assert stats.n_steps == 3
        assert stats.peak_cache_length() == 12
        np.testing.assert_allclose(stats.mean_cache_length(), (10 + 10 + 12) / 3)

    def test_kv_entries_and_bytes(self):
        stats = self.make()
        assert stats.kv_entries_read() == 2 * (10 + 10 + 12)
        # bytes per entry = 2 tensors * 4 heads * 8 dims * 2 bytes = 128
        assert stats.kv_bytes_read(2) == stats.kv_entries_read() * 128

    def test_peak_bytes(self):
        stats = self.make()
        assert stats.peak_kv_bytes_actual() == 0  # no store attached
        stats.kv_token_bytes = 128.0
        assert stats.peak_kv_bytes_actual() == 12 * 128 * 2  # peak length * per-token * layers
        assert stats.kv_bytes_read_actual() == stats.kv_entries_read() * 128

    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.mean_cache_length() == 0.0
        assert stats.peak_cache_length() == 0
        assert stats.kv_entries_read() == 0
        assert stats.peak_kv_bytes_actual() == 0

    def test_backdated_steps_end_at_the_final_lengths(self):
        """A verify commit of 3 tokens records the 3 steps leading up to the
        lengths the cache holds now, one token shorter per step back."""
        stats = CacheStats(n_layers=2)
        stats.record_backdated_steps([10, 12], 3)
        assert stats.lengths_per_step == [[8, 10], [9, 11], [10, 12]]
        stats.record_backdated_steps([11, 13], 1)
        assert stats.n_steps == 4 and stats.lengths_per_step[-1] == [11, 13]
