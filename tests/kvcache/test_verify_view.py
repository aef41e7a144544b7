"""Speculative verification is the ragged-batch decode step over S virtual rows.

``decode_step_batch`` over a batched row's
:class:`~repro.kvcache.verify.VerifyView` rows must reproduce feeding the same
tokens one at a time through ``decode_step`` — bit-for-bit at float64, within
the documented inference tolerance at float32 — for every positional family
and both positional modes.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.policies import FullAttentionPolicy
from repro.generation.generator import Generator
from repro.kvcache.batch import BatchedCacheManager
from repro.kvcache.paged import PoolExhausted
from repro.models.transformer import DecoderLM
from repro.serving.faults import FaultInjector, InjectedFault
from repro.speculative.decoder import BatchedRowVerifyTarget
from tests.conftest import tiny_config

PROMPT_LEN = 40
MAX_BLOCK = 9
PAGE = 8  # PROMPT_LEN fills five pages exactly: every block append allocates

POSITIONAL = {
    "rope": ("rope", {}),
    "rope_partial": ("rope", {"rope_fraction": 0.5}),
    "alibi": ("alibi", {}),
    "learned": ("learned", {}),
}


@functools.lru_cache(maxsize=None)
def _model(positional: str, dtype: str) -> DecoderLM:
    family, overrides = POSITIONAL[positional]
    return DecoderLM(tiny_config(family, compute_dtype=dtype, **overrides), seed=0)


def _prompt(model: DecoderLM) -> np.ndarray:
    return (
        np.random.default_rng(7)
        .integers(0, model.config.vocab_size, size=(1, PROMPT_LEN))
        .astype(np.int64)
    )


def _solo_manager(model: DecoderLM, mode: str):
    generator = Generator(model, FullAttentionPolicy(), positional_mode=mode)
    logits, manager = generator._prompt_forward(_prompt(model), MAX_BLOCK + 1)
    return logits, manager


def _batched_manager(model: DecoderLM, mode: str, **knobs) -> BatchedCacheManager:
    """A batched manager whose row 0 holds the reference's prompt."""
    _, prompt_kv, prompt_attn, prompt_logits = model.forward_suffix(_prompt(model))
    config = model.config
    manager = BatchedCacheManager(
        config.n_layers,
        config.n_heads,
        config.d_head,
        max_batch=2,
        positional_mode=mode,
        dtype=config.np_dtype,
        rope_dims=config.rope_dims if config.positional == "rope" else 0,
        page_size=PAGE,
        **knobs,
    )
    manager.join(prompt_kv, prompt_attn, prompt_logits, MAX_BLOCK + 1, FullAttentionPolicy())
    return manager


@functools.lru_cache(maxsize=None)
def _sequential_reference(positional: str, mode: str, dtype: str):
    """The greedy chain fed one token at a time: ``(tokens, logits rows)``."""
    model = _model(positional, dtype)
    logits, manager = _solo_manager(model, mode)
    views = manager.layer_views()
    tokens = [int(np.argmax(logits[:, -1, :]))]
    rows = []
    for _ in range(MAX_BLOCK):
        row = model.decode_step(np.asarray([tokens[-1]]), manager.current_position, views)
        manager.advance()
        rows.append(row[0].copy())
        tokens.append(int(np.argmax(row)))
    return tokens, rows


def _assert_rows(actual, expected, dtype: str) -> None:
    if dtype == "float64":
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("n_rows", range(1, MAX_BLOCK + 1))
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("mode", ["original", "new"])
@pytest.mark.parametrize("positional", list(POSITIONAL))
def test_virtual_rows_equal_sequential_decode(positional, mode, dtype, n_rows):
    """Row ``i`` equals ``decode_step`` fed token ``i`` after tokens ``0..i-1``
    (``n_rows == 1`` is exactly one decode step), and rolling back a rejected
    tail leaves the cache where sequential decoding would have left it."""
    model = _model(positional, dtype)
    tokens, rows = _sequential_reference(positional, mode, dtype)
    manager = _batched_manager(model, mode)
    target = BatchedRowVerifyTarget(model, manager, 0)

    logits = target.verify(np.asarray(tokens[:n_rows]))
    assert logits.shape == (n_rows, model.config.vocab_size)
    _assert_rows(logits, np.stack(rows[:n_rows]), dtype)
    assert manager.cache_lengths(0) == [PROMPT_LEN + n_rows] * model.config.n_layers

    committed = (n_rows + 1) // 2
    target.commit(committed, n_rows)
    assert manager.cache_lengths(0) == [PROMPT_LEN + committed] * model.config.n_layers
    assert manager.current_position[0] == PROMPT_LEN + committed
    if committed < MAX_BLOCK:
        row = model.decode_step_batch(
            np.asarray([tokens[committed]]), manager.query_positions(), manager.layer_views()
        )
        _assert_rows(row[0], rows[committed], dtype)


@pytest.mark.parametrize("mode", ["original", "new"])
@pytest.mark.parametrize("positional", list(POSITIONAL))
def test_view_broadcasts_without_copy(positional, mode):
    """The S rows share one cache: zero stride over the row axis and
    ascending causal lengths."""
    model = _model(positional, "float64")
    manager = _batched_manager(model, mode)
    n_rows, heads, d_head = 5, model.config.n_heads, model.config.d_head
    total = PROMPT_LEN + n_rows
    block = np.random.default_rng(3).normal(size=(n_rows, heads, d_head))
    for view in manager.row_verify_views(0):
        view.append(block, block)
        keys, values, key_pos, query_pos, lengths, keys_rotated = view.attention_view()
        assert keys.shape == values.shape == (n_rows, heads, total, d_head)
        assert keys.strides[0] == 0 and values.strides[0] == 0
        assert key_pos.shape == (n_rows, heads, total) and key_pos.strides[0] == 0
        np.testing.assert_array_equal(lengths, np.arange(PROMPT_LEN + 1, total + 1))
        np.testing.assert_array_equal(query_pos, lengths - 1)
        assert keys_rotated == (model.config.positional == "rope")


@pytest.mark.parametrize("mode", ["original", "new"])
def test_cache_is_rotated_at_most_once_per_layer_per_pass(monkeypatch, mode):
    """Renumbered positions rotate on read — once per layer in the view, never
    as S copies in the kernel; original positions read the rotated slab."""
    model = _model("rope", "float64")
    tokens, _ = _sequential_reference("rope", mode, "float64")
    manager = _batched_manager(model, mode)
    table = manager._rope_table  # the process-wide table the model rotates with
    rotate, shapes = table.rotate, []
    monkeypatch.setattr(table, "rotate", lambda x, pos: (shapes.append(x.shape), rotate(x, pos))[1])
    BatchedRowVerifyTarget(model, manager, 0).verify(np.asarray(tokens[:5]))
    config = model.config
    cache_sized = [shape for shape in shapes if PROMPT_LEN + 5 in shape]
    expected = [(config.n_heads, PROMPT_LEN + 5, config.d_head)] * config.n_layers
    assert cache_sized == (expected if mode == "new" else [])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("mode", ["original", "new"])
@pytest.mark.parametrize("positional", list(POSITIONAL))
def test_rounds_leave_the_sequential_cache(positional, mode, dtype):
    """A partly rejected round, then a fully accepted one: each round's
    logits, the row's page contents and its append accounting are what
    decoding the committed tokens one at a time leaves."""
    model = _model(positional, dtype)
    tokens, rows = _sequential_reference(positional, mode, dtype)
    manager = _batched_manager(model, mode)
    target = BatchedRowVerifyTarget(model, manager, 0)
    appended = manager.stats[0].total_appended
    start = 0
    for committed in (3, 5):
        block = np.asarray(tokens[start : start + 5])
        _assert_rows(target.verify(block), np.stack(rows[start : start + 5]), dtype)
        target.commit(committed, len(block))
        start += committed
    assert manager.current_position[0] == PROMPT_LEN + start
    # Every verified row counts as appended, the rolled-back ones included.
    assert manager.stats[0].total_appended == appended + 10 * model.config.n_layers

    _, solo = _solo_manager(model, mode)
    for token in tokens[:start]:
        model.decode_step(np.asarray([token]), solo.current_position, solo.layer_views())
        solo.advance()
    assert solo.cache_lengths() == manager.cache_lengths(0)
    assert solo.stats.lengths_per_step == manager.stats[0].lengths_per_step
    for cache, row_cache in zip(solo.caches, manager.caches):
        pool, table = row_cache.pool, row_cache.tables[0]
        _assert_rows(pool.keys_view(table), cache.keys[0], dtype)
        _assert_rows(pool.values_view(table), cache.values[0], dtype)
        np.testing.assert_array_equal(pool.positions_view(table), cache.positions[0])
        if pool.rope_dims > 0:
            _assert_rows(pool.rotated_view(table), cache.rotated_keys()[0], dtype)


class TestVerifyFaultsUnwind:
    """A verify round that dies mid-block leaves the row at its pre-round
    lengths (``unwind_row``), through the shared view."""

    def _row(self, **knobs):
        model = _model("rope", "float64")
        tokens, rows = _sequential_reference("rope", "original", "float64")
        return model, _batched_manager(model, "original", **knobs), tokens, rows

    def test_verify_fault_fires_before_any_append(self):
        model, manager, tokens, _ = self._row()
        before = manager.row_lengths(0)
        appended = manager.stats[0].total_appended
        faults = FaultInjector(schedule=[("verify", 0)])
        target = BatchedRowVerifyTarget(model, manager, 0, faults=faults, request_id=7)
        with pytest.raises(InjectedFault):
            target.verify(np.asarray(tokens[:4]))
        assert manager.row_lengths(0) == before
        assert manager.stats[0].total_appended == appended

    def test_page_alloc_fault_in_a_later_layer_unwinds_earlier_layers(self):
        model, manager, tokens, rows = self._row()
        before = manager.row_lengths(0)
        appended = manager.stats[0].total_appended
        free = [pool.free_pages for pool in manager.store.pools]
        # Layer 0's block allocates (occurrence 0), layer 1's allocation faults.
        faults = FaultInjector(schedule=[("page_alloc", 1)])
        for pool in manager.store.pools:
            pool.fault_hook = faults.hook("page_alloc")
        target = BatchedRowVerifyTarget(model, manager, 0, faults=faults)
        with pytest.raises(InjectedFault):
            target.verify(np.asarray(tokens[:4]))
        assert faults.fired == [("page_alloc", 1)]
        assert manager.row_lengths(0) == before
        assert manager.stats[0].total_appended == appended
        assert [pool.free_pages for pool in manager.store.pools] == free
        # The retried round is unaffected by the unwound one.
        np.testing.assert_array_equal(target.verify(np.asarray(tokens[:4])), np.stack(rows[:4]))

    def test_pool_exhaustion_mid_block_unwinds(self):
        # Room for the prompt's five pages and nothing else.
        model, manager, tokens, _ = self._row(max_pool_tokens=PROMPT_LEN)
        before = manager.row_lengths(0)
        with pytest.raises(PoolExhausted):
            BatchedRowVerifyTarget(model, manager, 0).verify(np.asarray(tokens[:4]))
        assert manager.row_lengths(0) == before
