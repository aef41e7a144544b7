"""Engine Keyformer rows evict in place and keep their padded workspace.

A row whose Keyformer budget is a multiple of the page size appends each
decode token into a fresh page that is not adjacent to the row's others, so
its table is fragmented at every eviction.  The evict-one still shifts each
head's tail in place (``BlockPool._shift_out`` walks the physical runs), and
the padded workspace row moves with it, so the next read copies only the
next appended token.  Outputs are byte-identical to the same run read whole
every step.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.generation.sampler import GreedySampler
from repro.kvcache.batch import BatchedLayerKVCache
from repro.kvcache.paged import BlockPool
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.request import RequestStatus

VOCAB = 96
#: Budgets 32, 36, 48, 64 at kv_fraction 0.5: three of four rows have a
#: budget that is a multiple of the 16-token page.
PROMPT_LENS = (64, 72, 96, 128)


def _run(monkeypatch, whole_reads: bool):
    """Serve four Keyformer requests; return their outputs and the
    decode-phase path counts."""
    model = DecoderLM(
        ModelConfig(
            vocab_size=VOCAB, d_model=32, n_layers=2, n_heads=4, d_ff=64,
            max_seq_len=256, positional="rope",
        ),
        seed=0,
    )
    rng = np.random.default_rng(0)
    engine = ContinuousBatchingEngine(
        model,
        policy_factory=lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5)),
        max_batch_size=4,
    )
    config = GenerationConfig(max_new_tokens=16)
    states = [
        engine.submit(rng.integers(0, VOCAB, size=n), config, sampler=GreedySampler())
        for n in PROMPT_LENS
    ]

    counts = {"compact": 0, "shift": 0, "whole": 0, "incremental": 0}
    compact, shift_out, fill_row = BlockPool._compact, BlockPool._shift_out, BlockPool.fill_row
    padded_batch = BatchedLayerKVCache.padded_batch

    def counted_compact(pool, table, indices):
        counts["compact"] += 1
        compact(pool, table, indices)

    def counted_shift(pool, table, drop):
        counts["shift"] += 1
        shift_out(pool, table, drop)

    def counted_fill(pool, table, out_k, out_v, out_pos, start=0):
        counts["incremental" if start else "whole"] += 1
        fill_row(pool, table, out_k, out_v, out_pos, start)

    def forced_whole(cache, n_active):
        cache._synced = [None] * cache.max_batch
        return padded_batch(cache, n_active)

    monkeypatch.setattr(BlockPool, "_compact", counted_compact)
    monkeypatch.setattr(BlockPool, "_shift_out", counted_shift)
    monkeypatch.setattr(BlockPool, "fill_row", counted_fill)
    if whole_reads:
        monkeypatch.setattr(BatchedLayerKVCache, "padded_batch", forced_whole)

    decode = dict.fromkeys(counts, 0)
    while engine.has_work:
        decoding = all(s.status == RequestStatus.RUNNING for s in states)
        before = dict(counts)
        engine.step()
        if decoding:
            for name in counts:
                decode[name] += counts[name] - before[name]
        # After the counts: the workspace audit reads every synced row whole.
        assert engine.check_invariants() == []
    monkeypatch.undo()
    outputs = [
        (np.asarray(s.tokens).tobytes(), np.asarray(s.result().log_probs).tobytes())
        for s in states
    ]
    return outputs, decode


def test_fragmented_rows_shift_and_read_incrementally(monkeypatch):
    outputs, decode = _run(monkeypatch, whole_reads=False)
    # Every decode-phase eviction is a shift (three of the four rows are
    # fragmented at each one, and used to compact), and every read but each
    # row's first after its prefill copies one token.
    assert decode["compact"] == 0 and decode["shift"] > 0
    reads = decode["whole"] + decode["incremental"]
    assert decode["incremental"] > 0.9 * reads

    reference, forced = _run(monkeypatch, whole_reads=True)
    assert forced["incremental"] == 0 and forced["whole"] > 0
    assert outputs == reference
