"""Span tracer for the end-to-end benchmark: wrappers installed from outside.

The traced run of a workload wraps the public callables listed in
:data:`TARGETS` — at class level, from this file, restored afterwards — so
that every second of ``Generator.generate`` / ``engine.step`` is assigned to
one module of ``repro``.  Spans are kept in memory in one flat list (six
slots per span: name id, parent, context id, start, end, work count) so a
100k-span run creates no per-span Python object for the garbage collector
to walk; :func:`layer_metrics` turns them into the per-layer numbers.

A span's *self* time is its duration minus the part covered by its child
spans.  ``*_total`` metrics are inclusive durations, counted once when a
wrapped method calls a wrapped ``super()`` implementation of the same group.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Callable
from pathlib import Path
from statistics import median

import numpy as np

SLOTS = 6  # name id, parent base index, context id, start, end, work
_NAME, _PARENT, _CTX, _START, _END, _WORK = range(SLOTS)


def _tokens(args, result) -> int:
    """Work of a model call: number of token ids in its first argument."""
    return int(np.size(args[1]))


def _returned(args, result) -> int:
    """Work of a call that returns its own count (``BlockPool.gather``)."""
    return int(result)


#: (module, class, method, span group, work counter).  Every concrete
#: ``EvictionPolicy`` override is added by :func:`_policy_targets`; the base
#: class's no-op ``step_selection`` stays unwrapped, so a policy that never
#: selects (full attention) records zero selection calls.
TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("repro.generation.generator", "Generator", "generate", "generation.generate", None),
    ("repro.models.transformer", "DecoderLM", "forward", "models.prefill", _tokens),
    ("repro.models.transformer", "DecoderLM", "forward_suffix", "models.prefill", _tokens),
    ("repro.models.transformer", "DecoderLM", "decode_step", "models.decode", _tokens),
    ("repro.models.transformer", "DecoderLM", "decode_step_batch", "models.decode", _tokens),
    ("repro.models.attention", "MultiHeadAttention", "forward", "models.attend", None),
    ("repro.models.attention", "MultiHeadAttention", "attend_prefill", "models.attend", None),
    ("repro.models.attention", "MultiHeadAttention", "attend_step", "models.attend", None),
    ("repro.models.attention", "MultiHeadAttention", "attend_step_batch", "models.attend", None),
    ("repro.kvcache.manager", "CacheManager", "initialize_from_prompt", "kvcache.init", None),
    ("repro.kvcache.batch", "BatchedCacheManager", "join", "kvcache.init", None),
    ("repro.kvcache.manager", "CacheManager", "append", "kvcache.append", None),
    ("repro.kvcache.batch", "BatchedCacheManager", "append_batch", "kvcache.append", None),
    ("repro.kvcache.manager", "CacheManager", "attention_view", "kvcache.view", None),
    ("repro.kvcache.batch", "BatchedCacheManager", "attention_view_batch", "kvcache.view", None),
    ("repro.kvcache.manager", "CacheManager", "observe", "kvcache.observe", None),
    ("repro.kvcache.batch", "BatchedCacheManager", "observe_batch", "kvcache.observe", None),
    ("repro.kvcache.paged", "BlockPool", "gather", "kvcache.gather", _returned),
    ("repro.kvcache.offload", "_TieredMixin", "gather", "kvcache.gather", _returned),
    ("repro.kvcache.paged", "PrefixRegistry", "match", "kvcache.registry", None),
    ("repro.kvcache.paged", "PrefixRegistry", "register", "kvcache.registry", None),
    ("repro.kvcache.paged", "PrefixRegistry", "reclaim", "kvcache.registry", None),
    ("repro.kvcache.batch", "BatchedCacheManager", "prefetch_decode", "kvcache.restore", None),
    ("repro.kvcache.offload", "_TieredMixin", "restore_pages", "kvcache.restore", None),
    ("repro.kvcache.offload", "CompressedSpillArena", "store", "kvcache.spill_store", None),
    ("repro.kvcache.offload", "MmapSpillArena", "store", "kvcache.spill_store", None),
    ("repro.kvcache.offload", "CompressedSpillArena", "load", "kvcache.spill_load", None),
    ("repro.kvcache.offload", "MmapSpillArena", "load", "kvcache.spill_load", None),
    ("repro.core.score", "KeyformerScore", "update", "core.score_update", None),
    ("repro.serving.engine", "ContinuousBatchingEngine", "step", "serving.step", None),
    ("repro.serving.engine", "ContinuousBatchingEngine", "submit", "serving.submit", None),
    ("repro.serving.scheduler", "FCFSScheduler", "admit", "serving.admit", None),
    ("repro.serving.scheduler", "PagedScheduler", "admit", "serving.admit", None),
)

#: Spans that may open a trace (no parent); their share of the traced wall
#: is ``trace.root_share``.
ROOT_GROUPS = ("generation.generate", "serving.step", "serving.submit")


def _policy_targets():
    """Every ``initial_selection`` / ``step_selection`` override of a policy."""
    from repro.core.policies import EvictionPolicy

    groups = {
        "initial_selection": "core.initial_selection",
        "step_selection": "core.step_selection",
    }
    pending, seen = list(EvictionPolicy.__subclasses__()), set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for method, group in groups.items():
            if method in cls.__dict__:
                yield cls, method, group, None


class Tracer:
    """In-memory span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.flat: list = []
        self.stack: list[int] = []
        self.groups: list[str] = []
        #: Request index (solo) or engine step number (serving) stamped on
        #: every span opened while it is set; the driver loop sets it.
        self.ctx = -1
        self._patched: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, group: str, work):
        if group not in self.groups:
            self.groups.append(group)
        name_id = self.groups.index(group)
        flat, stack, clock = self.flat, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = len(flat)
            flat.extend((name_id, stack[-1] if stack else -1, self.ctx, clock(), 0.0, 0))
            stack.append(base)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    flat[base + _WORK] = work(args, result)
                return result
            finally:
                flat[base + _END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at class level (call :meth:`uninstall` after)."""
        targets = [
            (getattr(importlib.import_module(mod), cls), method, group, work)
            for mod, cls, method, group, work in TARGETS
        ]
        targets.extend(_policy_targets())
        for cls, method, group, work in targets:
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(original, group, work))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    # ------------------------------------------------------------------
    def _children_s(self) -> dict[int, float]:
        """Seconds covered by the direct children of each span that has any."""
        flat, covered = self.flat, {}
        for base in range(0, len(flat), SLOTS):
            parent = flat[base + _PARENT]
            if parent >= 0:
                duration = flat[base + _END] - flat[base + _START]
                covered[parent] = covered.get(parent, 0.0) + duration
        return covered

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per group: ``self_s``, ``total_s`` (inclusive, own group counted
        once), ``calls`` and ``work``; plus the ``"_root"`` duration sum."""
        flat, n_groups = self.flat, len(self.groups)
        child_s = self._children_s()
        # Bitmask of the groups open above each span (spans are appended in
        # call order, so a parent always precedes its children).
        above: dict[int, int] = {}
        out = [{"self_s": 0.0, "total_s": 0.0, "calls": 0, "work": 0} for _ in range(n_groups)]
        root_s = 0.0
        for base in range(0, len(flat), SLOTS):
            parent, name_id = flat[base + _PARENT], flat[base + _NAME]
            duration = flat[base + _END] - flat[base + _START]
            if parent >= 0:
                above[base] = above[parent] | (1 << flat[parent + _NAME])
            else:
                above[base] = 0
                root_s += duration
            group = out[name_id]
            group["self_s"] += duration - child_s.get(base, 0.0)
            if not above[base] & (1 << name_id):
                group["total_s"] += duration
            group["calls"] += 1
            group["work"] += flat[base + _WORK]
        summary = dict(zip(self.groups, out))
        summary["_root"] = {"total_s": root_s}
        return summary

    def check_nesting(self) -> list[str]:
        """Structural problems of the recorded spans (empty when sane)."""
        flat, problems = self.flat, []
        if self.stack:
            problems.append(f"{len(self.stack)} spans still open")
        for base in range(0, len(flat), SLOTS):
            parent, start, end = flat[base + _PARENT], flat[base + _START], flat[base + _END]
            if end < start:
                problems.append(f"span {base // SLOTS} ends before it starts")
            if parent >= 0:
                if not (flat[parent + _START] <= start and end <= flat[parent + _END]):
                    problems.append(f"span {base // SLOTS} leaves its parent's interval")
            elif self.groups[flat[base + _NAME]] not in ROOT_GROUPS:
                problems.append(f"{self.groups[flat[base + _NAME]]} span has no parent")
        for base, covered in self._children_s().items():
            if covered > flat[base + _END] - flat[base + _START] + 1e-9:
                problems.append(f"children of span {base // SLOTS} outlast it")
        return problems

    def write(self, path: Path) -> None:
        """Dump the spans as one compact JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        layout = ["name", "parent", "ctx", "start_s", "end_s", "work"]
        doc = {"groups": self.groups, "layout": layout, "spans": self.flat}
        with path.open("w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit of every per-layer metric, in reporting order.
LAYER_METRICS: dict[str, str] = {
    "generation.generate_s_total": "s",
    "generation.self_s": "s",
    "models.prefill_s_total": "s",
    "models.prefill_tokens": "count",
    "models.decode_s_total": "s",
    "models.decode_calls": "count",
    "models.decode_rows": "count",
    "models.attend_s": "s",
    "models.dense_self_s": "s",
    "models.kv_bytes_read": "bytes",
    "kvcache.init_s": "s",
    "kvcache.append_s": "s",
    "kvcache.view_s": "s",
    "kvcache.observe_s_total": "s",
    "kvcache.gather_s": "s",
    "kvcache.gather_calls": "count",
    "kvcache.evicted_tokens": "count",
    "kvcache.registry_s": "s",
    "kvcache.prefix_hit_share": "ratio",
    "kvcache.restore_s": "s",
    "kvcache.spill_store_s": "s",
    "kvcache.spill_load_s": "s",
    "kvcache.spills": "count",
    "kvcache.restores": "count",
    "kvcache.spill_bytes": "bytes",
    "kvcache.restore_bytes": "bytes",
    "kvcache.peak_pages_used": "count",
    "core.initial_selection_s": "s",
    "core.step_selection_s": "s",
    "core.step_selection_calls": "count",
    "core.score_update_s": "s",
    "core.policy_share": "ratio",
    "serving.step_s_total": "s",
    "serving.steps": "count",
    "serving.step_self_s": "s",
    "serving.admit_s": "s",
    "serving.submit_s": "s",
    "serving.prefill_step_s_p50": "s",
    "serving.decode_step_s_p50": "s",
    "serving.decode_rows_mean": "count",
    "serving.queue_wait_s_p50": "s",
    "serving.preemptions": "count",
    "serving.prefill_chunks": "count",
    "serving.discarded_token_share": "ratio",
    "perfmodel.vtime_s_per_unit": "s",
    "perfmodel.vtime_rel_err_p50": "ratio",
    "perfmodel.vtime_rel_err_p90": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.root_share": "ratio",
}

#: Counters that must repeat exactly: untraced run, traced run, same seed again.
EXACT_COUNTERS = (
    "serving.steps",
    "serving.preemptions",
    "serving.prefill_chunks",
    "models.prefill_tokens",
    "kvcache.spills",
    "kvcache.restores",
    "kvcache.evicted_tokens",
    "output_tokens",
)


def quantile(values, q: float) -> float:
    """``np.quantile`` that reads 0 for no samples."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def fit_virtual_clock(steps) -> tuple[float, float, float]:
    """Least-squares scale of ``StepCostModel().step_cost`` onto measured
    step seconds, and the p50 / p90 relative error of the scaled model."""
    if not steps:
        return 0.0, 0.0, 0.0
    from repro.perfmodel.serving import StepCostModel

    model = StepCostModel()
    costs = [model.step_cost(prefill, rows) for prefill, rows, _ in steps]
    seconds = [s for _, _, s in steps]
    scale = sum(c * s for c, s in zip(costs, seconds)) / sum(c * c for c in costs)
    errors = [abs(scale * c - s) / s for c, s in zip(costs, seconds)]
    return scale, quantile(errors, 0.5), quantile(errors, 0.9)


def layer_metrics(tracer: Tracer, rnd, untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round ``rnd`` (a ``RoundResult``)."""
    groups = tracer.summarize()
    zero = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "work": 0}

    def g(name: str) -> dict:
        return groups.get(name, zero)

    policy_s = sum(
        g(name)["self_s"]
        for name in (
            "core.initial_selection",
            "core.step_selection",
            "core.score_update",
            "kvcache.gather",
        )
    )
    prefill_steps = [s for p, _, s in rnd.steps if p]
    decode_steps = [s for p, _, s in rnd.steps if not p]
    scale, err50, err90 = fit_virtual_clock(rnd.steps)
    c = rnd.counters
    return {
        "generation.generate_s_total": g("generation.generate")["total_s"],
        "generation.self_s": g("generation.generate")["self_s"],
        "models.prefill_s_total": g("models.prefill")["total_s"],
        "models.prefill_tokens": g("models.prefill")["work"],  # counted by the tracer
        "models.decode_s_total": g("models.decode")["total_s"],
        "models.decode_calls": g("models.decode")["calls"],
        "models.decode_rows": g("models.decode")["work"],
        "models.attend_s": g("models.attend")["self_s"],
        "models.dense_self_s": g("models.prefill")["self_s"] + g("models.decode")["self_s"],
        "models.kv_bytes_read": c["kv_bytes_read"],
        "kvcache.init_s": g("kvcache.init")["self_s"],
        "kvcache.append_s": g("kvcache.append")["self_s"],
        "kvcache.view_s": g("kvcache.view")["self_s"],
        "kvcache.observe_s_total": g("kvcache.observe")["total_s"],
        "kvcache.gather_s": g("kvcache.gather")["self_s"],
        "kvcache.gather_calls": g("kvcache.gather")["calls"],
        "kvcache.evicted_tokens": c["kvcache.evicted_tokens"],
        "kvcache.registry_s": g("kvcache.registry")["self_s"],
        "kvcache.prefix_hit_share": c["prefix_hit_share"],
        "kvcache.restore_s": g("kvcache.restore")["self_s"],
        "kvcache.spill_store_s": g("kvcache.spill_store")["self_s"],
        "kvcache.spill_load_s": g("kvcache.spill_load")["self_s"],
        "kvcache.spills": c["kvcache.spills"],
        "kvcache.restores": c["kvcache.restores"],
        "kvcache.spill_bytes": c["spill_bytes"],
        "kvcache.restore_bytes": c["restore_bytes"],
        "kvcache.peak_pages_used": c["peak_pages_used"],
        "core.initial_selection_s": g("core.initial_selection")["self_s"],
        "core.step_selection_s": g("core.step_selection")["self_s"],
        "core.step_selection_calls": g("core.step_selection")["calls"],
        "core.score_update_s": g("core.score_update")["self_s"],
        "core.policy_share": policy_s / rnd.wall_s,
        "serving.step_s_total": g("serving.step")["total_s"],
        "serving.steps": g("serving.step")["calls"],  # counted by the tracer
        "serving.step_self_s": g("serving.step")["self_s"],
        "serving.admit_s": g("serving.admit")["self_s"],
        "serving.submit_s": g("serving.submit")["self_s"],
        "serving.prefill_step_s_p50": median(prefill_steps) if prefill_steps else 0.0,
        "serving.decode_step_s_p50": median(decode_steps) if decode_steps else 0.0,
        "serving.decode_rows_mean": (
            sum(rows for _, rows, _ in rnd.steps) / len(rnd.steps) if rnd.steps else 0.0
        ),
        "serving.queue_wait_s_p50": median(rnd.queue_wait) if rnd.queue_wait else 0.0,
        "serving.preemptions": c["serving.preemptions"],
        "serving.prefill_chunks": c["serving.prefill_chunks"],
        "serving.discarded_token_share": c["discarded_token_share"],
        "perfmodel.vtime_s_per_unit": scale,
        "perfmodel.vtime_rel_err_p50": err50,
        "perfmodel.vtime_rel_err_p90": err90,
        "trace.overhead_ratio": rnd.wall_s / untraced_wall_s,
        "trace.root_share": groups["_root"]["total_s"] / rnd.wall_s,
    }
