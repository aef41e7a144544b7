"""Pinned seeded chaos campaign for the fault-tolerant serving engine.

``make chaos`` (and the CI ``chaos`` job) runs this script: a deterministic
fault-injection campaign of at least ``--min-steps`` engine steps (default
1000) spread across float64 and int8 KV precision, vanilla and speculative
decoding, growable and fixed-size pools.  Every round seeds a fresh
:class:`~repro.serving.faults.FaultInjector` from the pinned campaign seed
and replays a fixed workload, checking after **every** engine step that the
pool-integrity audit (`engine.check_invariants`) is clean, and at the end of
every round that

* every request finished (retried transparently or retired with
  ``FinishReason.ERROR`` after exhausting its budget),
* all surviving requests are **bit-identical** (tokens and log-probs) to a
  fault-free reference run of the same configuration,
* a finally-failed request preserved its error message and traceback, and
* the paged store leaks nothing: once the prefix registry releases its
  pins, every pool page is free with a zero refcount.

Across the whole campaign all six injection points — ``page_alloc``,
``prefill``, ``decode``, ``verify``, ``draft``, ``spill_io`` — must actually
have fired; the two tiered-offload rounds run with tier-0 budgets tight
enough that spill/restore traffic is constant, so mid-transfer faults
exercise the unwind paths (``spill_io`` fires *before* any pool or arena
state mutates, and survivors must still be bit-exact).
Any violation exits non-zero with a replayable fault schedule, so a CI
failure is a one-liner to reproduce locally (see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import CachePolicyConfig  # noqa: E402
from repro.core.policies import WindowAttentionPolicy  # noqa: E402
from repro.generation.sampler import GreedySampler  # noqa: E402
from repro.models.config import GenerationConfig, ModelConfig  # noqa: E402
from repro.models.transformer import DecoderLM  # noqa: E402
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig  # noqa: E402
from repro.serving.faults import INJECTION_POINTS, FaultInjector  # noqa: E402
from repro.serving.request import FinishReason  # noqa: E402
from repro.speculative.config import SpeculationConfig  # noqa: E402

CAMPAIGN_SEED = 20240817
VOCAB = 96
MAX_NEW_TOKENS = 8
PROMPT_LENGTHS = (41, 18, 29, 37)
FAULT_RATE = 0.03

#: Knobs every campaign round shares: a small batch, no prefix sharing (so
#: page ownership stays per request), quarantine on with three quick retries.
BASE_CONFIG = EngineConfig(
    max_batch_size=3,
    enable_prefix_sharing=False,
    fault_tolerant=True,
    max_retries=3,
    retry_backoff_steps=1,
)

_corner = functools.partial(EngineConfig.of, BASE_CONFIG)
_SMALL_POOL = 24 * 16

#: (name, engine config) — the campaign's corners: both KV precisions,
#: speculation on and off, one fixed-size pool config so preemption unwinds
#: interleave with fault unwinds, and two tiered-offload rounds whose tight
#: tier-0 budgets keep spill/restore traffic constant so ``spill_io`` faults
#: land mid-transfer.
CONFIGS = [
    ("fp64-vanilla", BASE_CONFIG),
    ("fp64-vanilla-smallpool", _corner(max_pool_tokens=_SMALL_POOL)),
    ("fp64-spec-ngram", _corner(speculation=SpeculationConfig(k=3))),
    ("int8-vanilla", _corner(kv_dtype="int8")),
    (
        "int8-spec-ngram",
        _corner(kv_dtype="int8", speculation=SpeculationConfig(k=3)),
    ),
    (
        "fp64-offload-compressed",
        _corner(max_pool_tokens=_SMALL_POOL, tier0_budget=160_000, spill_backend="compressed"),
    ),
    (
        "int8-offload-mmap",
        _corner(
            kv_dtype="int8", max_pool_tokens=_SMALL_POOL, tier0_budget=24_000, spill_backend="mmap"
        ),
    ),
]


def build_model() -> DecoderLM:
    """Small pinned-seed decoder shared by every campaign round."""
    return DecoderLM(
        ModelConfig(
            vocab_size=VOCAB,
            d_model=32,
            n_layers=2,
            n_heads=4,
            d_ff=64,
            max_seq_len=256,
            positional="rope",
        ),
        seed=0,
    )


def build_prompts() -> list[np.ndarray]:
    """The fixed mixed-length workload, pinned by the campaign seed."""
    rng = np.random.default_rng(CAMPAIGN_SEED)
    return [rng.integers(0, VOCAB, size=n).astype(np.int64) for n in PROMPT_LENGTHS]


def build_engine(model, config, faults):
    """Assemble one engine for a (precision, speculation, pool, tier) corner."""
    policy_factory = None
    if config.speculation is None:
        policy_factory = lambda: WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
    return ContinuousBatchingEngine(
        model, policy_factory=policy_factory, faults=faults, config=config
    )


def run_round(model, prompts, corner, faults, audit_every_step):
    """Run one workload round; return ``(engine, states, steps, violations)``."""
    name, config = corner
    engine = build_engine(model, config, faults)
    gen = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
    states = [engine.submit(p, gen, sampler=GreedySampler()) for p in prompts]
    steps = 0
    violations: list[str] = []
    while engine.has_work:
        engine.step()
        steps += 1
        if audit_every_step:
            violations.extend(
                f"[{name}] step {steps}: {v}" for v in engine.check_invariants()
            )
    # Zero-leak check: after the registry lets go, every page must be free.
    if engine._manager is not None:
        engine._manager.registry.clear()
        for layer, pool in enumerate(engine._manager.store.pools):
            leaked = int((pool.refcounts != 0).sum())
            if leaked or pool.free_pages != pool.n_pages:
                violations.append(
                    f"[{name}] layer {layer}: {leaked} leaked page(s) after retire"
                )
            arena = getattr(pool, "arena", None)
            # Owned slots, not records: a slot claimed but never mapped to a
            # page (lost between allocation and copy) is a leak too.
            if arena is not None and arena.owned_slots():
                violations.append(
                    f"[{name}] layer {layer}: {arena.owned_slots()} record "
                    f"slot(s) ({len(arena)} spilled page(s)) leaked in the "
                    "tier-1 arena after retire"
                )
    return engine, states, steps, violations


def check_equivalence(name, states, reference, problems):
    """Survivors must be bit-identical to the fault-free reference."""
    for state, ref in zip(states, reference):
        rid = state.request_id
        if not state.finished:
            problems.append(f"[{name}] request {rid} never finished")
            continue
        if state.finish_reason is FinishReason.ERROR:
            if not state.error or not state.error_traceback:
                problems.append(f"[{name}] request {rid} lost its error context")
            continue
        if state.finish_reason is not ref.finish_reason:
            problems.append(
                f"[{name}] request {rid} finish_reason "
                f"{state.finish_reason} != {ref.finish_reason}"
            )
        if state.tokens != ref.tokens:
            problems.append(f"[{name}] request {rid} tokens diverged from reference")
        elif state.result().log_probs != ref.result().log_probs:
            problems.append(f"[{name}] request {rid} log-probs diverged from reference")


def main(argv=None) -> int:
    """Run the campaign; exit non-zero on any violation."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-steps",
        type=int,
        default=1000,
        help="keep adding rounds until the campaign has run this many engine steps",
    )
    parser.add_argument(
        "--rate", type=float, default=FAULT_RATE, help="per-check fault probability"
    )
    args = parser.parse_args(argv)

    model = build_model()
    prompts = build_prompts()
    started = time.perf_counter()

    # One fault-free reference per configuration (the workload is fixed, so
    # the reference is too — every faulted round compares against it).
    references = {}
    for config in CONFIGS:
        _, ref_states, ref_steps, ref_violations = run_round(
            model, prompts, config, faults=None, audit_every_step=True
        )
        if ref_violations:
            print(f"FAILED — fault-free reference for {config[0]} is dirty:")
            for violation in ref_violations:
                print(f"  {violation}")
            return 1
        references[config[0]] = ref_states
        print(f"reference[{config[0]}]: {ref_steps} steps, clean")

    total_steps = 0
    total_faults = 0
    total_retries = 0
    total_errors = 0
    fired_points: set[str] = set()
    problems: list[str] = []
    round_index = 0
    while total_steps < args.min_steps:
        config = CONFIGS[round_index % len(CONFIGS)]
        name = config[0]
        fault_seed = CAMPAIGN_SEED + round_index
        faults = FaultInjector(rate=args.rate, seed=fault_seed)
        engine, states, steps, violations = run_round(
            model, prompts, config, faults, audit_every_step=True
        )
        total_steps += steps
        total_faults += len(faults.fired)
        telemetry = engine.fault_telemetry()
        total_retries += telemetry["retries"]
        total_errors += sum(1 for s in states if s.finish_reason is FinishReason.ERROR)
        fired_points.update(point for point, _ in faults.fired)
        if violations:
            problems.extend(violations)
        check_equivalence(name, states, references[name], problems)
        if problems:
            print(f"FAILED at round {round_index} ({name}, seed {fault_seed}):")
            for problem in problems:
                print(f"  {problem}")
            print(f"  replay schedule: {faults.fired_schedule()!r}")
            return 1
        round_index += 1

    missing = set(INJECTION_POINTS) - fired_points
    elapsed = time.perf_counter() - started
    print(
        f"chaos campaign: {round_index} rounds, {total_steps} engine steps, "
        f"{total_faults} faults fired ({total_retries} retries, "
        f"{total_errors} quarantined), {elapsed:.1f}s"
    )
    print(f"injection points fired: {sorted(fired_points)}")
    if missing:
        print(f"FAILED — injection points never fired: {sorted(missing)}")
        return 1
    print("OK — zero integrity violations, zero leaks, survivors bit-exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
