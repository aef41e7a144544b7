"""Trace-driven load harness: replay a seeded workload, report percentiles.

``make load`` runs this script: it generates a seeded trace (Poisson or
bursty arrivals, Zipf-shared prompt prefixes, mixed lengths and SLO tiers),
replays it through a :class:`~repro.serving.engine.ContinuousBatchingEngine`
in virtual step-time (:mod:`repro.perfmodel.serving`), and writes a
deterministic JSON report of per-request TTFT/TPOT/E2E percentiles,
per-tier goodput and engine telemetry.  ``make load-smoke`` runs the pinned
smoke configuration, replays it **twice** and asserts the two reports are
byte-identical and carry the expected schema — the determinism contract CI
gates on (the report is uploaded as a build artifact).

Knobs worth turning (see ``docs/workloads.md`` for the full story):

* ``--arrival bursty`` — Markov-modulated bursts instead of Poisson.
* ``--chunk-tokens N`` — chunked-prefill budget (0 disables); watch p99
  TTFT drop as long prompts stop stalling their neighbours.
* ``--scheduler priority`` — SLO-tiered admission + priority preemption;
  compare the per-tier TTFT sections of the report.
* ``--replicas N`` — replay through a
  :class:`~repro.serving.sharded.ShardedEngine` of N engine replicas
  behind the prefix-affinity router (0 = plain single engine); see
  ``docs/sharding.md``.  ``--smoke --replicas 1`` additionally asserts the
  sharded report's engine+latency sections are byte-identical to the
  single-engine report (the routing-never-changes-output contract).

Example::

    python tools/run_load.py --arrival bursty --chunk-tokens 32 \
        --scheduler priority --output reports/load_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.models.config import ModelConfig  # noqa: E402
from repro.models.transformer import DecoderLM  # noqa: E402
from repro.perfmodel.serving import StepCostModel  # noqa: E402
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig  # noqa: E402
from repro.serving.scheduler import PagedScheduler  # noqa: E402
from repro.serving.sharded import ReplicaSpec, ShardedEngine  # noqa: E402
from repro.serving.slo import SLOSpec  # noqa: E402
from repro.serving.workload import (  # noqa: E402
    Trace,
    WorkloadConfig,
    generate_trace,
    replay_trace,
)
from repro.serving.slo import PriorityScheduler  # noqa: E402

#: Keys the smoke check requires in the latency section of the report.
REPORT_SCHEMA_KEYS = (
    "n_requests",
    "n_completed",
    "finish_reasons",
    "ttft",
    "tpot",
    "e2e",
    "per_tier",
    "goodput",
    "throughput",
)


def model_config(args: argparse.Namespace) -> ModelConfig:
    """The small rope model config the harness drives (CPU-friendly)."""
    return ModelConfig(
        vocab_size=args.vocab_size,
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=128,
        max_seq_len=512,
        positional="rope",
    )


def build_model(args: argparse.Namespace) -> DecoderLM:
    """The seeded harness model (every sharded replica rebuilds the same)."""
    return DecoderLM(model_config(args), seed=0)


def engine_config(args: argparse.Namespace) -> EngineConfig:
    """The engine knobs implied by the CLI flags — one config for the single
    engine and for every sharded replica."""
    chunk = args.chunk_tokens if args.chunk_tokens > 0 else None
    return EngineConfig(max_batch_size=args.max_batch_size, prefill_chunk_tokens=chunk)


def build_engine(model: DecoderLM, args: argparse.Namespace) -> ContinuousBatchingEngine:
    """A fresh engine wired with the requested scheduler and chunk budget."""
    config = engine_config(args)
    sched_cls = PriorityScheduler if args.scheduler == "priority" else PagedScheduler
    return ContinuousBatchingEngine(
        model, scheduler=config.build_scheduler(sched_cls), config=config
    )


def workload_config(args: argparse.Namespace) -> WorkloadConfig:
    """The trace-generator config implied by the CLI flags."""
    return WorkloadConfig(
        n_requests=args.n_requests,
        vocab_size=args.vocab_size,
        arrival=args.arrival,
        mean_interarrival=args.mean_interarrival,
        prompt_len_range=(8, 96),
        suffix_len_range=(4, 32),
        output_len_choices=(4, 16, 48),
        output_len_weights=(0.3, 0.5, 0.2),
        tier_weights={0: 0.3, 1: 0.5, 2: 0.2},
    )


def build_sharded(args: argparse.Namespace) -> ShardedEngine:
    """A sharded front-end over ``--replicas`` engine replicas."""
    spec = ReplicaSpec(
        model_config=model_config(args),
        model_seed=0,
        scheduler=args.scheduler,
        config=engine_config(args),
    )
    return ShardedEngine(spec, args.replicas, backend=args.replica_backend)


def run_once(model: DecoderLM, trace: Trace, args: argparse.Namespace) -> dict:
    """One full replay; returns the structured report dict."""
    sharded = args.replicas > 0
    engine = build_sharded(args) if sharded else build_engine(model, args)
    cost = StepCostModel()
    slo = SLOSpec.three_tier(ttft=args.slo_ttft, e2e=args.slo_e2e)
    try:
        result = replay_trace(engine, trace, cost, slo=slo)
    finally:
        if sharded:
            engine.shutdown()
    return {
        "harness": {
            "seed": args.seed,
            "arrival": args.arrival,
            "n_requests": args.n_requests,
            "chunk_tokens": args.chunk_tokens,
            "scheduler": args.scheduler,
            "max_batch_size": args.max_batch_size,
            "replicas": args.replicas,
            "slo": {"ttft": args.slo_ttft, "e2e": args.slo_e2e},
            "cost_model": {
                "fixed": cost.fixed,
                "per_prefill_token": cost.per_prefill_token,
                "per_decode_row": cost.per_decode_row,
            },
        },
        "engine": result.engine_stats,
        "latency": result.report.to_dict(),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-requests", type=int, default=64)
    parser.add_argument("--vocab-size", type=int, default=256)
    parser.add_argument("--arrival", choices=("poisson", "bursty"), default="poisson")
    parser.add_argument("--mean-interarrival", type=float, default=8.0)
    parser.add_argument(
        "--chunk-tokens",
        type=int,
        default=32,
        help="chunked-prefill budget in tokens (0 disables chunking)",
    )
    parser.add_argument("--scheduler", choices=("paged", "priority"), default="priority")
    parser.add_argument("--max-batch-size", type=int, default=4)
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="replay through a ShardedEngine of N replicas (0 = single engine)",
    )
    parser.add_argument(
        "--replica-backend",
        choices=("process", "inline"),
        default="process",
        help="sharded backend: multiprocessing workers or in-process replicas",
    )
    parser.add_argument("--slo-ttft", type=float, default=200.0)
    parser.add_argument("--slo-e2e", type=float, default=1200.0)
    parser.add_argument("--output", type=Path, default=Path("reports/load_report.json"))
    parser.add_argument(
        "--trace-out", type=Path, default=None, help="also write the trace as JSON"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="pinned tiny trace; replay twice and assert byte-identical reports",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.n_requests = 16
        args.mean_interarrival = 6.0

    trace = generate_trace(workload_config(args), seed=args.seed)
    if args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(trace.to_json(indent=2) + "\n")
        print(f"trace ({len(trace)} events) -> {args.trace_out}")

    model = build_model(args)
    report = run_once(model, trace, args)
    text = json.dumps(report, indent=2, sort_keys=True)

    if args.smoke:
        second = json.dumps(run_once(model, trace, args), indent=2, sort_keys=True)
        if text != second:
            print("FAIL: two replays of the same trace produced different reports")
            return 1
        missing = [k for k in REPORT_SCHEMA_KEYS if k not in report["latency"]]
        if missing:
            print(f"FAIL: report missing latency keys: {missing}")
            return 1
        if args.replicas == 1:
            # The sharded bit-exactness contract at N=1: same engine stats,
            # same latency report, byte for byte, as the plain engine.
            solo_args = argparse.Namespace(**vars(args))
            solo_args.replicas = 0
            solo = run_once(model, trace, solo_args)
            for section in ("engine", "latency"):
                ours = json.dumps(report[section], indent=2, sort_keys=True)
                theirs = json.dumps(solo[section], indent=2, sort_keys=True)
                if ours != theirs:
                    print(
                        f"FAIL: sharded N=1 {section} report differs from "
                        "the single-engine report"
                    )
                    return 1
            print("smoke OK: sharded N=1 byte-identical to single engine")
        print("smoke OK: byte-identical replays, schema complete")

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(text + "\n")
    lat = report["latency"]
    print(
        f"{lat['n_completed']}/{lat['n_requests']} completed | "
        f"goodput {lat['goodput']:.3f} | "
        f"TTFT p50/p99 {lat['ttft']['p50']:.1f}/{lat['ttft']['p99']:.1f} | "
        f"TPOT p50 {lat['tpot']['p50']:.2f} | "
        f"chunks {report['engine']['n_prefill_chunks']} "
        f"preempts {report['engine']['n_preemptions']}"
    )
    print(f"report -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
