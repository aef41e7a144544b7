"""Wall-clock end-to-end benchmark of the Keyformer serving stack.

    python3 benchmarks/e2e/run.py                       # every workload, untraced + traced
    python3 benchmarks/e2e/run.py --workload NAME       # one workload, both runs
    python3 benchmarks/e2e/run.py --workload NAME --seed 3 --seconds 15 --trace 0

With ``--workload NAME --trace 0|1`` the workload runs in this process and
the last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``): the end-to-end metrics of untraced
rounds for ``--trace 0``, the per-layer metrics of traced rounds for
``--trace 1``.  Otherwise each workload gets a fresh interpreter per run, the
two runs' exact counters are compared, and every metric is printed by name.
See README.md in this directory.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before NumPy loads: the load generator and the
# program share one driver thread on a 2-core sandbox.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REPORTS = ROOT / "reports" / "e2e"
#: Fresh-interpreter set-ups per run (this process plus probes); ``setup_s``
#: is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 600


def _retain_freed_memory() -> bool:
    """Make glibc serve every allocation from the heap and never trim it.

    By default each prompt pass maps and unmaps hundreds of MiB, and on this
    microVM the page faults of mapping them again cost 0.1-1.5 s of kernel
    time per request (up to half of TTFT) and vary fivefold from run to run.
    With freed memory kept in the process, first-touch cost is paid in the
    warm-up round (reported as ``cold_round_s``) and the timed rounds
    measure the program.  Returns False where ``mallopt`` is not available.
    """
    m_trim_threshold, m_mmap_max = -1, -4
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(m_mmap_max, 0) and mallopt(m_trim_threshold, 2**31 - 1))


def _spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="seed of the token ids")
    parser.add_argument("--seconds", type=float, help="timed phase per run (BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0 untraced, 1 traced")
    parser.add_argument("--repeat", type=int, default=1, help="repeat and print the spread")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    parser.add_argument("--setup-only", action="store_true", help="set up, print setup_s, exit")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(_spec()["run_seconds"])
    return args


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _meta(bench, measurement, heap_retained: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "heap_retained": heap_retained,
        "git_commit": commit or "unknown",
        "clients": bench.workload.n_clients,
        "requests_per_round": len(bench.requests),
        "untraced_rounds": len(measurement.untraced),
        "traced_rounds": len(measurement.traced),
    }


def _run_child(args, workload: str, *extra: str) -> subprocess.CompletedProcess:
    """This script on ``workload`` in a fresh interpreter, same seed and size."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed)]
    cmd += ["--smoke"] if args.smoke else []
    return subprocess.run(
        cmd + list(extra), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def _probe_setup(args) -> float:
    """Set the workload up in a fresh interpreter; its own ``setup_s``."""
    out = _run_child(args, args.workload, "--setup-only")
    out.check_returncode()
    return float(out.stdout.strip().splitlines()[-1])


def run_single(args) -> int:
    """Run one workload here; print its metrics and the result line."""
    heap_retained = _retain_freed_memory()
    sys.path.insert(0, str(ROOT / "src"))
    import e2e_workloads as wl
    from e2e_trace import LAYER_METRICS

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {list(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    bench = wl.set_up(workload, args.seed, args.smoke)
    setup_samples = [time.perf_counter() - _PROCESS_START]
    if args.setup_only:
        print(repr(setup_samples[0]))
        return 0

    wl.warm_up(bench)
    measurement = wl.measure(bench, args.seconds, trace=bool(args.trace))
    rounds = [bench.warm] + measurement.untraced + measurement.traced
    checked, inexact, mismatches = wl.verify(bench)
    setup_samples += [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    failures = [p for rnd in rounds for p in rnd.failed] + mismatches
    problems = measurement.problems
    attempted = len(rounds) * len(bench.requests)

    if args.trace:
        units = LAYER_METRICS
        values = {
            name: statistics.median(m[name] for m in measurement.layer) for name in units
        }
        measurement.last_tracer.write(REPORTS / f"{workload.name}.seed{args.seed}.spans.json")
    else:
        units = wl.END_TO_END
        values = wl.end_to_end_metrics(measurement, statistics.median(setup_samples))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    extras = {name: {"value": v, "unit": "s"} for name, v in values.items() if name not in units}
    extras["cold_round_s"] = {"value": bench.warm.wall_s, "unit": "s"}

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "meta": _meta(bench, measurement, heap_retained),
        "counters": bench.warm.counters,
        "samples": {
            "ttft": sum(len(r.ttft) for r in measurement.untraced),
            "token_gaps": sum(len(r.gaps) for r in measurement.untraced),
            "verified_requests": checked,
            "verified_logprobs_not_bit_identical": inexact,
        },
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "oracle_problems": problems,
        "metrics": metrics,
        "not_in_contract": extras,
    }
    REPORTS.mkdir(parents=True, exist_ok=True)
    with (REPORTS / f"{workload.name}.seed{args.seed}.trace{args.trace}.json").open("w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {workload.name} seed={args.seed} trace={args.trace} {report['meta']}")
    print(f"# samples {report['samples']}")
    for name, entry in {**metrics, **extras}.items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_share':36s} {report['failed_share']:.6g} ratio")
    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# every workload, each run in a fresh interpreter
# ----------------------------------------------------------------------
def _child(args, workload: str, trace: int) -> tuple[int, dict]:
    """Run one workload in a fresh interpreter; its exit code and report."""
    out = _run_child(args, workload, "--trace", str(trace), "--seconds", str(args.seconds))
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):  # died before its result line
        print("\n".join(lines))
        return out.returncode or 1, {}
    print("\n".join(lines[:-1]))
    with (REPORTS / f"{workload}.seed{args.seed}.trace{trace}.json").open() as fh:
        return out.returncode, json.load(fh)


def _spread_line(name: str, unit: str, values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return f"{name:36s} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"


def run_all(args) -> int:
    """Run the chosen workloads untraced and traced, ``--repeat`` times."""
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    status = 0
    for name in names:
        history: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        pinned = None
        for _ in range(args.repeat):
            for trace in ([0, 1] if args.trace is None else [args.trace]):
                code, report = _child(args, name, trace)
                status = status or code
                if not report:
                    continue
                # Same inputs, so the exact counters must repeat — across
                # the untraced run, the traced run and every repetition.
                pinned = pinned or report["counters"]
                if report["counters"] != pinned:
                    print(f"FAILED {name}: counters changed between runs", file=sys.stderr)
                    status = 1
                for metric, entry in report["metrics"].items():
                    history.setdefault(metric, []).append(entry["value"])
                    units[metric] = entry["unit"]
        if args.repeat >= 2:
            print(f"# {name}: {args.repeat} runs")
            for metric, values in history.items():
                print(_spread_line(metric, units[metric], values))
    print("OK" if status == 0 else "FAILED")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_only or (args.workload != "all" and args.trace is not None and args.repeat == 1):
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
