"""Reach audit: which functions under ``src/repro`` the drivers enter.

    python3 tools/reach.py [--output reports/reach.json]

Every driver (:func:`drivers`: the examples, the end-to-end benchmark, the
load and chaos harnesses, the microbenchmarks, every experiment id and the
paper-figure benchmarks) runs in a fresh interpreter with a generated
``sitecustomize.py`` first on ``PYTHONPATH``.  The recorder notes the code
object of every ``call`` event through :func:`sys.setprofile` and
:func:`threading.setprofile`, and at exit writes out those whose file lies
under ``src/repro`` — from ``atexit``, and from a wrapped ``os._exit`` for
``multiprocessing`` workers — so child interpreters and replica workers
count too.  Tests are not drivers.

A recorded code object is matched to the ``def`` whose first line, counting
decorators, is its ``co_firstlineno``.  Every function no driver entered must
be a protocol stub (its body is only a docstring, ``...``, ``pass`` or
``raise NotImplementedError``, or it is an ``@abstractmethod``), a dunder, or
covered by exactly one ledger: ``KEPT`` in ``tests/test_public_surface.py``
or :data:`REACH_KEPT` here.  An entry covers a function when it is the
function's qualified name or a dotted prefix of it, so a class entry covers
its methods.  The run exits 1 on a function that is none of these, on one
that both ledgers cover, and on a :data:`REACH_KEPT` entry that covers no
never-entered function (a driver entered it, or it names nothing).

The report (``--output``) is sorted and holds no timings, so two runs give
the same bytes.  The drivers run one at a time and take about ten minutes
on two cores with a warm model cache, twenty with a cold one, which trains
the zoo models.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SURFACE_TEST = ROOT / "tests" / "test_public_surface.py"

#: Functions no driver enters, kept for a reason; qualified name or class.
REACH_KEPT = {
    # Safety code: audits, fault repro, failure and recovery paths.
    "WTinyLFUAdmissionPolicy.audit": "admission audit of the pool-integrity check",
    "PrefixRegistry._has_freeable_ancestor": "reclaim fallback when no leaf chunk is freeable",
    "PagedKVStore.min_free_pages": "pre-decode preemption check when a step would exhaust the pool",
    "BlockPool.slot_map": "gather of a fragmented table outside the identity, bump and shift paths",
    "QuantizedBlockPool._grow_page_state": "a growable int8 pool grows its quantization tensors",
    "_RecordArena.close": "releases a spill arena's map",
    "FaultInjector.fired_schedule": "one-line repro of a chaos failure",
    "FaultInjector.replay": "one-line repro of a chaos failure",
    "_ProcessReplica._died": "a replica worker died (tests kill one)",
    "_ProcessReplica.kill": "hard-kills a replica worker (tests kill one)",
    "_InlineReplica.kill": "the inline backend's replica death",
    "ShardedEngine._on_replica_death": "re-routes a dead replica's requests",
    "ShardedEngine.abort": "client cancellation through the sharded front-end",
    "_ReplicaServer._cmd_abort": "client cancellation through the sharded front-end",
    "ShardedEngine.stats": "per-replica router and engine counters",
    "_ReplicaServer._cmd_stats": "per-replica router and engine counters",
    "ShardedEngine.n_in_flight": "requests in flight across replicas",
    "ShardedRequest.finished": "a sharded request's completion, as on the solo engine",
    "ShardedRequest.result": "a sharded request's output, as on the solo engine",
    # Test oracles.
    "BatchedLayerKVCache.keys": "test oracle: every row's keys",
    "BatchedLayerKVCache.positions": "test oracle: every row's positions",
    "BatchedLayerKVCache._all_rows": "test oracle: the reader behind keys and positions",
    "BatchedLayerKVCache.capacity": "test oracle: the largest allocated row span",
    "BatchedCacheManager.cache_lengths": "test oracle: per-layer cache lengths of a row",
    "_TieredMixin.tier_page_state": "test oracle: the resident-XOR-spilled invariant",
    "PagedKVStore.pool": "test oracle: one layer's block pool",
    "BaseScore.set": "test oracle: installs a layer's scores",
    "RopeTable.capacity": "test oracle: positions the shared table holds",
    # Entry points no driver calls.
    "ContinuousBatchingEngine.abort": "client cancellation",
    "FCFSScheduler.cancel": "client cancellation of a queued request",
    "FCFSScheduler.admit": "the reserving admission path; the e2e tracer names it",
    "_merge_results": "folds the batch front-end's per-request results",
    "BeamSearchResult.tokens": "the best beam's tokens",
    "CacheManager.reorder": "beam search's hypothesis reorder",
    "SpeculativeGenerator.generate": "solo speculative decoding; the speculative golden calls it",
    "TraceEvent.to_dict": "trace files of run_load.py --trace-out",
    "TraceEvent.from_dict": "trace files of run_load.py --trace-out",
    "Trace.to_dict": "trace files of run_load.py --trace-out",
    "Trace.to_json": "trace files of run_load.py --trace-out",
    "Trace.from_dict": "trace files of run_load.py --trace-out",
    "WorkloadConfig.to_dict": "trace files of run_load.py --trace-out",
    "WorkloadConfig.from_dict": "trace files of run_load.py --trace-out",
    # Algorithm parts no workload reaches.
    "EvictionPolicy.step_selection": "the policy hook's default; every policy overrides it",
    "LRUAdmissionPolicy.segment_of": "admission protocol; only W-TinyLFU ranks spill victims",
    "FrequencySketch._age": "sketch aging, past any driver's sample size",
    "PrefixRegistry.page_heat": "spill ranking under W-TinyLFU with offload",
    "KeyformerScore._zeta_for": "the resample='fixed' noise mode",
    "BatchedLayerKVCache.positions_row": "key positions for a resample='fixed' Keyformer row",
    # Training code.
    "Trainer._log": "training progress lines when log_every > 0",
}

#: The ``sitecustomize.py`` the drivers import first.  It reads the package
#: directory and the record directory from the environment.
RECORDER = '''\
import atexit
import os
import sys
import threading

_PACKAGE = os.environ["REPRO_REACH_PACKAGE"]
_RECORDS = os.environ["REPRO_REACH_RECORDS"]
_CODES = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _CODES[id(code)] = code


def _dump():
    lines = set()
    for code in list(_CODES.values()):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_PACKAGE + os.sep):
            lines.add(f"{path}\\t{code.co_firstlineno}\\n")
    name = f"{os.getpid()}-{os.urandom(6).hex()}.rec"
    with open(os.path.join(_RECORDS, name), "w") as out:
        out.writelines(sorted(lines))


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` under the audited package."""

    path: str  # relative to the package's parent, posix
    qualname: str
    line: int  # first line, decorators included
    end: int
    stub: bool

    @property
    def key(self) -> str:
        """``path::qualname``, the function's name in the report."""
        return f"{self.path}::{self.qualname}"

    @property
    def dunder(self) -> bool:
        """True for ``__name__`` methods."""
        name = self.qualname.rsplit(".", 1)[-1]
        return name.startswith("__") and name.endswith("__")


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A protocol stub: an ``@abstractmethod``, or a body of only a
    docstring, ``...``, ``pass`` or ``raise NotImplementedError``."""
    for deco in node.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
        if name == "abstractmethod":
            return True
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring, or a lone ``...``
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            if stmt.value.value is Ellipsis:
                continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def definitions(package: Path) -> list[Function]:
    """Every function and method under ``package``, nested ones included."""
    found = []

    def walk(nodes, prefix: str, path: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append(Function(path, qualname, first, node.end_lineno, _is_stub(node)))
                walk(node.body, qualname + ".<locals>.", path)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", path)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, ()), prefix, path)

    for file in sorted(package.rglob("*.py")):
        rel = file.relative_to(package.parent).as_posix()
        walk(ast.parse(file.read_text()).body, "", rel)
    return found


def load_records(records: Path, package: Path) -> set[tuple[str, int]]:
    """``(path, first line)`` of every code object a driver entered."""
    base = package.resolve().parent
    entered = set()
    for file in records.glob("*.rec"):
        for line in file.read_text().splitlines():
            path, first = line.rsplit("\t", 1)
            entered.add((Path(path).relative_to(base).as_posix(), int(first)))
    return entered


def surface_kept(path: Path = SURFACE_TEST) -> dict[str, str]:
    """The ``KEPT`` ledger of the public-surface guard, read without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "KEPT" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError(f"no KEPT ledger in {path}")


def covering(qualname: str, ledger: dict[str, str]) -> str | None:
    """The ledger entry that covers ``qualname`` (itself or a dotted prefix)."""
    parts = qualname.split(".")
    for i in range(len(parts), 0, -1):
        if ".".join(parts[:i]) in ledger:
            return ".".join(parts[:i])
    return None


def audit(
    functions: list[Function],
    entered: set[tuple[str, int]],
    kept: dict[str, str],
    reach_kept: dict[str, str],
) -> dict:
    """Classify every never-entered function; the report as a dict."""
    missed, problems = [], []
    used_reach = set()
    for fn in sorted(functions, key=lambda f: (f.path, f.line)):
        if (fn.path, fn.line) in entered:
            continue
        by_kept = covering(fn.qualname, kept)
        by_reach = covering(fn.qualname, reach_kept)
        if by_reach is not None:
            used_reach.add(by_reach)
        if fn.stub:
            reason, entry = "stub", None
        elif fn.dunder:
            reason, entry = "dunder", None
        elif by_kept is not None and by_reach is not None:
            problems.append(f"{fn.key}: covered by KEPT[{by_kept!r}] and REACH_KEPT[{by_reach!r}]")
            continue
        elif by_kept is not None:
            reason, entry = "KEPT", by_kept
        elif by_reach is not None:
            reason, entry = "REACH_KEPT", by_reach
        else:
            problems.append(f"{fn.key}: never entered and not classified")
            continue
        missed.append(
            {"function": fn.key, "lines": fn.end - fn.line + 1, "reason": reason, "entry": entry}
        )
    for entry in sorted(set(reach_kept) - used_reach):
        problems.append(f"REACH_KEPT[{entry!r}] covers no never-entered function")
    by_reason: dict[str, int] = {}
    for item in missed:
        by_reason[item["reason"]] = by_reason.get(item["reason"], 0) + 1
    return {
        "functions": len(functions),
        "entered": sum(1 for fn in functions if (fn.path, fn.line) in entered),
        "never_entered": missed,
        "never_entered_lines": sum(item["lines"] for item in missed),
        "by_reason": by_reason,
        "problems": problems,
    }


def drivers(scratch: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """``(name, argv, extra environment)`` of every driver, run from the repo root."""
    py = sys.executable
    found = [
        (
            "examples/quickstart.py (cold model cache)",
            [py, "examples/quickstart.py"],
            {"KEYFORMER_REPRO_CACHE": str(scratch / "cold-cache")},
        )
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        if example.name != "quickstart.py":
            found.append((f"examples/{example.name}", [py, f"examples/{example.name}"], {}))
    e2e = "benchmarks/e2e/run.py"
    found.append((f"{e2e} --smoke", [py, e2e, "--smoke"], {}))
    for workload in ("solo_full_long", "solo_keyformer_long", "serve_shared_mix",
                     "serve_keyformer_long", "serve_offload_tight"):
        for trace in ("0", "1"):
            argv = [e2e, "--workload", workload, "--trace", trace, "--seconds", "2"]
            found.append((" ".join(argv), [py, *argv], {}))
    load = "tools/run_load.py"
    for extra in (["--smoke"], ["--smoke", "--replicas", "1"], ["--smoke", "--replicas", "2"], []):
        argv = [load, *extra, "--output", str(scratch / f"load{len(found)}.json")]
        found.append((" ".join([load, *extra]), [py, *argv], {}))
    found.append(("tools/run_chaos.py", [py, "tools/run_chaos.py"], {}))
    bench = ["benchmarks/run_bench.py", "--smoke", "--output", str(scratch / "bench.json")]
    found.append(("benchmarks/run_bench.py --smoke", [py, *bench], {}))
    from repro.experiments.cli import EXPERIMENTS

    for name in sorted(EXPERIMENTS):
        argv = ["-m", "repro.experiments", name, "--limit", "2"]
        found.append((f"python {' '.join(argv)}", [py, *argv], {}))
    benches = sorted(
        p.relative_to(ROOT).as_posix() for p in (ROOT / "benchmarks").glob("bench_*.py")
    )
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", *benches]
    found.append((f"pytest {len(benches)} benchmarks/bench_*.py", pytest, {}))
    return found


def run_drivers(records: Path, scratch: Path) -> list[str]:
    """Run every driver, one at a time, under the recorder, writing their
    outputs under ``scratch``; the names of those that failed."""
    records.mkdir(parents=True, exist_ok=True)
    (records / "sitecustomize.py").write_text(RECORDER)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(records), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["REPRO_REACH_PACKAGE"] = str(PACKAGE.resolve())
    env["REPRO_REACH_RECORDS"] = str(records.resolve())
    failed = []
    for index, (name, argv, extra) in enumerate(drivers(scratch)):
        start = time.perf_counter()
        log = scratch / f"driver{index:02d}.log"
        with open(log, "w") as out:
            code = subprocess.call(argv, cwd=ROOT, env={**env, **extra}, stdout=out, stderr=out)
        print(f"[{time.perf_counter() - start:6.1f} s] exit {code}  {name}", file=sys.stderr)
        if code:
            failed.append(name)
            print("".join(log.read_text().splitlines(True)[-20:]), file=sys.stderr)
    return failed


def main(argv: list[str] | None = None) -> int:
    """Run the drivers, audit the records, write the report; 1 on a finding."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=ROOT / "reports" / "reach.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        records = Path(scratch) / "records"
        failed = run_drivers(records, Path(scratch))
        report = audit(
            definitions(PACKAGE),
            load_records(records, PACKAGE),
            surface_kept(SURFACE_TEST),
            REACH_KEPT,
        )
    report["problems"] += [f"driver failed: {name}" for name in failed]
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(
        f"reach: {report['entered']} of {report['functions']} functions entered; "
        f"never entered: {report['by_reason']}; report: {args.output}"
    )
    for problem in report["problems"]:
        print(f"  {problem}")
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
