"""The reach audit of ``tools/reach.py`` over a tiny synthetic package: the
definition index, stub detection, the two ledgers and the recorder."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
sys.modules["reach"] = reach  # dataclasses look their module up
_spec.loader.exec_module(reach)

MODULE = textwrap.dedent(
    '''\
    """A synthetic module."""
    import functools
    from abc import ABC, abstractmethod


    def plain():
        return 1


    @functools.lru_cache(
        maxsize=None,
    )
    def decorated():
        return 2


    class Proto(ABC):
        @abstractmethod
        def run(self):
            return 0

        def ellipsis(self):
            ...

        def documented(self):
            """Only a docstring."""

        def passes(self):
            pass

        def unimplemented(self):
            raise NotImplementedError("subclass")

        def __repr__(self):
            return "Proto"


    class Worker:
        def work(self):
            def helper():
                return 3

            return helper()

        def idle(self):
            return None


    def child():
        return 4
    '''
)


@pytest.fixture()
def package(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(MODULE)
    return pkg


def _by_name(functions):
    return {fn.qualname: fn for fn in functions}


def _line_of(text):
    return MODULE.splitlines().index(text) + 1


class TestDefinitions:
    def test_first_line_counts_decorators(self, package):
        functions = _by_name(reach.definitions(package))
        assert functions["decorated"].line == _line_of("@functools.lru_cache(")
        assert functions["plain"].line == _line_of("def plain():")
        assert functions["Worker.work.<locals>.helper"].path == "pkg/mod.py"

    def test_decorated_code_object_matches_its_def(self, package, monkeypatch):
        """``co_firstlineno`` of a decorated function is its first decorator,
        which is the line the index keys it by."""
        monkeypatch.syspath_prepend(str(package.parent))
        import pkg.mod

        functions = _by_name(reach.definitions(package))
        code = pkg.mod.decorated.__wrapped__.__code__
        assert code.co_firstlineno == functions["decorated"].line
        sys.modules.pop("pkg.mod")
        sys.modules.pop("pkg")

    def test_stubs(self, package):
        functions = _by_name(reach.definitions(package))
        stubs = {name for name, fn in functions.items() if fn.stub}
        assert stubs == {
            "Proto.run",
            "Proto.ellipsis",
            "Proto.documented",
            "Proto.passes",
            "Proto.unimplemented",
        }
        assert functions["Proto.__repr__"].dunder and not functions["Proto.__repr__"].stub


class TestAudit:
    def _entered(self, package, *names):
        functions = _by_name(reach.definitions(package))
        return {(functions[n].path, functions[n].line) for n in names}

    def _audit(self, package, entered, kept=None, reach_kept=None):
        return reach.audit(
            reach.definitions(package),
            self._entered(package, *entered),
            kept or {},
            reach_kept or {},
        )

    def test_every_never_entered_function_needs_a_reason(self, package):
        report = self._audit(package, ["plain", "decorated", "Worker.work"])
        assert report["entered"] == 3
        assert report["problems"] == [
            "pkg/mod.py::Worker.work.<locals>.helper: never entered and not classified",
            "pkg/mod.py::Worker.idle: never entered and not classified",
            "pkg/mod.py::child: never entered and not classified",
        ]
        assert report["by_reason"] == {"stub": 5, "dunder": 1}

    def test_either_ledger_covers_and_a_class_covers_its_methods(self, package):
        report = self._audit(
            package,
            ["plain", "decorated"],
            kept={"Worker": "a kept class"},
            reach_kept={"child": "a stated reason"},
        )
        assert report["problems"] == []
        reasons = {
            item["function"]: (item["reason"], item["entry"]) for item in report["never_entered"]
        }
        assert reasons["pkg/mod.py::Worker.idle"] == ("KEPT", "Worker")
        assert reasons["pkg/mod.py::Worker.work.<locals>.helper"] == ("KEPT", "Worker")
        assert reasons["pkg/mod.py::child"] == ("REACH_KEPT", "child")
        assert report["by_reason"] == {"stub": 5, "dunder": 1, "KEPT": 3, "REACH_KEPT": 1}

    def test_a_function_in_both_ledgers_fails(self, package):
        report = self._audit(
            package,
            ["plain", "decorated", "Worker.work", "Worker.work.<locals>.helper", "Worker.idle"],
            kept={"child": "one reason"},
            reach_kept={"child": "another reason"},
        )
        assert report["problems"] == [
            "pkg/mod.py::child: covered by KEPT['child'] and REACH_KEPT['child']"
        ]

    def test_a_reach_kept_entry_a_driver_entered_is_stale(self, package):
        entered = [
            "plain", "decorated", "Worker.work", "Worker.work.<locals>.helper", "Worker.idle"
        ]
        report = self._audit(
            package,
            entered + ["child"],
            reach_kept={"child": "no longer true", "Gone.method": "names nothing"},
        )
        assert report["problems"] == [
            "REACH_KEPT['Gone.method'] covers no never-entered function",
            "REACH_KEPT['child'] covers no never-entered function",
        ]

    def test_covering_is_by_dotted_prefix(self):
        ledger = {"Worker": "", "Worker.work.<locals>.helper": ""}
        assert reach.covering("Worker.idle", ledger) == "Worker"
        helper = "Worker.work.<locals>.helper"
        assert reach.covering(helper, ledger) == helper
        assert reach.covering("Workers.idle", ledger) is None

    def test_surface_ledger_is_read_without_import(self):
        kept = reach.surface_kept()
        assert kept and all(isinstance(v, str) and v for v in kept.values())


def test_recorder_sees_child_processes(package, tmp_path):
    """The generated ``sitecustomize`` records the calls of the interpreter
    and of a ``multiprocessing`` worker, which leaves through ``os._exit``."""
    records = tmp_path / "records"
    records.mkdir()
    (records / "sitecustomize.py").write_text(reach.RECORDER)
    driver = textwrap.dedent(
        """\
        import multiprocessing as mp
        import pkg.mod

        pkg.mod.plain()
        if __name__ == "__main__":
            worker = mp.get_context("fork").Process(target=pkg.mod.child)
            worker.start()
            worker.join()
            assert worker.exitcode == 0
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(records), str(package.parent)])
    env["REPRO_REACH_PACKAGE"] = str(package.resolve())
    env["REPRO_REACH_RECORDS"] = str(records)
    subprocess.run([sys.executable, "-c", driver], env=env, check=True, cwd=tmp_path)
    assert len(list(records.glob("*.rec"))) == 2  # the driver and its worker
    report = reach.audit(
        reach.definitions(package), reach.load_records(records, package), {}, {}
    )
    never = {item["function"] for item in report["never_entered"]}
    problems = "\n".join(report["problems"])
    assert "pkg/mod.py::plain" not in problems and "pkg/mod.py::child" not in problems
    assert "pkg/mod.py::Worker.idle: never entered" in problems
    assert never == {f"pkg/mod.py::{name}" for name in (
        "Proto.run", "Proto.ellipsis", "Proto.documented", "Proto.passes",
        "Proto.unimplemented", "Proto.__repr__",
    )}


@pytest.mark.parametrize(
    "body, stub",
    [
        ("async def f():\n    ...\n", True),
        ("def f():\n    raise NotImplementedError\n", True),
        ('def f():\n    """Doc."""\n    pass\n', True),
        ("def f():\n    return None\n", False),
    ],
    ids=["async-ellipsis", "bare-raise", "docstring-pass", "return-none"],
)
def test_stub_detection(tmp_path, body, stub):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(body)
    (fn,) = reach.definitions(pkg)
    assert fn.stub is stub


def test_drivers_are_every_entry_point(tmp_path):
    """Five examples (the quickstart on a cold model cache), the e2e smoke run
    and ten single-workload runs, four load runs, chaos, the microbenchmark
    smoke run, every experiment id, and one pytest run over the 19
    paper-figure benchmarks."""
    from repro.experiments.cli import EXPERIMENTS

    found = reach.drivers(tmp_path)
    names = [name for name, _, _ in found]
    assert len(names) == len(set(names))
    assert sum(name.startswith("examples/") for name in names) == 5
    assert found[0][2] == {"KEYFORMER_REPRO_CACHE": str(tmp_path / "cold-cache")}
    assert sum(name.startswith("benchmarks/e2e/run.py --workload") for name in names) == 10
    assert sum(name.startswith("tools/run_load.py") for name in names) == 4
    assert sum("repro.experiments" in name for name in names) == len(EXPERIMENTS) == 18
    assert names[-1] == "pytest 19 benchmarks/bench_*.py"
    assert len(found) == 5 + 1 + 10 + 4 + 1 + 1 + 18 + 1


def test_main_audits_what_the_drivers_entered_and_writes_the_same_report_twice(
    package, tmp_path, monkeypatch
):
    path = (package / "mod.py").resolve()
    lines = {fn.qualname: fn.line for fn in reach.definitions(package)}
    entered = ["plain", "decorated", "Worker.work", "Worker.work.<locals>.helper"]

    def run_drivers(records, scratch):  # what the recorder leaves behind
        records.mkdir(parents=True)
        (records / "1.rec").write_text("".join(f"{path}\t{lines[n]}\n" for n in entered))
        return []

    monkeypatch.setattr(reach, "run_drivers", run_drivers)
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.setattr(reach, "REACH_KEPT", {"child": "a stated reason"})
    surface = tmp_path / "surface.py"
    surface.write_text('KEPT = {"Worker.idle": "a kept method"}\n')
    monkeypatch.setattr(reach, "SURFACE_TEST", surface)
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outputs:
        assert reach.main(["--output", str(out)]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    monkeypatch.setattr(reach, "REACH_KEPT", {})
    assert reach.main(["--output", str(outputs[0])]) == 1


def test_a_failed_driver_is_a_finding(package, tmp_path, monkeypatch):
    def run_drivers(records, scratch):
        records.mkdir(parents=True)
        return ["examples/broken.py"]

    monkeypatch.setattr(reach, "run_drivers", run_drivers)
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.setattr(reach, "REACH_KEPT", {})
    surface = tmp_path / "surface.py"
    surface.write_text('KEPT = {"Proto": "x", "Worker": "x", "plain": "x", "decorated": "x", "child": "x"}\n')
    monkeypatch.setattr(reach, "SURFACE_TEST", surface)
    out = tmp_path / "r.json"
    assert reach.main(["--output", str(out)]) == 1
    assert json.loads(out.read_text())["problems"] == ["driver failed: examples/broken.py"]
