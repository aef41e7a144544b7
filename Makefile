# Developer entry points. `make check` is the gate CI runs: the tier-1 test
# suite plus a fast smoke subset of the microbenchmarks, so functional *and*
# hot-path regressions fail loudly.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Written into the workspace (and gitignored) rather than /tmp so concurrent
# CI jobs on one runner never clobber each other's reports.  Load reports go
# under $(REPORT_DIR) so per-run artifacts never litter the repo root.
BENCH_SMOKE_OUT ?= BENCH_smoke.json
REPORT_DIR ?= reports
LOAD_REPORT_OUT ?= $(REPORT_DIR)/load_report.json
SHARDED_LOAD_REPORT_OUT ?= $(REPORT_DIR)/sharded_load_report.json
SHARDED1_LOAD_REPORT_OUT ?= $(REPORT_DIR)/sharded1_load_report.json

.PHONY: test test-cov bench bench-smoke bench-gate bench-e2e-smoke lint docs-check serve-demo chaos load load-smoke check

test:
	$(PYTHON) -m pytest -x -q tests

# Tier-1 tests with a coverage floor on the KV-cache subsystem (the paged
# store is the engine's correctness-critical core).  Needs pytest-cov; CI
# runs this, `make test` stays dependency-light for local loops.
test-cov:
	$(PYTHON) -m pytest -x -q tests --cov=repro.kvcache --cov-report=term-missing --cov-fail-under=85

bench:
	$(PYTHON) benchmarks/run_bench.py

bench-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --output $(BENCH_SMOKE_OUT)

# Compare the smoke run against the committed BENCH_micro.json and fail on
# >1.5x regression of any pinned metric (machine-speed normalized).
bench-gate: bench-smoke
	$(PYTHON) benchmarks/check_regression.py --report $(BENCH_SMOKE_OUT)

# The wall-clock end-to-end benchmark (BENCHMARK.json) at tiny sizes: every
# workload, one untraced and one traced round each, outputs and exact
# counters checked.  Full runs: see benchmarks/e2e/README.md.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# Without ruff on PATH the docstring step of docs-check prints "ruff not
# installed — skipped": distinct from a pass, so a report can say which it was.
RUFF_MISSING = echo "ruff not installed — skipped: $(1)"

# Without ruff, lint still runs: every file must compile warning-free, and a
# stdlib ast walk (tools/lint_fallback.py) fails on unused imports and
# undefined names.  Formatting is checked by ruff only.
LINT_PATHS = src tests tools benchmarks

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		$(PYTHON) -W error -m compileall -q -f $(LINT_PATHS) && \
		$(PYTHON) tools/lint_fallback.py $(LINT_PATHS); \
	fi

# The CI docs job: every docs page reachable from README with no dead links
# or stale `path/to/file` references, plus pydocstyle (ruff D) docstring
# rules on the kvcache, serving and speculative subsystems, the tools they
# ship with, and the benchmark runner, so the newest code stays documented.
docs-check:
	$(PYTHON) tools/check_docs.py
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check --select D100,D101,D102,D103,D104,D419 src/repro/kvcache src/repro/speculative src/repro/serving tools benchmarks/run_bench.py; \
	else $(call RUFF_MISSING,docstring rules D100-D104 / D419); fi

serve-demo:
	$(PYTHON) examples/serving_demo.py

# Trace-driven load harness: seeded workload replayed in virtual step-time,
# latency-percentile + goodput report written to $(LOAD_REPORT_OUT).  The
# smoke variant runs a pinned tiny trace twice and fails unless the two
# reports are byte-identical with a complete schema (the CI determinism
# gate; see docs/workloads.md).
load:
	$(PYTHON) tools/run_load.py --output $(LOAD_REPORT_OUT)

# The sharded passes extend the determinism gate: N=2 process-backed
# replicas must also replay byte-identically, and the N=1 sharded report
# must be byte-identical to the single-engine report (docs/sharding.md).
load-smoke:
	$(PYTHON) tools/run_load.py --smoke --output $(LOAD_REPORT_OUT)
	$(PYTHON) tools/run_load.py --smoke --replicas 2 --output $(SHARDED_LOAD_REPORT_OUT)
	$(PYTHON) tools/run_load.py --smoke --replicas 1 --output $(SHARDED1_LOAD_REPORT_OUT)

# Pinned 1000-step seeded fault-injection campaign (the CI chaos job): every
# injection point fires, per-step pool-integrity audits stay clean, survivors
# stay bit-exact, and the store ends with zero leaked pages.
chaos:
	$(PYTHON) tools/run_chaos.py

check: test bench-smoke
	@echo "check OK: tier-1 tests + benchmark smoke run passed"
