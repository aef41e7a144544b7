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

.PHONY: test test-cov test-blas-threads bench bench-smoke bench-gate bench-e2e-smoke ab lint docs-check serve-demo chaos load load-smoke reach check

test:
	$(PYTHON) -m pytest -x -q tests

# Tier-1 tests with a coverage floor on the KV-cache subsystem (the paged
# store is the engine's correctness-critical core).  Needs pytest-cov; CI
# runs this, `make test` stays dependency-light for local loops.
test-cov:
	$(PYTHON) -m pytest -x -q tests --cov=repro.kvcache --cov-report=term-missing --cov-fail-under=85

# The BLAS row-count invariance the chunked-prefill contract rests on, that
# contract itself (chunks and whole prompts), the prompt scoring fused into
# the prompt pass against its post-forward reference, and the decode kernel's rows
# (gemv per row: a batch row is its sequence decoded alone — B > 1 generator
# rows and beams, read from the padded workspace, under full, window, H2O
# and Keyformer, each row running its own policy instance), and two prompt
# passes on one model in two Python threads, under one and under two
# OpenBLAS threads.
BLAS_ROW_TESTS = tests/models/test_blas_rows.py \
	tests/models/test_transformer.py::TestChunkedPrefillRowStability \
	tests/models/test_attention.py::TestPrefillChunkIsForwardRows \
	tests/models/test_attention.py::TestDecodeStep::test_kernel_is_the_reference \
	tests/models/test_prompt_scoring.py \
	tests/generation/test_generator.py::TestBatchedRowsAreSoloRuns \
	tests/generation/test_beam.py::TestBeamsAreSoloRuns \
	tests/models/test_inference_state.py::TestReentrantPromptPass

test-blas-threads:
	OPENBLAS_NUM_THREADS=1 $(PYTHON) -m pytest -q $(BLAS_ROW_TESTS)
	OPENBLAS_NUM_THREADS=2 $(PYTHON) -m pytest -q $(BLAS_ROW_TESTS)

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

# A/B verdict of two revisions on one end-to-end workload (tools/ab.py):
# ABBA pairs from git worktrees, one JSON verdict per metric.
#   make ab A=HEAD~1 B=HEAD WORKLOAD=serve_keyformer_long PAIRS=10
A ?= HEAD~1
B ?= HEAD
WORKLOAD ?= serve_keyformer_long
PAIRS ?= 10
ab:
	$(PYTHON) tools/ab.py $(A) $(B) --workload $(WORKLOAD) --pairs $(PAIRS)

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
# Without ruff the same rules run as a stdlib ast walk (tools/lint_fallback.py).
DOC_PATHS = src/repro/kvcache src/repro/speculative src/repro/serving tools benchmarks/run_bench.py

docs-check:
	$(PYTHON) tools/check_docs.py
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check --select D100,D101,D102,D103,D104,D419 $(DOC_PATHS); \
	else \
		$(PYTHON) tools/lint_fallback.py --docstrings $(DOC_PATHS); \
	fi

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

# Reach audit (tools/reach.py): every non-test driver runs under a call
# recorder, and every function in src/repro that none of them enters must be
# a protocol stub, a dunder, or carry a stated reason in one of the two
# ledgers.  Writes $(REPORT_DIR)/reach.json.  About 10 minutes on two cores
# with a warm model cache (20 with a cold one), so not a CI step.
reach:
	$(PYTHON) tools/reach.py --output $(REPORT_DIR)/reach.json

check: test bench-smoke
	@echo "check OK: tier-1 tests + benchmark smoke run passed"
