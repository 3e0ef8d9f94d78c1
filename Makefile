# Developer entry points.  `make test` is the tier-1 gate (includes the
# bench-check smoke on recorded timings); `make test-parallel` runs only the
# process-pool / shared-memory tests (marked `parallel`; deselect them with
# `-m "not parallel"` on runners without working multiprocessing); `make
# bench` refreshes the hot-path perf trajectory and fails (without
# overwriting BENCH_hotpaths.json) when any tracked workload regressed by
# more than 20%; `make bench-check` replays the tracked workloads at the
# same best-of-3 timing used at record time (a best-of-1 replay against a
# best-of-3 recording is systematically slower and flaps the 20% gate on
# noisy hosts) and fails on the same >20% regression guard without ever
# rewriting the JSON; `make bench-check-serial` replays only the
# serial-component workloads (the strict CI gate — pool-backed rows are
# core-count-bound and stay advisory).

# `make trace-smoke` runs a small `compress --trace` end to end and
# validates the exported Chrome trace-event JSON (cheap CI blocking step).

# `make paper-check` runs the 18 paper benchmarks
# (`benchmarks/bench_table*`, `bench_figure*`, `bench_ablations`) at quick
# scale; each asserts one of the paper's qualitative claims.  `-p
# no:benchmark` makes every benchmark one untimed call
# (benchmarks/conftest.py supplies the fixture), so the gate runs the same
# with or without pytest-benchmark installed.

# `make bench-e2e WORKLOAD=static_sensitivity SEEDS="1 2 3" OUT=runs/B` runs
# the end-to-end benchmark (`benchmarks/e2e/run.py --trace 0`) once per seed
# and saves each run's output as `OUT/<workload>.<seed>`; two such
# directories feed `python3 benchmarks/e2e/compare.py A/ B/`.  SEEDS
# defaults to ten seeds (the minimum the comparison wants per set); the run
# length is always BENCHMARK.json's `run_seconds`, so both sides of an A/B
# run equally long.

PYTHON ?= python
WORKLOAD ?= static_sensitivity
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
OUT ?= .bench-e2e

.PHONY: test test-fast test-parallel bench bench-check bench-check-serial \
	trace-smoke paper-check bench-e2e

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m "not slow"

test-parallel:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m parallel

bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_hotpaths.py --check-regression

bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_hotpaths.py --check-only

bench-check-serial:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_hotpaths.py --check-only --serial-only

trace-smoke:
	PYTHONPATH=src $(PYTHON) scripts/trace_smoke.py

paper-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:benchmark benchmarks/bench_table*.py \
		benchmarks/bench_figure*.py benchmarks/bench_ablations.py

bench-e2e:
	mkdir -p $(OUT)
	seconds=$$($(PYTHON) -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])') \
		&& for seed in $(SEEDS); do \
		$(PYTHON) benchmarks/e2e/run.py --workload $(WORKLOAD) --seed $$seed \
			--seconds $$seconds --trace 0 > $(OUT)/$(WORKLOAD).$$seed || exit 1; \
	done
