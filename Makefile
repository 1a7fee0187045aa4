# Convenience targets for the ARI reproduction.

PY ?= python

.PHONY: install test check flowcheck taintlint bench figures figures-paper telemetry-demo sweep-demo faults-demo search-demo kernel-demo kernel-equiv perfwatch perfwatch-demo clean-cache loc help

help:
	@echo "make install        editable install"
	@echo "make test           full unit/integration/property suite"
	@echo "make check          static model checks + code lints (+ ruff if installed)"
	@echo "make flowcheck      CI's repro-check job: model checks + all code lints, strict"
	@echo "make taintlint      just the taint provers (cache-key soundness, zero overhead)"
	@echo "make bench          regenerate every figure at CI scale"
	@echo "make figures        regenerate figures at quick scale (9 benchmarks)"
	@echo "make figures-paper  full 30-benchmark regeneration (~1h)"
	@echo "make telemetry-demo time-series telemetry, baseline vs ARI"
	@echo "make sweep-demo     parallel design-space sweep across 2 workers"
	@echo "make faults-demo    degradation campaign: dead links, detour routing"
	@echo "make search-demo    design-space exploration: strategies vs the ARI default"
	@echo "make kernel-demo    reference vs activity kernel: same results, speedup"
	@echo "make kernel-equiv   CI's kernel-equiv job: byte-identity grid"
	@echo "make perfwatch      CI's perfwatch job: smoke benches -> ingest -> gate"
	@echo "make perfwatch-demo inject a synthetic regression and watch it flagged"
	@echo "make clean-cache    drop the simulation result cache"
	@echo "make loc            count lines of code"

install:
	pip install -e .[test]

test:
	$(PY) -m pytest tests/

# Ruff (when available) plus the CI repro-check job.
check:
	@command -v ruff >/dev/null 2>&1 && ruff check src tests || \
		echo "ruff not installed; skipping style pass"
	$(MAKE) flowcheck

# Mirrors CI's `repro-check` job exactly: the pre-run model checks for
# every registered scheme, then all code lints (determinism, unit
# inference, credit conservation, pool captures, taint provers) strict
# against the committed staticcheck-baseline.json.
flowcheck:
	PYTHONPATH=src $(PY) -m repro check --all-schemes --json -
	PYTHONPATH=src $(PY) -m repro check --code src/repro --strict --json -

# Just the taint provers: cache-key soundness, the zero-overhead
# contract for disabled telemetry/fault subsystems, and environmental
# values (wall-clock/RNG) flowing into results.
taintlint:
	PYTHONPATH=src $(PY) -m repro check --code src/repro --no-baseline \
		--taint --strict

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

figures:
	$(PY) examples/reproduce_paper.py quick

figures-paper:
	$(PY) examples/reproduce_paper.py paper

# The Fig. 6 dynamic as time series: NI queues pin under the baseline,
# flatten under ARI.
telemetry-demo:
	$(PY) -m repro telemetry --benchmark bfs --scheme baseline \
		--cycles 800 --mesh 4 --interval 100
	$(PY) -m repro telemetry --benchmark bfs --scheme ari \
		--cycles 800 --mesh 4 --interval 100

# A small VC x speedup grid sharded across two worker processes.
sweep-demo:
	$(PY) -m repro sweep bfs ada-ari \
		--axis num_vcs=2,4 --axis injection_speedup=1,2 \
		--workers 2 --cycles 600 --mesh 4

# Kill 0/1/2 reply-mesh links (same cut for both schemes) and compare
# how gracefully baseline XY vs. ARI degrade with detour routing on.
faults-demo:
	$(PY) -m repro faults --benchmark bfs \
		--schemes xy-baseline,ada-ari --dead-links 0,1,2 \
		--cycles 600 --mesh 4 --workers 2

# Budgeted search over the ARI knob triple: a hillclimb hunts a config
# beating the paper defaults, then the same search replays for free from
# the result store and the trial ledger.
search-demo:
	PYTHONPATH=src $(PY) examples/search_demo.py

# Same spec through both simulation kernels: prints per-kernel wall
# time, the speedup, and a digest proving the results are identical.
kernel-demo:
	PYTHONPATH=src $(PY) examples/kernel_demo.py

# Mirrors CI's `kernel-equiv` job: the quick byte-identity grid.
kernel-equiv:
	PYTHONPATH=src $(PY) -m repro check --kernel-equiv

# Mirrors CI's `perfwatch` job: regenerate the three KPI bench tables
# (timers off), ingest them into the append-only perf ledger, then gate
# on regressions vs the rolling baseline and render the trend report.
perfwatch:
	$(PY) -m pytest -q --benchmark-disable \
		benchmarks/bench_simulator_speed.py \
		benchmarks/bench_parallel_sweep.py \
		benchmarks/bench_fault_degradation.py \
		benchmarks/bench_search.py
	PYTHONPATH=src $(PY) -m repro perfwatch ingest
	PYTHONPATH=src $(PY) -m repro perfwatch check --strict --json -
	PYTHONPATH=src $(PY) -m repro perfwatch report

# End-to-end detector demo on a throwaway ledger: fabricate a healthy
# history, halve one KPI at the head, and show the error finding with
# its baseline band and changed-axis attribution.
perfwatch-demo:
	PYTHONPATH=src $(PY) examples/perfwatch_demo.py

clean-cache:
	rm -rf results/cache

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1
