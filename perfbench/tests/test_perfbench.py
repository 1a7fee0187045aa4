"""Tests of the benchmark's own helpers and checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import batch  # noqa: E402
import calibrate  # noqa: E402
import common  # noqa: E402
import loaded  # noqa: E402
import run  # noqa: E402


# -- percentiles ------------------------------------------------------------------

def test_percentile_reports_its_sample_count():
    got = common.percentile(list(range(200)), 95)
    assert got == {"value": 189, "n": 200, "beyond": 10}


@pytest.mark.parametrize("n,pct", [(199, 95), (100, 95), (19, 50), (999, 99)])
def test_percentile_refuses_fewer_than_ten_beyond(n, pct):
    with pytest.raises(common.PercentileRefused):
        common.percentile([float(i) for i in range(n)], pct)


def test_min_samples_is_the_smallest_accepted_count():
    for pct, n in ((50, 20), (95, 200), (99, 1000)):
        assert common.min_samples(pct) == n
        common.percentile(range(n), pct)
        with pytest.raises(common.PercentileRefused):
            common.percentile(range(n - 1), pct)


# -- simulated-stat digest ---------------------------------------------------------

WORKLOAD = "hybridsort_xy_writes"


def _window(seed):
    spec = loaded.spec_for(WORKLOAD, seed)
    outcome = common.Outcome()
    window = loaded.Window(WORKLOAD, seed, loaded.set_up(spec), outcome)
    window.run(0.0)
    window.check()
    return window, outcome


def test_digest_check_passes_on_the_default_seed():
    window, outcome = _window(common.DEFAULT_SEED)
    assert window.cycles == loaded.DIGEST_CYCLES
    assert common.digest_matches(WORKLOAD, window.digest)
    assert outcome.correct, outcome.checks


def test_digest_check_fails_on_a_different_seed():
    held_out = common.DEFAULT_SEED + 8
    window, outcome = _window(held_out)
    assert not common.digest_matches(WORKLOAD, window.digest)
    # On a held-out seed only the seed-independent checks run.
    names = [name for name, _, _ in outcome.checks]
    assert not any("digest" in name for name in names)
    assert outcome.correct, outcome.checks


# -- host-speed calibration -----------------------------------------------------------

def test_slices_are_rescaled_by_the_calibration_on_both_sides(monkeypatch):
    readings = iter([1e-3, 3e-3, 2e-3])
    monkeypatch.setattr(calibrate, "calibrate", lambda: next(readings))
    clock = calibrate.SliceClock()
    clock.time(lambda: None)
    clock.time(lambda: None)
    # Calibrations averaging 2x and 2.5x the reference halve and shrink
    # the slice times by those factors.
    for raw, scaled, factor in zip(clock.raw, clock.scaled, (2.0, 2.5)):
        assert scaled == pytest.approx(raw * calibrate.REF_S / (factor * 1e-3))


def test_calibration_pauses_and_restores_the_collector():
    import gc

    assert gc.isenabled()
    assert calibrate.calibrate() > 0
    assert gc.isenabled()


def test_each_spec_weighs_its_cycles_however_often_it_was_timed():
    class Spec:
        def __init__(self, cycles):
            self.cycles = cycles

    timed = batch.SpecTimes([Spec(100), Spec(300)])
    timed.spec_cycles = [200, 300]  # the first spec was timed twice
    timed.spec_scaled = [2.0, 6.0]  # 0.01 and 0.02 s per cycle
    assert timed.weighted_s_per_cycle() == pytest.approx(
        (0.01 * 100 + 0.02 * 300) / 400
    )


# -- injected executor failure ------------------------------------------------------

class _TinyBatch(batch.BatchWorkload):
    name = "tiny"

    def op(self):
        from repro.experiments import api
        from repro.experiments.runner import RunSpec

        specs = [
            RunSpec(bm, "xy-baseline", cycles=40, warmup=10, mesh=4)
            for bm in ("bfs", "hybridsort")
        ]
        return api.run_many(specs, workers=batch.WORKERS)

    def render(self, output):
        return json.dumps([r.ipc for r in output])


def test_injected_executor_fault_counts_as_retry_and_failure(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_EXECUTOR_FAULT_DIR", str(tmp_path / "faults"))
    (tmp_path / "faults").mkdir()
    outcome = common.Outcome()
    observer = batch._ExecutorCalls()
    with observer.patch():
        _, _, calls = batch.cold_pass(
            _TinyBatch(common.DEFAULT_SEED), str(tmp_path / "store"),
            observer, outcome,
        )
    common.reap_children()
    assert batch.executor_metrics(calls)["experiments.executor.retries"] == 2
    assert (outcome.attempted, outcome.failed) == (4, 2)
    assert not outcome.correct


# -- BENCHMARK.json -----------------------------------------------------------------

def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bfs_ari_loaded",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
