"""Batch workloads: a cold pass through the worker pool, then replays.

The cold pass runs every spec of a paper figure or fault campaign into an
empty ``ResultStore`` (2 worker processes); the replays then regenerate
the same output again and again, each from a fresh ``ResultStore`` opened
on that directory, which is what a user re-rendering a result pays.
Simulation speed is then timed in this process on the specs the cold
pass ran, each built as the executor builds it and stepped in slices
timed against the host-speed calibration (``calibrate.py``).
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from typing import Dict, List

from calibrate import SliceClock
from common import (
    DEFAULT_SEED,
    MIN_BEYOND,
    Outcome,
    digest_matches,
    digest_of,
    fresh_import_s,
    min_samples,
    op_time_notes,
    reap_children,
)
from loaded import SLICE_CYCLES, calibrated_rate, delta, set_up, stats_snapshot
from tracing import LayerStats, Patch, Tracer

WORKERS = 2
#: Set-ups per run; ``setup_s`` is their median.  A set-up here is little
#: more than a fresh import, cheap enough to take more samples of.
SETUPS = 9
#: Host seconds of replays after the cold pass (at least enough for p95).
REPLAY_S = 2.0


class BatchWorkload:
    """One batch workload: what it runs and how its output is checked."""

    name = ""
    import_statement = "import repro.experiments"
    #: ``check_invariants`` the workload runs its specs with.
    invariant_mode = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self):
        """Produce the workload's user-visible output (through the store)."""
        raise NotImplementedError

    def render(self, output) -> str:
        """The output as text; replays must reproduce it byte for byte."""
        raise NotImplementedError

    def check_cold(self, output, outcome: Outcome) -> None:
        """Workload-specific checks on the cold pass."""

    def layer_metrics(self, output, calls) -> Dict[str, float]:
        """Workload-specific per-layer metrics of the traced cold pass."""
        return {}


class Fig11Replay(BatchWorkload):
    """Fig. 11 at smoke scale: 3 benchmarks x 5 schemes, seed fixed by it."""

    name = "fig11_smoke_replay"

    def op(self):
        from repro.experiments import figures

        return figures.fig11_scheme_comparison(scale="smoke", workers=WORKERS)

    def render(self, output) -> str:
        return output["table"]

    def check_cold(self, output, outcome: Outcome) -> None:
        # The figure fixes its own specs, so its table is seed-independent.
        table = digest_of(self.render(output))
        outcome.check(
            "fig11 smoke table matches record",
            digest_matches(self.name, table), table,
        )


class FaultCampaign(BatchWorkload):
    """An invariant-audited fault campaign on the 4x4 mesh."""

    name = "faults_audited_campaign"
    import_statement = "import repro.experiments, repro.faults"
    invariant_mode = "collect"

    def config(self):
        from repro.faults import CampaignConfig

        return CampaignConfig(
            benchmark="bfs",
            schemes=("xy-baseline", "ada-ari"),
            dead_links=(0, 1, 2),
            seeds=(self.seed,),
            mesh=4,
            detour=True,
            check_invariants=self.invariant_mode,
        )

    def op(self):
        from repro.faults import run_campaign

        return run_campaign(self.config(), workers=WORKERS)

    def render(self, output) -> str:
        return json.dumps(output.to_dict(), sort_keys=True)

    def check_cold(self, output, outcome: Outcome) -> None:
        for row in output.rows:
            cell = f"{row['scheme']}/dead={row['dead_links']}"
            outcome.check(
                f"{cell}: zero invariant violations",
                row["invariant_violations"] == 0,
                str(row["invariant_violations"]),
            )
            outcome.check(
                f"{cell}: no deadlock", row["first_deadlock_cycle"] is None,
                str(row["first_deadlock_cycle"]),
            )
            outcome.check(
                f"{cell}: delivered_fraction 1.0",
                row["delivered_fraction"] == 1.0,
                repr(row["delivered_fraction"]),
            )
        if self.seed == DEFAULT_SEED:
            table = digest_of(self.render(output))
            outcome.check(
                "campaign report matches record",
                digest_matches(self.name, table), table,
            )

    def layer_metrics(self, output, calls) -> Dict[str, float]:
        from repro.faults.campaign import CampaignRunner

        dead_of = {
            spec.key(): n_dead
            for _, n_dead, _, spec in CampaignRunner(self.config()).specs()
        }
        sim_s = {n: 0.0 for n in self.config().dead_links}
        for specs, results, _ in calls:
            for spec, result in zip(specs, results):
                sim_s[dead_of[spec.key()]] += result.extras["sim_wall_s"]
        out = {f"faults.sim_s.dead{n}": secs for n, secs in sim_s.items()}
        out["faults.invariant_violations"] = sum(
            row["invariant_violations"] for row in output.rows
        )
        return out


WORKLOADS = {cls.name: cls for cls in (Fig11Replay, FaultCampaign)}


class _ExecutorCalls:
    """Observes every ``SweepExecutor.run_many``: specs, results, report."""

    def __init__(self) -> None:
        self.calls: List[tuple] = []

    def patch(self, tracer=None):
        from repro.experiments.executor import SweepExecutor

        calls = self.calls

        def make(run_many):
            def observed(executor, specs):
                specs = list(specs)
                results = run_many(executor, specs)
                calls.append((specs, results, executor.report))
                return results

            if tracer is not None:
                return tracer.wrap("experiments.executor", observed)
            return observed

        return Patch(SweepExecutor, "run_many", make)

    def take(self) -> List[tuple]:
        out, self.calls[:] = list(self.calls), []
        return out


def _record_runs(calls, outcome: Outcome) -> None:
    """Each executed run is one operation; each retried attempt a failure."""
    for _, _, report in calls:
        for _ in range(report.executed):
            outcome.op(True)
        for _ in range(report.retried):
            outcome.op(False)


def cold_pass(workload: BatchWorkload, store_dir: str, observer, outcome):
    """Run the workload into an empty store; returns (output, secs, calls)."""
    from repro.experiments import ResultStore, set_default_store

    set_default_store(ResultStore(store_dir))
    observer.take()
    t0 = time.perf_counter()
    output = workload.op()
    seconds = time.perf_counter() - t0
    calls = observer.take()
    _record_runs(calls, outcome)
    return output, seconds, calls


def replays(
    workload: BatchWorkload, store_dir: str, expected: str, observer,
    outcome: Outcome, seconds: float, min_count: int, tracer=None,
):
    """Replay from fresh stores on ``store_dir``; returns the host times."""
    from repro.experiments import ResultStore, set_default_store

    def replay():
        set_default_store(ResultStore(store_dir))
        return workload.op()

    if tracer is not None:
        replay = tracer.wrap("experiments.figure", replay)
    clock = time.perf_counter
    times: List[float] = []
    hit_fracs: List[float] = []
    deadline = clock() + seconds
    while clock() < deadline or len(times) < min_count:
        t0 = clock()
        output = replay()
        times.append(clock() - t0)
        calls = observer.take()
        misses = sum(report.cache_misses for _, _, report in calls)
        hit_fracs.extend(report.cache_hit_fraction() for _, _, report in calls)
        outcome.op(misses == 0 and workload.render(output) == expected)
    return times, hit_fracs


def cold_checks(workload, output, calls, outcome) -> None:
    specs = {s.key() for specs, _, _ in calls for s in specs}
    hits = sum(report.cache_hits for _, _, report in calls)
    outcome.check(
        "cold pass simulated every spec (empty store)",
        hits == 0 and len(specs) > 0, f"{len(specs)} specs, {hits} hits",
    )
    workload.check_cold(output, outcome)


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str):
    """Measure one batch workload; returns (metrics, outcome, notes)."""
    from repro.experiments import ResultStore

    workload = WORKLOADS[name](seed)
    outcome = Outcome()
    observer = _ExecutorCalls()
    if trace:
        return _run_traced(workload, seconds, scratch, observer, outcome)

    setups = []
    for _ in range(SETUPS):
        imported = fresh_import_s(workload.import_statement)
        t0 = time.perf_counter()
        ResultStore(tempfile.mkdtemp(dir=scratch))
        setups.append(imported + time.perf_counter() - t0)

    deadline = time.perf_counter() + seconds
    store_dir = tempfile.mkdtemp(dir=scratch)
    with observer.patch():
        output, cold_s, calls = cold_pass(
            workload, store_dir, observer, outcome
        )
        expected = workload.render(output)
        cold_checks(workload, output, calls, outcome)
        times, _ = replays(
            workload, store_dir, expected, observer, outcome, REPLAY_S,
            min_samples(95),
        )
    reap_children()

    specs = list(
        {s.key(): s for spec_list, _, _ in calls for s in spec_list}.values()
    )
    slice_clock = SliceClock()
    timed = time_specs(
        specs, workload.invariant_mode, slice_clock, outcome, deadline
    )
    sim_cycles = sum(report.sim_cycles for _, _, report in calls)
    rate, notes = calibrated_rate(
        slice_clock, timed.cycles, f"{SLICE_CYCLES}-cycle run() slice",
        per_cycle=timed.weighted_s_per_cycle(),
    )
    notes.append(
        f"timed {timed.runs} in-process spec runs over the {len(specs)} "
        f"specs' measured cycles"
    )
    notes.append(
        f"cold_pass_cycles_per_s = {sim_cycles / cold_s:.6g} cycles/s "
        f"({sim_cycles} cycles (cycles+warmup) in {cold_s:.2f} s, "
        f"{WORKERS} workers)"
    )
    notes += op_time_notes(times, "replay")
    metrics = {
        "norm_sim_cycles_per_s": rate,
        "setup_s": (
            statistics.median(setups), "s",
            f"median of {SETUPS}: fresh import + opening the empty store",
        ),
    }
    return metrics, outcome, notes


def audited_build(spec, mode):
    """Build ``spec``'s system as the executor does for a simulation:
    faults installed, auditors attached when ``mode`` is set."""
    from repro.experiments.executor import attach_auditors, install_spec_faults
    from repro.experiments.runner import build_system

    system = build_system(spec)
    install_spec_faults(spec, system)
    if mode is not None:
        attach_auditors(spec, system, mode)
    return system


class SpecTimes:
    """Calibrated host time per measured cycle of each spec."""

    def __init__(self, specs) -> None:
        self.specs = specs
        self.cycles = 0
        self.runs = 0
        self.spec_cycles = [0] * len(specs)
        self.spec_scaled = [0.0] * len(specs)
        self.digests: List[set] = [set() for _ in specs]

    def weighted_s_per_cycle(self) -> float:
        """Calibrated seconds per cycle over one run of every spec: each
        spec weighs its measured cycles, however often it was timed."""
        total = sum(spec.cycles for spec in self.specs)
        return sum(
            scaled / cycles * spec.cycles
            for spec, cycles, scaled in zip(
                self.specs, self.spec_cycles, self.spec_scaled
            )
            if cycles
        ) / total


def time_specs(specs, mode, slice_clock: SliceClock, outcome, deadline):
    """Time every spec once, then further specs in turn while the next
    one is expected to finish before ``deadline``."""
    timed = SpecTimes(specs)
    took = [0.0] * len(specs)
    i = 0
    while True:
        k = i % len(specs)
        if i >= len(specs) and time.perf_counter() + took[k] >= deadline:
            break
        t0 = time.perf_counter()
        marker = len(slice_clock.scaled)
        cycles, digest = time_spec(specs[k], mode, slice_clock, outcome)
        took[k] = time.perf_counter() - t0
        timed.cycles += cycles
        timed.runs += 1
        timed.spec_cycles[k] += cycles
        timed.spec_scaled[k] += sum(slice_clock.scaled[marker:])
        timed.digests[k].add(digest)
        i += 1
    outcome.check(
        "repeated timing runs of a spec simulate identical stats",
        all(len(d) == 1 for d in timed.digests),
        f"{timed.runs} runs of {len(specs)} specs",
    )
    return timed


def time_spec(spec, mode, slice_clock: SliceClock, outcome: Outcome):
    """Build, prewarm and warm up ``spec``'s system (untimed), then run
    its measured cycles in slices timed by ``slice_clock``.  Returns (the
    cycles timed, a digest of their simulated stats)."""
    from repro.noc.network import DeadlockError

    system = set_up(spec, build=lambda s: audited_build(s, mode))
    before = stats_snapshot(system)
    cycles = 0
    for _ in range(spec.cycles // SLICE_CYCLES):
        try:
            slice_clock.time(system.run, SLICE_CYCLES)
        except DeadlockError:
            outcome.op(False)
            break
        outcome.op(True)
        cycles += SLICE_CYCLES
    return cycles, digest_of(delta(before, stats_snapshot(system)))


def executor_metrics(calls) -> Dict[str, float]:
    """Worker-pool figures of a cold pass, from the executor reports and
    the host-time extras each worker records in its results."""
    results = [r for _, rs, _ in calls for r in rs]
    execute_s = sum(report.wall_s for _, _, report in calls)
    build_s = sum(r.extras.get("build_wall_s", 0.0) for r in results)
    sim_s = sum(r.extras.get("sim_wall_s", 0.0) for r in results)
    return {
        "experiments.executor.execute_s": execute_s,
        "experiments.executor.worker_busy_frac": (
            (build_s + sim_s) / (WORKERS * execute_s) if execute_s else 0.0
        ),
        "experiments.executor.retries": sum(
            report.retried for _, _, report in calls
        ),
        "experiments.build_ms": build_s * 1e3,
    }


def _run_traced(workload, seconds, scratch, observer, outcome):
    """An untraced cold pass, then a traced cold pass and traced replays."""
    import repro.staticcheck.runner as sc_runner
    from repro.experiments.store import ResultStore

    with observer.patch():
        _, plain_s, plain_calls = cold_pass(
            workload, tempfile.mkdtemp(dir=scratch), observer, outcome
        )
    plain_cps = sum(r.sim_cycles for _, _, r in plain_calls) / plain_s

    tracer = Tracer()
    store_dir = tempfile.mkdtemp(dir=scratch)
    with observer.patch(tracer), Patch(
        ResultStore, "get", lambda f: tracer.wrap("experiments.store.get", f)
    ), Patch(
        ResultStore, "put", lambda f: tracer.wrap("experiments.store.put", f)
    ), Patch(
        sc_runner, "validate_spec",
        lambda f: tracer.wrap("staticcheck.validate", f),
    ):
        output, cold_s, calls = cold_pass(
            workload, store_dir, observer, outcome
        )
        cold_checks(workload, output, calls, outcome)
        cold_layers = tracer.aggregate()
        cold_spans = len(tracer.starts)
        times, hit_fracs = replays(
            workload, store_dir, workload.render(output), observer, outcome,
            seconds / 2.0, MIN_BEYOND, tracer=tracer,
        )
    layers = tracer.aggregate()

    def layer(name, source=layers):
        return source.get(name) or LayerStats()

    def per_replay(name, attr):
        # Replay spans are everything recorded after the cold pass.
        cold = getattr(layer(name, cold_layers), attr)
        return (getattr(layer(name), attr) - cold) / len(times)

    sim_cycles = sum(rep.sim_cycles for _, _, rep in calls)
    put = layer("experiments.store.put", cold_layers)
    values: Dict[str, float] = {
        "experiments.store.get_calls": (
            per_replay("experiments.store.get", "calls")
        ),
        "experiments.store.get_ms": (
            per_replay("experiments.store.get", "total_s") * 1e3
        ),
        "experiments.store.put_calls": put.calls,
        "experiments.store.put_ms": put.total_s * 1e3,
        "experiments.executor.cache_hit_frac": (
            sum(hit_fracs) / len(hit_fracs) if hit_fracs else 0.0
        ),
        "experiments.figure_ms": (
            per_replay("experiments.figure", "self_s") * 1e3
        ),
        "staticcheck.validate_calls": (
            per_replay("staticcheck.validate", "calls")
        ),
        "staticcheck.validate_ms": (
            per_replay("staticcheck.validate", "total_s") * 1e3
        ),
        "trace_overhead_frac": 1.0 - (sim_cycles / cold_s) / plain_cps,
        **executor_metrics(calls),
    }
    values.update(workload.layer_metrics(output, calls))
    notes = [
        f"traced cold pass {cold_s:.2f} s ({cold_spans} spans), untraced "
        f"{plain_s:.2f} s; {len(times)} traced replays",
    ]
    return values, outcome, notes

