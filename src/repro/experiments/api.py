"""Public experiments API: run one spec, a batch, or a whole design space.

This is the single entry surface the figure drivers, the CLI, and the
examples sit on::

    from repro.experiments.api import run, run_many, sweep, grid

    res = run(RunSpec("bfs", "ada-ari"))                  # cached single run
    results = run_many(specs, workers=4)                  # sharded batch
    records = sweep(base, axes={"num_vcs": [2, 4]})       # tidy records
    out = grid(["bfs"], ["xy-baseline", "ada-ari"])       # out[bm][scheme]

All cached entry points go through one :class:`~repro.experiments.store.
ResultStore` (``store=`` to override, ``REPRO_CACHE`` for the default
directory), read cached runs through :meth:`~repro.experiments.store.
ResultStore.lookup`, and share one :class:`~repro.experiments.executor.
SweepExecutor` (``workers=`` to parallelize; every spec carries its own
seed, so parallel output is record-for-record identical to serial).

Live runs with telemetry attached never consult the cache; use
:func:`run_live` (or ``run(spec, telemetry=...)``) for those.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.executor import (
    SweepExecutor,
    fault_extras,
    install_spec_faults,
    reads_cache,
    simulate_spec,
)
from repro.experiments.runner import RunSpec
from repro.experiments.specgrid import SPEC_FIELDS
from repro.experiments.store import ResultStore, default_store
from repro.gpu.system import SimulationResult
from repro.telemetry.profiler import HostProfiler

#: Result metrics exported by default from :func:`sweep` records.
DEFAULT_METRICS = (
    "ipc",
    "mc_stall_per_reply",
    "request_latency",
    "reply_latency",
    "reply_traffic_share",
    "l2_hit_rate",
)


def _validate_specs(specs: Sequence[RunSpec], strict: Optional[bool]) -> None:
    """Static-check specs before any simulation work (or worker) starts.

    ``strict=True`` escalates warnings to errors, ``strict=False`` forces
    the default warn mode, ``None`` defers to the ``REPRO_STATICCHECK``
    env var ("off" disables the gate entirely).  Reports are memoized by
    model signature, so batches pay per distinct configuration, not per
    spec.
    """
    from repro.staticcheck.runner import validate_spec

    if strict is None:
        mode = None
    else:
        mode = "strict" if strict else "warn"
    for spec in specs:
        validate_spec(spec, mode=mode)


@dataclasses.dataclass
class LiveRun:
    """Everything a live (telemetry-instrumented) run produces."""

    result: SimulationResult
    collector: object
    system: object


def run(
    spec: RunSpec,
    *,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    telemetry=None,
    interval: int = 100,
    jsonl_path: Optional[str] = None,
    csv_path: Optional[str] = None,
    check_invariants=None,
    strict: Optional[bool] = None,
) -> SimulationResult:
    """Run one spec and return its :class:`SimulationResult`.

    Without ``telemetry`` this is a cached run: the result store is
    consulted first and fresh results are written back.  With
    ``telemetry`` (``True`` for a default collector, or a
    :class:`~repro.telemetry.TelemetryCollector` you keep a reference
    to), the run is live and the cache is bypassed — use
    :func:`run_live` when you also need the collector/system back.

    ``check_invariants`` turns on per-cycle flow-control auditing
    (``True``/"raise" fails on the first violation, ``"collect"``
    records a count in extras; default defers to the
    ``REPRO_CHECK_INVARIANTS`` env var).  A run asked to *raise* on
    violations never reads the cache — a cached record proves nothing
    about invariants, so the simulation is redone under audit.

    Every entry point first static-checks the spec
    (:func:`repro.staticcheck.validate_spec`): blocking findings raise
    :class:`~repro.staticcheck.StaticCheckError` before any cycle runs.
    ``strict=True`` escalates warnings to errors; the
    ``REPRO_STATICCHECK`` env var ("off"/"warn"/"strict") sets the
    default.
    """
    if telemetry is None and spec.telemetry is not None:
        # RunSpec.telemetry carries the sampling interval; a spec that
        # asks for telemetry is a live run like an explicit telemetry=.
        telemetry = True
        interval = spec.telemetry
    if telemetry:
        collector = None if telemetry is True else telemetry
        # The LiveRun aggregate holds the collector (and its host
        # profiler); only .result escapes here, and its wall-time extras
        # are already discharged at their assignments in run_live.
        return run_live(  # taint: sanitize(wallclock)
            spec,
            collector=collector,
            interval=interval,
            jsonl_path=jsonl_path,
            csv_path=csv_path,
            strict=strict,
        ).result
    _validate_specs([spec], strict)
    st = store if store is not None else default_store()
    if reads_cache(use_cache, check_invariants):
        cached = st.lookup(spec.key())
        if cached is not None:
            return cached
    result = simulate_spec(spec, check_invariants=check_invariants)
    if use_cache:
        st.put(spec.key(), dataclasses.asdict(result))
    return result


def run_live(
    spec: RunSpec,
    *,
    collector=None,
    interval: int = 100,
    jsonl_path: Optional[str] = None,
    csv_path: Optional[str] = None,
    strict: Optional[bool] = None,
) -> LiveRun:
    """Simulate one spec with a telemetry collector attached.

    Telemetry needs a *live* run, so this never consults the result
    store.  The returned :class:`LiveRun` carries the result, the
    collector (always holding an in-memory sink plus optional JSONL/CSV
    artifact sinks when paths are given), and the simulated system —
    figure drivers and the ``repro telemetry`` CLI both sit here.
    """
    _validate_specs([spec], strict)
    from repro.telemetry import (
        CSVSink,
        JSONLSink,
        MemorySink,
        TelemetryCollector,
    )

    if collector is None:
        sinks = [MemorySink()]
        if jsonl_path:
            sinks.append(JSONLSink(jsonl_path))
        if csv_path:
            sinks.append(CSVSink(csv_path))
        collector = TelemetryCollector(interval=interval, sinks=sinks)
    profiler = collector.profiler
    with profiler.phase("build"):
        from repro.experiments.runner import build_system

        system = build_system(spec)
    system.attach_telemetry(collector)
    injectors, faulted = install_spec_faults(spec, system)
    if injectors:
        from repro.faults import FaultProbe

        collector.add_probe(FaultProbe(list(injectors.values())))
    with profiler.phase("measure"):
        result = system.simulate(
            cycles=spec.cycles,
            warmup=spec.warmup,
            on_deadlock="record" if faulted else "raise",
        )
    if faulted:
        result.extras.update(fault_extras(system, injectors))
    profiler.count("cycles", spec.cycles + spec.warmup)
    profiler.count(
        "packets",
        system.request_net.stats.packets_delivered
        + system.reply_net.stats.packets_delivered,
    )
    # Diagnostic-only host timings (see simulate_spec): telemetry runs
    # bypass the cache, and the values never steer simulation state.
    result.extras["sim_wall_s"] = profiler.phase_seconds("measure")  # taint: sanitize(wallclock)
    result.extras["sim_cycles_per_sec"] = profiler.rate("cycles", "measure")  # taint: sanitize(wallclock)
    collector.close()
    return LiveRun(result=result, collector=collector, system=system)


def run_many(
    specs: Sequence[RunSpec],
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = 2,
    chunk_size: Optional[int] = None,
    progress=None,
    profiler: Optional[HostProfiler] = None,
    sink=None,
    check_invariants=None,
    strict: Optional[bool] = None,
    on_report=None,
) -> List[SimulationResult]:
    """Run a batch of specs (sharded across processes when ``workers>1``).

    Results come back in input order; duplicate specs are simulated once.
    See :class:`~repro.experiments.executor.SweepExecutor` for the knobs,
    per-run crash retry semantics, and ``check_invariants``.  Every spec
    is static-checked before the first worker spawns (see :func:`run`).
    ``on_report`` (if given) receives the batch's
    :class:`~repro.experiments.executor.ExecutionReport` — cache
    hit/miss counts, retry counts, wall time — once all runs resolve.
    """
    _validate_specs(specs, strict)
    executor = SweepExecutor(
        workers=workers,
        chunk_size=chunk_size,
        retries=retries,
        store=store,
        use_cache=use_cache,
        progress=progress,
        profiler=profiler,
        sink=sink,
        check_invariants=check_invariants,
    )
    results = executor.run_many(specs)
    if on_report is not None:
        on_report(executor.report)
    return results


def sweep(
    base: RunSpec,
    axes: Mapping[str, Sequence],
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = 2,
    chunk_size: Optional[int] = None,
    progress=None,
    strict: Optional[bool] = None,
    on_report=None,
) -> List[Dict[str, object]]:
    """Run every combination of ``axes`` over ``base``; one record per run.

    Each record contains the axis values plus the requested result
    metrics, in cartesian-product order regardless of worker count.
    ``progress(done, total, spec, source)`` is called per completed run;
    ``on_report`` receives the batch's ExecutionReport (cache hits and
    misses, retries, wall time) once all runs resolve.
    """
    for name in axes:
        if name not in SPEC_FIELDS:
            raise ValueError(
                f"unknown RunSpec field {name!r}; valid: {', '.join(SPEC_FIELDS)}"
            )
    names = list(axes)
    combos = list(itertools.product(*(axes[n] for n in names)))
    specs = [replace(base, **dict(zip(names, combo))) for combo in combos]
    results = run_many(
        specs,
        workers=workers,
        store=store,
        use_cache=use_cache,
        retries=retries,
        chunk_size=chunk_size,
        progress=progress,
        strict=strict,
        on_report=on_report,
    )
    records: List[Dict[str, object]] = []
    for combo, spec, result in zip(combos, specs, results):
        record: Dict[str, object] = dict(zip(names, combo))
        record["benchmark"] = spec.benchmark
        record["scheme"] = spec.scheme
        for m in metrics:
            record[m] = getattr(result, m)
        records.append(record)
    return records


def grid(
    benchmarks: Sequence[str],
    schemes: Sequence[str],
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = 2,
    progress=None,
    strict: Optional[bool] = None,
    **spec_kwargs,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run a benchmark x scheme grid; returns ``out[benchmark][scheme]``."""
    specs = [
        RunSpec(benchmark=bm, scheme=sch, **spec_kwargs)
        for bm in benchmarks
        for sch in schemes
    ]
    results = run_many(
        specs,
        workers=workers,
        store=store,
        use_cache=use_cache,
        retries=retries,
        progress=progress,
        strict=strict,
    )
    out: Dict[str, Dict[str, SimulationResult]] = {}
    it = iter(results)
    for bm in benchmarks:
        out[bm] = {}
        for sch in schemes:
            out[bm][sch] = next(it)
    return out
