"""Loaded full-system workloads: one design point driven to steady state.

``build_system`` on the 6x6 mesh with the program's default kernel, then
``prewarm_caches`` and the spec's warmup cycles (set-up, paid on every
``simulate``), then a post-warmup window driven through
``GPGPUSystem.run`` in fixed slices, closed loop from this one process.
In the measured run every slice is timed against the host-speed
calibration on either side of it (``calibrate.py``).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Optional

from calibrate import REF_S, SliceClock
from common import (
    DEFAULT_SEED,
    MIN_BEYOND,
    Outcome,
    digest_matches,
    digest_of,
    fresh_import_s,
    min_samples,
    op_time_notes,
)
from tracing import LayerStats, Patch, Tracer

WORKLOADS = {
    "bfs_ari_loaded": ("bfs", "ada-ari"),
    "hybridsort_xy_writes": ("hybridsort", "xy-baseline"),
}

#: Simulated interconnect cycles per timed ``run()`` slice.
SLICE_CYCLES = 10
#: The digest covers this many cycles from the start of the window, so it
#: is independent of how many slices the host manages in the time given.
DIGEST_CYCLES = 1000
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
IMPORT_STATEMENT = "import repro.experiments.runner"


def spec_for(workload: str, seed: int):
    from repro.experiments.runner import RunSpec

    benchmark, scheme = WORKLOADS[workload]
    return RunSpec(benchmark, scheme, seed=seed)


def set_up(spec, build=None):
    """Build, prewarm and warm up one system; returns it."""
    from repro.experiments.runner import build_system

    system = (build or build_system)(spec)
    system.prewarm_caches()
    system.run(spec.warmup)
    return system


# -- simulated statistics --------------------------------------------------------

def stats_snapshot(system) -> Dict[str, object]:
    """Counters the window digest is taken over."""
    from repro.noc.flit import PacketType

    out: Dict[str, object] = {}
    for tag, net in (("req", system.request_net), ("rep", system.reply_net)):
        st = net.stats
        out[tag] = {
            "packets_offered": st.packets_offered,
            "packets_delivered": st.packets_delivered,
            "flits": {t.name: st.flits_delivered[t] for t in PacketType},
            "latency_total": {t.name: st.latency[t].total for t in PacketType},
            "latency_count": {t.name: st.latency[t].count for t in PacketType},
            "network_latency_total": {
                t.name: st.latency[t].net_total for t in PacketType
            },
        }
    out["instructions"] = sum(c.stats.instructions for c in system.cores)
    out["read_replies"] = sum(c.stats.read_replies for c in system.cores)
    out["replies_sent"] = sum(m.stats.replies_sent for m in system.mcs)
    out["mc_stall_cycles"] = sum(m.stats.stall_cycles for m in system.mcs)
    out["mc_stall_time"] = sum(m.stats.stall_data_time for m in system.mcs)
    return out


def delta(before, after):
    """``after - before`` over nested dicts of counters."""
    if isinstance(after, dict):
        return {k: delta(before[k], after[k]) for k in after}
    return after - before


def window_digest(workload: str, seed: int, before, after) -> str:
    return digest_of(
        {
            "workload": workload,
            "seed": seed,
            "cycles": DIGEST_CYCLES,
            "stats": delta(before, after),
        }
    )


def conservation_problems(net) -> list:
    """Flit-conservation and flow-control problems of one mesh network."""
    from repro.noc.validation import InvariantChecker

    problems = []
    injected = sum(ni.stats.flits_sent for ni in net.nis)
    buffered = sum(r.occupancy() for r in net.routers)
    links = net.injection_links + net.mesh_links + net.ejection_links
    on_links = sum(link.in_flight for link in links)
    received = sum(e.flits_received for e in net.ejectors)
    if injected != received + buffered + on_links:
        problems.append(
            f"flits injected {injected} != received {received} + buffered "
            f"{buffered} + on links {on_links}"
        )
    delivered = sum(net.stats.flits_delivered.values())
    partial = sum(e.partially_received for e in net.ejectors)
    if received - delivered < partial or (received == delivered) != (
        partial == 0
    ):
        problems.append(
            f"flits received {received} vs delivered {delivered} with "
            f"{partial} packets partly received"
        )
    checker = InvariantChecker(net, collect=True)
    checker.audit()
    problems.extend(checker.violations)
    return problems


def _timed_by(slice_clock: SliceClock, run_slice):
    def timed(cycles):
        slice_clock.time(run_slice, cycles)

    return timed


def calibrated_rate(
    slice_clock: SliceClock, cycles: int, what: str,
    per_cycle: Optional[float] = None,
):
    """The ``norm_sim_cycles_per_s`` metric of calibrated slices (from
    ``per_cycle`` calibrated seconds per cycle when given), with the plain
    rate, slice times and calibration times as notes."""
    if per_cycle is None:
        per_cycle = sum(slice_clock.scaled) / cycles
    rate = (
        1.0 / per_cycle, "cycles/s",
        f"{cycles} cycles in {len(slice_clock.scaled)} slices, each "
        f"rescaled to a host where the calibration unit takes "
        f"{REF_S * 1e3:g} ms",
    )
    cal = slice_clock.calibrations
    notes = [
        f"sim_cycles_per_s = {cycles / sum(slice_clock.raw):.6g} cycles/s "
        f"(plain host seconds, same slices)",
        f"calibration_ms median {statistics.median(cal) * 1e3:.4g}, min "
        f"{min(cal) * 1e3:.4g}, max {max(cal) * 1e3:.4g} (n={len(cal)})",
    ]
    notes += op_time_notes(slice_clock.raw, what)
    return rate, notes


# -- per-layer instrumentation ---------------------------------------------------

def instrument(system, tracer: Tracer) -> None:
    """Wrap each layer's per-cycle entry points on this system's objects."""
    wrap = tracer.wrap
    system.step = wrap("gpu.system", system.step)
    for core in system.cores:
        core.step_core_cycle = wrap("gpu.core", core.step_core_cycle)
        core.step_core_cycle_fast = wrap("gpu.core", core.step_core_cycle_fast)
    for mc in system.mcs:
        mc.step = wrap("gpu.mc", mc.step)
    for tag, net in (("req", system.request_net), ("rep", system.reply_net)):
        net.step = wrap(f"noc.{tag}.net", net.step)
        for router in net.routers:
            router.step = wrap(f"noc.{tag}.router", router.step)
            router.step_fast = wrap(f"noc.{tag}.router", router.step_fast)
        for ni in net.nis:
            ni.step = wrap(f"noc.{tag}.ni", ni.step)


# -- the window ------------------------------------------------------------------

class Window:
    """Drives the post-warmup window slice by slice."""

    def __init__(self, workload: str, seed: int, system, outcome: Outcome):
        self.workload, self.seed = workload, seed
        self.system = system
        self.outcome = outcome
        self.cycles = 0
        self.start = stats_snapshot(system)
        self.digest: Optional[str] = None
        self.deadlocked = False

    def run(
        self, seconds: float, min_slices: int = 0, tracer=None,
        slice_clock: Optional[SliceClock] = None,
    ):
        """Run slices for ``seconds`` (and at least ``min_slices`` and the
        digest prefix); returns the slice host times.  With
        ``slice_clock``, each slice is also timed against the calibration
        in it."""
        from repro.noc.network import DeadlockError

        system, clock = self.system, time.perf_counter
        run_slice = system.run
        if tracer is not None:
            run_slice = tracer.wrap("window.slice", run_slice)
        if slice_clock is not None:
            run_slice = _timed_by(slice_clock, run_slice)
        slices = []
        deadline = clock() + seconds
        while not self.deadlocked:
            t0 = clock()
            try:
                run_slice(SLICE_CYCLES)
            except DeadlockError:
                self.deadlocked = True
                self.outcome.op(False)
                break
            slices.append(clock() - t0)
            self.outcome.op(True)
            self.cycles += SLICE_CYCLES
            if self.cycles == DIGEST_CYCLES:
                self.digest = window_digest(
                    self.workload, self.seed, self.start, stats_snapshot(system)
                )
            if (
                clock() >= deadline
                and len(slices) >= min_slices
                and self.cycles >= DIGEST_CYCLES
            ):
                break
        return slices

    def check(self) -> None:
        out = self.outcome
        out.check("no DeadlockError", not self.deadlocked)
        for tag, net in (
            ("req", self.system.request_net), ("rep", self.system.reply_net)
        ):
            problems = conservation_problems(net)
            out.check(
                f"{tag} network conserves flits", not problems,
                "; ".join(problems[:3]),
            )
        if self.seed == DEFAULT_SEED:
            out.check(
                f"window digest over {DIGEST_CYCLES} cycles matches record",
                self.digest is not None
                and digest_matches(self.workload, self.digest),
                str(self.digest),
            )


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one loaded workload; returns (metrics, outcome, notes)."""
    spec = spec_for(workload, seed)
    outcome = Outcome()
    if trace:
        return _run_traced(workload, seed, seconds, spec, outcome)

    setups = []
    for _ in range(SETUPS):
        system = None  # one system alive at a time
        imported = fresh_import_s(IMPORT_STATEMENT)
        t0 = time.perf_counter()
        system = set_up(spec)
        setups.append(imported + time.perf_counter() - t0)

    window = Window(workload, seed, system, outcome)
    slice_clock = SliceClock()
    window.run(seconds, min_slices=min_samples(95), slice_clock=slice_clock)
    window.check()
    rate, notes = calibrated_rate(
        slice_clock, window.cycles, f"{SLICE_CYCLES}-cycle run() slice"
    )
    metrics = {
        "norm_sim_cycles_per_s": rate,
        "setup_s": (
            statistics.median(setups), "s",
            f"median of {SETUPS}: fresh import + build + prewarm + "
            f"{spec.warmup} warmup cycles",
        ),
    }
    return metrics, outcome, notes


def _run_traced(workload, seed, seconds, spec, outcome):
    """Untraced third of the time, then the traced rest, on one system."""
    import repro.staticcheck.runner as sc_runner
    from repro.experiments.runner import build_system
    from repro.workloads.profile import InstructionStream

    tracer = Tracer()
    with Patch(
        sc_runner, "validate_spec",
        lambda f: tracer.wrap("staticcheck.validate", f),
    ):
        system = set_up(spec, build=tracer.wrap("experiments.build", build_system))
        window = Window(workload, seed, system, outcome)
        plain = window.run(seconds / 3.0, min_slices=MIN_BEYOND)
        plain_cps = len(plain) * SLICE_CYCLES / sum(plain)
        before = stats_snapshot(system)
        instrument(system, tracer)
        with Patch(
            InstructionStream, "next",
            lambda f: tracer.wrap("workloads.next", f),
        ):
            traced = window.run(
                seconds * 2.0 / 3.0, min_slices=MIN_BEYOND, tracer=tracer
            )
        after = stats_snapshot(system)
    window.check()

    layers = tracer.aggregate()

    def layer(name):
        return layers.get(name) or LayerStats()

    wall = layer("window.slice").total_s
    traced_cycles = len(traced) * SLICE_CYCLES
    values: Dict[str, float] = {}
    for tag in ("req", "rep"):
        net, router, ni = (
            layer(f"noc.{tag}.net"), layer(f"noc.{tag}.router"),
            layer(f"noc.{tag}.ni"),
        )
        flits = sum(after[tag]["flits"].values()) - sum(
            before[tag]["flits"].values()
        )
        p = f"noc.{tag}."
        values[p + "busy_frac"] = net.total_s / wall
        values[p + "router_frac"] = router.total_s / wall
        values[p + "ni_frac"] = ni.total_s / wall
        values[p + "kernel_self_frac"] = net.self_s / wall
        values[p + "router_visits"] = router.calls / traced_cycles
        values[p + "router_useful_frac"] = (
            router.nonzero / router.calls if router.calls else 0.0
        )
        values[p + "us_per_router_visit"] = (
            router.total_s * 1e6 / router.calls if router.calls else 0.0
        )
        values[p + "flits_delivered"] = flits
        values[p + "packets_delivered"] = (
            after[tag]["packets_delivered"] - before[tag]["packets_delivered"]
        )
        values[p + "host_us_per_flit"] = (
            net.total_s * 1e6 / flits if flits else 0.0
        )
    instructions = after["instructions"] - before["instructions"]
    system_span = layer("gpu.system")
    values.update(
        {
            "gpu.cores.busy_frac": layer("gpu.core").total_s / wall,
            "gpu.cores.calls": layer("gpu.core").calls,
            "gpu.mcs.busy_frac": layer("gpu.mc").total_s / wall,
            "gpu.system.self_frac": system_span.self_s / wall,
            "gpu.instructions": instructions,
            "gpu.host_us_per_instr": (
                wall * 1e6 / instructions if instructions else 0.0
            ),
            "workloads.next_frac": layer("workloads.next").total_s / wall,
            "experiments.build_ms": layer("experiments.build").total_s * 1e3,
            "staticcheck.validate_calls": layer("staticcheck.validate").calls,
            "staticcheck.validate_ms": (
                layer("staticcheck.validate").total_s * 1e3
            ),
            "trace.window_accounted_frac": system_span.total_s / wall,
            "trace_overhead_frac": 1.0 - (traced_cycles / wall) / plain_cps,
        }
    )
    notes = [
        f"traced window: {traced_cycles} cycles, {len(traced)} slices, "
        f"{len(tracer.starts)} spans; untraced: {len(plain) * SLICE_CYCLES} "
        f"cycles at {plain_cps:.1f} cycles/s",
    ]
    return values, outcome, notes
