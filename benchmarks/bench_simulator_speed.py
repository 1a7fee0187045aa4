"""Performance benchmark: raw simulator throughput.

Not a paper figure — a performance-regression guard for the simulator
itself. Times fixed-size full-system and NoC-only stepping so a future
change that slows the hot loop shows up in `--benchmark-compare` runs.

Each test also feeds a :class:`~repro.telemetry.HostProfiler` per round
and writes ``results/bench_tables/BENCH_simulator_speed.json`` (cycles/sec,
packets/sec per scenario) from this session's measurements only: each row
is the median round of the ``pedantic`` rounds, and rows not measured in
this session are dropped, so a slowdown always reaches the table.
"""

import os
import statistics
from typing import Dict, List

import pytest

import _emit
from repro.core.schemes import scheme
from repro.gpu.config import GPUConfig
from repro.gpu.system import GPGPUSystem
from repro.noc import Network, NetworkConfig
from repro.noc.topology import default_placement
from repro.telemetry import HostProfiler
from repro.workloads.suite import benchmark as get_benchmark
from repro.workloads.traffic import ReplyTrafficPattern, SyntheticTrafficGenerator

SPEED_JSON = os.path.join(
    os.path.dirname(__file__), "..", "results", "bench_tables",
    "BENCH_simulator_speed.json",
)

#: (activity scenario, reference scenario) pairs.  Both kernels step the
#: same router and core pipeline, so ``kernel_speedup`` measures the
#: activity kernel's scheduling gain only.
KERNEL_PAIRS = (
    ("full_system_activity", "full_system"),
    ("idle_mesh_activity", "idle_mesh"),
)


class SpeedTable:
    """This session's rounds per scenario, written out after each round."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.rounds: Dict[str, List[dict]] = {}

    def record(self, scenario: str, profiler: HostProfiler) -> None:
        """Add one round of ``scenario`` and rewrite the table."""
        self.rounds.setdefault(scenario, []).append({
            "cycles_per_sec": profiler.rate("cycles", "measure"),
            "packets_per_sec": profiler.rate("packets", "measure"),
            "wall_s": profiler.phase_seconds("measure"),
            "cycles": profiler.counters.get("cycles", 0),
            "packets": profiler.counters.get("packets", 0),
        })
        data = {name: self._median_round(name) for name in self.rounds}
        for act, ref in KERNEL_PAIRS:
            if act in data and ref in data and data[ref]["cycles_per_sec"]:
                data[act]["kernel_speedup"] = (
                    data[act]["cycles_per_sec"] / data[ref]["cycles_per_sec"]
                )
        _emit.write_bench_json(self.path, data)

    def _median_round(self, scenario: str) -> dict:
        """The round with the median cycles/sec (the lower one of an even
        count), so every field of the row comes from one measurement."""
        rounds = self.rounds[scenario]
        rate = statistics.median_low(r["cycles_per_sec"] for r in rounds)
        return dict(next(r for r in rounds if r["cycles_per_sec"] == rate))


@pytest.fixture(scope="module")
def table():
    return SpeedTable(os.path.abspath(SPEED_JSON))


def _run_full_system(table, scenario: str, kernel=None) -> int:
    system = GPGPUSystem(
        GPUConfig(), scheme("ada-ari"), get_benchmark("bfs"), seed=1,
        kernel=kernel,
    )
    system.prewarm_caches()
    prof = HostProfiler()
    with prof.phase("measure"):
        system.run(300)
    prof.count("cycles", 300)
    prof.count(
        "packets",
        system.request_net.stats.packets_delivered
        + system.reply_net.stats.packets_delivered,
    )
    table.record(scenario, prof)
    return system.now


def test_full_system_cycles_per_second(benchmark, table):
    cycles = benchmark.pedantic(
        lambda: _run_full_system(table, "full_system"), rounds=3, iterations=1
    )
    assert cycles == 300


def test_full_system_activity_kernel(benchmark, table):
    cycles = benchmark.pedantic(
        lambda: _run_full_system(
            table, "full_system_activity", kernel="activity"
        ),
        rounds=3, iterations=1,
    )
    assert cycles == 300


def test_noc_only_cycles_per_second(benchmark, table):
    def build_and_run():
        mcs, ccs = default_placement(6, 6, 8)
        net = Network(
            NetworkConfig(width=6, height=6, routing="adaptive",
                          accelerated_nodes=set(mcs))
        )
        gen = SyntheticTrafficGenerator(
            net, ReplyTrafficPattern(mcs, ccs, seed=2), rate=0.15, seed=3
        )
        prof = HostProfiler()
        with prof.phase("measure"):
            gen.run(1000)
        prof.count("cycles", 1000)
        prof.count("packets", net.stats.packets_delivered)
        table.record("noc_only", prof)
        return net.now

    cycles = benchmark.pedantic(build_and_run, rounds=3, iterations=1)
    assert cycles == 1000


def _run_idle(table, scenario: str, kernel=None) -> int:
    net = Network(NetworkConfig(width=6, height=6), kernel=kernel)
    prof = HostProfiler()
    with prof.phase("measure"):
        net.run(5000)
    prof.count("cycles", 5000)
    table.record(scenario, prof)
    return net.now


def test_idle_network_is_cheap(benchmark, table):
    """Idle routers must be skipped: stepping an empty 6x6 mesh for 5000
    cycles should be orders of magnitude faster than a loaded one."""
    cycles = benchmark.pedantic(
        lambda: _run_idle(table, "idle_mesh"), rounds=3, iterations=1
    )
    assert cycles == 5000


def test_idle_mesh_activity_kernel(benchmark, table):
    cycles = benchmark.pedantic(
        lambda: _run_idle(table, "idle_mesh_activity", kernel="activity"),
        rounds=3, iterations=1,
    )
    assert cycles == 5000


def test_speed_json_written(table):
    """The machine-readable perf artifact exists and has the right shape."""
    prof = HostProfiler()
    with prof.phase("measure"):
        Network(NetworkConfig(width=4, height=4)).run(100)
    prof.count("cycles", 100)
    table.record("smoke_4x4", prof)
    payload = _emit.load_bench_data(os.path.abspath(SPEED_JSON))
    assert "smoke_4x4" in payload
    assert payload["smoke_4x4"]["cycles_per_sec"] > 0
    # The on-disk artifact is a stamped envelope, not a bare dict.
    import json

    from repro.perfwatch import schema

    with open(os.path.abspath(SPEED_JSON)) as fh:
        envelope = json.load(fh)
    assert schema.is_envelope(envelope)
    assert envelope["bench"] == "simulator_speed"
