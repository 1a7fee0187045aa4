"""The zero-overhead contract: an empty fault plan changes nothing.

A spec with ``faults=None`` never imports :mod:`repro.faults`.  A spec
with an *empty* plan installs the whole subsystem — wrapped routing,
network hooks, injectors — and its per-run records must still be
byte-identical to the plain run (only host-timing extras may differ).
"""

import dataclasses
import json

import pytest

from repro.experiments.executor import simulate_spec
from repro.experiments.runner import RunSpec

BUDGET = dict(cycles=120, warmup=30, mesh=4, warps_per_core=4)

#: Host-timing extras legitimately differ between two runs of anything.
WALL_KEYS = ("build_wall_s", "sim_wall_s", "sim_cycles_per_sec")


def record(result):
    d = dataclasses.asdict(result)
    for k in WALL_KEYS:
        d["extras"].pop(k, None)
    # json round-trip = exactly what the result store would persist.
    return json.dumps(d, sort_keys=True)


@pytest.mark.parametrize("scheme", ["xy-baseline", "ada-ari"])
def test_empty_plan_records_byte_identical(scheme):
    plain = simulate_spec(
        RunSpec("binomialOptions", scheme, **BUDGET)
    )
    faulted = simulate_spec(
        RunSpec("binomialOptions", scheme, faults="", fault_detour=True,
                **BUDGET)
    )
    assert record(plain) == record(faulted)


def test_empty_plan_adds_no_fault_extras():
    result = simulate_spec(
        RunSpec("binomialOptions", "xy-baseline", faults="", **BUDGET)
    )
    assert not any(k.startswith("fault_") for k in result.extras)
    assert "delivered_fraction" not in result.extras
    assert "first_deadlock_cycle" not in result.extras


def test_plain_spec_never_imports_faults_package(tmp_path):
    """A no-faults run must not even load the subsystem."""
    import os
    import subprocess
    import sys

    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys\n"
        "from repro.experiments.executor import simulate_spec\n"
        "from repro.experiments.runner import RunSpec\n"
        "simulate_spec(RunSpec('binomialOptions', 'xy-baseline', cycles=60,"
        " warmup=20, mesh=4, warps_per_core=4))\n"
        "assert not any(m.startswith('repro.faults') for m in sys.modules),"
        " sorted(m for m in sys.modules if m.startswith('repro.faults'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": src_dir,
            "REPRO_CACHE": str(tmp_path / "c"),
        },
    )
    assert proc.returncode == 0, proc.stderr


def test_fault_fields_keep_legacy_cache_keys():
    """Unset fault fields must not perturb pre-existing content keys."""
    spec = RunSpec("bfs", "ada-ari", cycles=300, warmup=100)
    assert spec.faults is None and spec.fault_detour is None
    payload = dataclasses.asdict(spec)
    del payload["faults"], payload["fault_detour"]
    legacy = RunSpec(**payload)
    assert legacy.key() == spec.key()
    # A set plan does change the key (it changes the simulation).
    assert RunSpec("bfs", "ada-ari", cycles=300, warmup=100,
                   faults="link:r5.E@0").key() != spec.key()
