"""Golden corpus: payload digests of the quick kernel-equivalence grid.

``tests/golden/pipeline_digests.json`` holds one SHA-256 digest per case
of :func:`repro.experiments.equivalence.network_cases` and
:func:`~repro.experiments.equivalence.system_cases` (``quick=True``), plus
one fault case that installs detour routing on an XY network that has
already stepped.  The file pins the router and core pipeline's behaviour
as data: every kernel must reproduce every digest, so a change to
arbitration, flow control or core issue shows up here.

Regenerate (only for an intended behaviour change, in the same commit)::

    PYTHONPATH=src python tests/test_pipeline_golden.py
"""

import hashlib
import json
import os
from typing import Dict

import pytest

from repro.experiments.equivalence import (
    _run_network_case,
    _run_system_case,
    _run_telemetry_case,
    network_cases,
    network_snapshot,
    system_cases,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "pipeline_digests.json"
)

LATE_FAULTS_CASE = "net/hotspot/xy/multiport+late-detour"


def payload_digest(payload: Dict[str, object]) -> str:
    """SHA-256 of a payload's canonical JSON form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_late_faults_case(kernel: str) -> Dict[str, object]:
    """Detour routing installed on an XY network after it has stepped.

    The fault-aware wrapper restricts VC 0 to the escape port while the
    cut is live, so a router that kept the VC rule of the routing it saw
    on its first step would allocate differently here.
    """
    from repro.faults.injector import install_faults
    from repro.faults.model import FaultPlan
    from repro.noc import Network, NetworkConfig
    from repro.noc.ni import NIKind
    from repro.noc.topology import default_placement
    from repro.workloads.traffic import (
        ReplyTrafficPattern,
        SyntheticTrafficGenerator,
    )

    mcs, ccs = default_placement(4, 4, 8)
    net = Network(
        NetworkConfig(
            width=4, height=4, routing="xy", ni_kind=NIKind.MULTIPORT,
            accelerated_nodes=set(mcs),
            priority_enabled=True, priority_levels=4,
            starvation_threshold=200, injection_speedup=2,
        ),
        kernel=kernel,
    )
    gen = SyntheticTrafficGenerator(
        net, ReplyTrafficPattern(mcs, ccs, seed=2), rate=0.5, seed=3
    )
    gen.run(120)
    install_faults(net, FaultPlan.parse("link:r5.E@130"))
    gen.run(330)
    snap = network_snapshot(net)
    snap["gen"] = [gen.offered, gen.blocked, gen.stall_cycles]
    return snap


def case_names():
    names = [name for name, _kwargs in network_cases(quick=True)]
    names += [name for name, _spec, _tel in system_cases(quick=True)]
    names.append(LATE_FAULTS_CASE)
    return names


def compute_digest(name: str, kernel: str) -> str:
    for case, kwargs in network_cases(quick=True):
        if case == name:
            return payload_digest(_run_network_case(kernel, **kwargs))
    for case, spec, telemetry in system_cases(quick=True):
        if case == name:
            run = _run_telemetry_case if telemetry else _run_system_case
            return payload_digest(run(spec, kernel))
    if name == LATE_FAULTS_CASE:
        return payload_digest(_run_late_faults_case(kernel))
    raise KeyError(name)


def _load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_corpus_covers_every_case():
    assert sorted(_load_golden()) == sorted(case_names())


@pytest.mark.parametrize("kernel", ["reference", "activity"])
@pytest.mark.parametrize("name", case_names())
def test_pipeline_digest(name, kernel):
    assert compute_digest(name, kernel) == _load_golden()[name]


if __name__ == "__main__":
    digests = {name: compute_digest(name, "reference") for name in case_names()}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
