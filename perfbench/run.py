"""Repository benchmark: simulator host speed on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bfs_ari_loaded --seed 3 \\
        --seconds 40 --trace 0

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
a separate traced run prints every per-layer metric.  Each metric line
names its unit and sample count, the output checks follow, and the last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and what each layer metric should move
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    DEFAULT_SEED,
    ROOT,
    SRC,
    isolate_env,
    peak_rss_mb,
    provenance,
    reap_children,
)

WORKLOADS = (
    "bfs_ari_loaded",
    "hybridsort_xy_writes",
    "fig11_smoke_replay",
    "faults_audited_campaign",
)

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("norm_sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_NOC = (
    ("busy_frac", "frac"),
    ("router_frac", "frac"),
    ("ni_frac", "frac"),
    ("kernel_self_frac", "frac"),
    ("router_visits", "visits/cycle"),
    ("router_useful_frac", "frac"),
    ("us_per_router_visit", "us"),
    ("host_us_per_flit", "us"),
    ("flits_delivered", "count"),
    ("packets_delivered", "count"),
)

#: (name, unit) of every per-layer metric, as in BENCHMARK.json.  A layer
#: a workload does not exercise reports 0.
PER_LAYER = tuple(
    (f"noc.{net}.{name}", unit) for net in ("req", "rep") for name, unit in _NOC
) + (
    ("gpu.cores.busy_frac", "frac"),
    ("gpu.cores.calls", "count"),
    ("gpu.mcs.busy_frac", "frac"),
    ("gpu.system.self_frac", "frac"),
    ("gpu.host_us_per_instr", "us"),
    ("gpu.instructions", "count"),
    ("workloads.next_frac", "frac"),
    ("experiments.store.get_calls", "count"),
    ("experiments.store.get_ms", "ms"),
    ("experiments.store.put_calls", "count"),
    ("experiments.store.put_ms", "ms"),
    ("experiments.executor.execute_s", "s"),
    ("experiments.executor.worker_busy_frac", "frac"),
    ("experiments.executor.cache_hit_frac", "frac"),
    ("experiments.executor.retries", "count"),
    ("experiments.build_ms", "ms"),
    ("experiments.figure_ms", "ms"),
    ("staticcheck.validate_calls", "count"),
    ("staticcheck.validate_ms", "ms"),
    ("faults.sim_s.dead0", "s"),
    ("faults.sim_s.dead1", "s"),
    ("faults.sim_s.dead2", "s"),
    ("faults.invariant_violations", "count"),
    ("trace.window_accounted_frac", "frac"),
    ("trace_overhead_frac", "frac"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args, scratch):
    """Run the workload; returns (metrics, outcome, notes)."""
    if args.workload in ("bfs_ari_loaded", "hybridsort_xy_writes"):
        import loaded

        return loaded.run(args.workload, args.seed, args.seconds, args.trace)
    import batch

    return batch.run(
        args.workload, args.seed, args.seconds, args.trace, scratch
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        isolate_env(scratch)
        print(
            f"perfbench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}"
        )
        print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
        metrics, outcome, notes = measure(args, scratch)
        reap_children()
        if args.trace:
            declared = PER_LAYER
            unknown = set(metrics) - {name for name, _ in declared}
            if unknown:
                raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
            shown = {
                name: (float(metrics.get(name, 0.0)), unit, "")
                for name, unit in declared
            }
        else:
            declared = END_TO_END
            metrics["peak_rss_mb"] = (
                peak_rss_mb(), "MB", "max of this process and its children"
            )
            shown = metrics
        for name, unit in declared:
            value, got_unit, detail = shown[name]
            if got_unit != unit:
                raise ValueError(f"{name}: unit {got_unit} != declared {unit}")
            suffix = f"  ({detail})" if detail else ""
            print(f"metric {name} = {value:.6g} {unit}{suffix}")
        for note in notes:
            print(f"note {note}")
        for name, ok, detail in outcome.checks:
            tail = f"  [{detail}]" if detail and not ok else ""
            print(f"check {'ok  ' if ok else 'FAIL'} {name}{tail}")
        frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
        print(
            f"failed_frac = {frac:.6g} ({outcome.failed} of "
            f"{outcome.attempted} operations and checks)"
        )
        print(
            json.dumps(
                {
                    "correct": outcome.correct,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed,
                    "metrics": {
                        name: {"value": shown[name][0], "unit": unit}
                        for name, unit in declared
                    },
                }
            )
        )
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
