"""Experiment harness: one driver per paper table/figure.

``repro.experiments.api`` is the public execution surface — ``run`` /
``run_many`` / ``sweep`` / ``grid`` — backed by a process-pool
:class:`~repro.experiments.executor.SweepExecutor` and a per-run-file
:class:`~repro.experiments.store.ResultStore` (a directory named by
``REPRO_CACHE``), so re-renders are free and multi-core hosts shard the
scheme x benchmark grid across workers.

``repro.experiments.figures`` exposes ``fig3`` ... ``fig16`` plus the
Section-3 characterization and Section-7.5 scalability studies.  All
drivers accept a ``scale`` knob (simulated cycles + benchmark subset)
and a ``workers`` knob, so the same code serves quick CI benches and the
longer EXPERIMENTS.md runs.  See docs/experiments.md.
"""

from repro.experiments import figures
from repro.experiments.api import (
    grid,
    run,
    run_live,
    run_many,
    sweep,
)
from repro.experiments.executor import ExecutionReport, ExecutorError, SweepExecutor
from repro.experiments.report import render_kv, render_table
from repro.experiments.runner import RunSpec, geometric_mean
from repro.experiments.store import ResultStore, default_store, set_default_store

__all__ = [
    "RunSpec",
    "run",
    "run_live",
    "run_many",
    "sweep",
    "grid",
    "ResultStore",
    "default_store",
    "set_default_store",
    "SweepExecutor",
    "ExecutionReport",
    "ExecutorError",
    "geometric_mean",
    "figures",
    "render_table",
    "render_kv",
]
