"""CSV export and selection helpers for sweep records.

The sweep engine itself lives in :func:`repro.experiments.api.sweep`
(parallel, cached, retried); this module holds the tidy-record export
helpers::

    from repro.experiments.api import sweep

    records = sweep(
        RunSpec("bfs", "ada-ari", cycles=800, warmup=200),
        axes={"num_vcs": [2, 4], "injection_speedup": [1, 2, 4]},
        workers=4,
    )
    write_csv(records, "vc_speedup_sweep.csv")
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.experiments.report import to_csv


def records_to_csv(records: Sequence[Mapping[str, object]]) -> str:
    """Render sweep records as CSV text (stable column order)."""
    if not records:
        return ""
    headers: List[str] = []
    for rec in records:
        for k in rec:
            if k not in headers:
                headers.append(k)
    rows = [[rec.get(h, "") for h in headers] for rec in records]
    return to_csv(headers, rows)


def write_csv(records: Sequence[Mapping[str, object]], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(records_to_csv(records) + "\n")


def best_by(
    records: Sequence[Mapping[str, object]],
    metric: str = "ipc",
    maximize: bool = True,
) -> Optional[Mapping[str, object]]:
    """The record with the best value of ``metric``.

    Records that lack the metric are skipped (they used to be treated as
    +/-inf, which let them win or lose inconsistently); returns ``None``
    when no record carries it.
    """
    carrying = [r for r in records if metric in r]
    if not carrying:
        return None
    def key(r):
        return r[metric]

    return max(carrying, key=key) if maximize else min(carrying, key=key)
