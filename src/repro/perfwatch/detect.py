"""Noise-aware regression/improvement detection over ledger series.

For each (bench, metric) series the latest record is compared against a
robust rolling baseline of the preceding records: the baseline center is
the median, the acceptance band is ``median +/- max(k * 1.4826 * MAD,
noise_floor * |median|)``.  MAD makes one historical outlier harmless; a
genuinely high-variance series grows a wide band and suppresses itself;
the multiplicative noise floor keeps a perfectly flat history from
flagging on the first 1-ulp wiggle.

Per-metric :class:`MetricPolicy` entries (matched by ``fnmatch`` pattern,
first match wins) decide the *direction* that counts as a regression,
the relative-delta threshold that escalates a finding to ``error``
severity, and the min-samples guard — a two-point history never gates.

Findings are :class:`~repro.perfwatch.findings.PerfFinding` records
carrying the metric, the baseline band, and the changed config axes
(driver analysis, :mod:`repro.perfwatch.drivers`), graded on the
:mod:`repro.staticcheck` severity ladder so the CLI/CI gate reuses
``CheckReport`` rendering and exit policy unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.perfwatch.drivers import attribute_axes, format_axes
from repro.perfwatch.findings import PerfFinding, sort_findings
from repro.perfwatch.ledger import (
    LedgerRecord,
    PerfLedger,
    SeriesKey,
    series_id,
)
from repro.staticcheck.diagnostics import Severity

#: Regression direction vocabulary.
HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"
EITHER = "either"       # direction unknown: any move is suspect, max WARNING
COUNTER = "counter"     # workload-size counter: data-quality only, never perf


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric series is judged."""

    direction: str = EITHER
    rel_threshold: float = 0.10   # relative delta that makes a move an error
    min_samples: int = 4          # min series length before any gating
    mad_scale: float = 3.5        # band half-width in (scaled-MAD) sigmas
    noise_floor: float = 0.05     # band half-width floor, relative to median
    window: int = 20              # rolling baseline size


#: Wall-clock rates/times are host-noisy: wide floor, high threshold.
_TIMING = dict(rel_threshold=0.25, noise_floor=0.10)

#: Default policy table; first ``fnmatch`` hit wins, order matters.
DEFAULT_POLICIES: Tuple[Tuple[str, MetricPolicy], ...] = (
    ("*cycles_per_sec", MetricPolicy(HIGHER_BETTER, **_TIMING)),
    ("*packets_per_sec", MetricPolicy(HIGHER_BETTER, **_TIMING)),
    ("*trials_per_sec", MetricPolicy(HIGHER_BETTER, **_TIMING)),
    # Search-service KPIs (BENCH_search.json): the cache-hit fraction of
    # the warm pass and the objective scores are deterministic on a fixed
    # seed, so even small moves are signal, not host noise.
    ("*cache_hit_fraction", MetricPolicy(HIGHER_BETTER, rel_threshold=0.02,
                                         noise_floor=0.01)),
    ("*best_objective", MetricPolicy(HIGHER_BETTER, rel_threshold=0.02,
                                     noise_floor=0.01)),
    ("*best_at_*", MetricPolicy(HIGHER_BETTER, rel_threshold=0.02,
                                noise_floor=0.01)),
    ("*baseline_objective", MetricPolicy(EITHER)),
    ("*space_points", MetricPolicy(COUNTER)),
    ("*.budget", MetricPolicy(COUNTER)),
    ("*.evaluated", MetricPolicy(COUNTER)),
    ("*.pruned", MetricPolicy(COUNTER)),
    ("*.executed", MetricPolicy(COUNTER)),
    ("*runs_per_sec", MetricPolicy(HIGHER_BETTER, **_TIMING)),
    ("*wall_s", MetricPolicy(LOWER_BETTER, **_TIMING)),
    # Activity-kernel speedup over the reference kernel, measured in one
    # session back-to-back — a ratio of two same-host rates, so much less
    # host-noisy than either raw rate.  Both kernels step the same router
    # and core pipeline, so the ratio measures the scheduling gain only.
    ("*kernel_speedup", MetricPolicy(HIGHER_BETTER, rel_threshold=0.20,
                                     noise_floor=0.08)),
    ("*speedup", MetricPolicy(HIGHER_BETTER, **_TIMING)),
    ("*ipc", MetricPolicy(HIGHER_BETTER, rel_threshold=0.10)),
    ("*latency*", MetricPolicy(LOWER_BETTER, rel_threshold=0.10)),
    ("*stall*", MetricPolicy(LOWER_BETTER, rel_threshold=0.15)),
    ("*delivered_fraction", MetricPolicy(HIGHER_BETTER, rel_threshold=0.02,
                                         noise_floor=0.01)),
    ("*invariant_violations", MetricPolicy(LOWER_BETTER, noise_floor=0.0)),
    ("*.cycles", MetricPolicy(COUNTER)),
    ("*.packets", MetricPolicy(COUNTER)),
    ("*dropped", MetricPolicy(COUNTER)),
    ("*host_cpus", MetricPolicy(COUNTER)),
    ("*grid_runs", MetricPolicy(COUNTER)),
    ("*sim_cycles_per_run", MetricPolicy(COUNTER)),
    ("*workers", MetricPolicy(COUNTER)),
    ("*.count", MetricPolicy(COUNTER)),
)

#: Fallback when nothing matches: unknown direction, advisory only.
DEFAULT_POLICY = MetricPolicy(EITHER)

Policies = Sequence[Tuple[str, MetricPolicy]]


def policy_for(metric: str, policies: Optional[Policies] = None) -> MetricPolicy:
    table = policies if policies is not None else DEFAULT_POLICIES
    for pattern, policy in table:
        if fnmatch(metric, pattern):
            return policy
    return DEFAULT_POLICY


# -- robust statistics -------------------------------------------------------

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of empty sequence")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_band(
    values: Sequence[float], policy: MetricPolicy
) -> Tuple[float, float, float]:
    """``(median, lo, hi)`` of the MAD band around the baseline values."""
    center = median(values)
    mad = median([abs(v - center) for v in values])
    half = max(
        policy.mad_scale * 1.4826 * mad,
        policy.noise_floor * abs(center),
    )
    return center, center - half, center + half


# -- detection ---------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6g}"


def detect_series(
    key: SeriesKey,
    records: Sequence[LedgerRecord],
    policy: MetricPolicy,
    pinned: Optional[Mapping] = None,
    include_improvements: bool = True,
) -> List[PerfFinding]:
    """Judge the latest record of one series; ``[]`` when nothing moved.

    ``pinned`` (a ``baseline.json`` entry) replaces the rolling baseline:
    the blessed band gates even short histories, which is what an
    explicit ``baseline update`` opts into.
    """
    if policy.direction == COUNTER or not records:
        return []
    latest = records[-1]
    if pinned is not None:
        try:
            center = float(pinned["median"])
            lo = float(pinned["lo"])
            hi = float(pinned["hi"])
            n = int(pinned.get("n", 0))
        except (KeyError, TypeError, ValueError):
            return []
        source = "pinned baseline"
    else:
        if len(records) < policy.min_samples:
            return []  # min-samples guard: a 2-point history never gates
        baseline = records[:-1][-policy.window:]
        center, lo, hi = robust_band([r.value for r in baseline], policy)
        n = len(baseline)
        source = "rolling baseline"
    value = latest.value
    if lo <= value <= hi:
        return []
    if center:
        rel = (value - center) / abs(center)
    else:
        rel = float("inf") if value > 0 else float("-inf")

    worse = value < lo if policy.direction == HIGHER_BETTER else (
        value > hi if policy.direction == LOWER_BETTER else True
    )
    better = policy.direction in (HIGHER_BETTER, LOWER_BETTER) and not worse
    bench, metric = key
    axes = attribute_axes(records)
    axes_text = format_axes(axes)
    band_text = (
        f"{source} median {_fmt(center)}, "
        f"band [{_fmt(lo)}, {_fmt(hi)}], n={n}"
    )
    common = dict(
        bench=bench,
        metric=metric,
        value=value,
        baseline_median=center,
        band=(lo, hi),
        rel_delta=rel,
        changed_axes=axes,
        sha=latest.sha,
    )
    if better:
        if not include_improvements:
            return []
        return [PerfFinding(
            rule="pw-improvement",
            severity=Severity.INFO,
            message=(
                f"{metric} improved to {_fmt(value)} "
                f"({rel:+.1%}) vs {band_text}; {axes_text}"
            ),
            hint="bless the new level with `repro perfwatch baseline update`",
            **common,
        )]
    if policy.direction == EITHER:
        severity = Severity.WARNING
        kind = "moved"
    elif abs(rel) >= policy.rel_threshold:
        severity = Severity.ERROR
        kind = "regressed"
    else:
        severity = Severity.WARNING
        kind = "drifted"
    return [PerfFinding(
        rule="pw-regression",
        severity=severity,
        message=(
            f"{metric} {kind} to {_fmt(value)} "
            f"({rel:+.1%}) vs {band_text}; {axes_text}"
        ),
        hint=(
            "bisect the changed axes, or accept the new level with "
            "`repro perfwatch baseline update`"
        ),
        **common,
    )]


def detect(
    ledger: PerfLedger,
    *,
    policies: Optional[Policies] = None,
    use_pinned: bool = True,
    include_improvements: bool = True,
) -> List[PerfFinding]:
    """Run the detector over every series in the ledger.

    Findings come back most-severe first, then in series order.
    """
    pinned_all = ledger.load_baseline() if use_pinned else {}
    findings: List[PerfFinding] = []
    for key, records in ledger.series().items():
        policy = policy_for(key[1], policies)
        pinned = pinned_all.get(series_id(key))
        findings.extend(detect_series(
            key,
            records,
            policy,
            pinned=pinned,
            include_improvements=include_improvements,
        ))
    return sort_findings(findings)


def pin_baseline(
    ledger: PerfLedger, *, policies: Optional[Policies] = None
) -> Dict[str, Dict[str, float]]:
    """Compute a pinned baseline from the current history (not saved)."""
    baseline: Dict[str, Dict[str, float]] = {}
    for key, records in ledger.series().items():
        policy = policy_for(key[1], policies)
        if policy.direction == COUNTER:
            continue
        window = records[-policy.window:]
        center, lo, hi = robust_band([r.value for r in window], policy)
        baseline[series_id(key)] = {
            "median": center,
            "lo": lo,
            "hi": hi,
            "n": len(window),
            "sha": window[-1].sha,
        }
    return baseline
