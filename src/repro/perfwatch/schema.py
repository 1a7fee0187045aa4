"""Bench-artifact schema: the stamped envelope and metric flattening.

Every ``results/bench_tables/BENCH_*.json`` artifact is (since schema
version 1) an *envelope*::

    {
      "schema_version": 1,
      "bench": "simulator_speed",
      "generated_utc": "2026-08-07T12:00:00Z",
      "git_sha": "2e8bc1c3a9d4",
      "seed": 3,                 # or null when the bench mixes seeds
      "host": {"platform": ..., "python": ..., "machine": ..., "cpus": 4},
      "config": {...},           # non-metric context (driver-analysis axes)
      "data": {...}              # the actual measurements
    }

Pre-envelope artifacts (bare measurement dicts) remain readable:
:func:`split_payload` separates their metric leaves from config-ish
context, so perfwatch's one-shot backfill ingests the committed history
unchanged.  :func:`flatten_metrics` turns any measurement tree into
dotted metric paths — lists of dicts are labeled by their identifying
keys (``rows[scheme=ada-ari,dead_links=1].ipc``) so a reordered table
never silently remaps a series.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Dict, Mapping, Optional, Tuple

from repro.experiments.fingerprint import config_fingerprint

#: Version of the BENCH_*.json envelope (and of flattened metric paths).
SCHEMA_VERSION = 1

#: Env var overriding git-SHA discovery (CI can inject the exact commit).
GIT_SHA_ENV = "REPRO_GIT_SHA"

#: Keys that identify a row inside a list-of-dicts measurement table.
_ID_KEYS = ("scheme", "benchmark", "name", "dead_links", "seed", "workers")


def host_info() -> Dict[str, object]:
    """The host axes that make timing numbers (in)comparable."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def host_fingerprint(info: Optional[Mapping] = None) -> str:
    return config_fingerprint(info if info is not None else host_info())


def git_sha(default: str = "unknown") -> str:
    """The current commit (env override > ``git rev-parse`` > default)."""
    env = os.environ.get(GIT_SHA_ENV)
    if env:
        return env[:12]
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    sha = out.stdout.strip()
    return sha[:12] if out.returncode == 0 and sha else default


def utc_now() -> str:
    """UTC timestamp in compact ISO form (``...Z``)."""
    now = datetime.now(timezone.utc)  # det: allow(det-wallclock)
    return now.strftime("%Y-%m-%dT%H:%M:%SZ")


def bench_envelope(
    bench: str,
    data: Mapping,
    *,
    seed: Optional[int] = None,
    config: Optional[Mapping] = None,
    sha: Optional[str] = None,
    host: Optional[Mapping] = None,
    ts: Optional[str] = None,
) -> Dict[str, object]:
    """Wrap one bench's measurements in the stamped envelope."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "generated_utc": ts if ts is not None else utc_now(),
        "git_sha": sha if sha is not None else git_sha(),
        "seed": seed,
        "host": dict(host) if host is not None else host_info(),
        "config": dict(config) if config else {},
        "data": dict(data),
    }


def is_envelope(payload) -> bool:
    return (
        isinstance(payload, Mapping)
        and isinstance(payload.get("schema_version"), int)
        and isinstance(payload.get("data"), Mapping)
    )


def split_payload(payload: Mapping) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Separate a bare measurement dict into ``(config, data)``.

    A nested ``"config"`` dict and any string/bool scalars are context;
    everything else is measurement data.  Envelopes should be unwrapped
    before calling this (their ``data`` may still carry a config subdict,
    e.g. a campaign report, which this pulls out too).
    """
    config: Dict[str, object] = {}
    data: Dict[str, object] = {}
    for key, value in payload.items():
        if key == "config" and isinstance(value, Mapping):
            config.update(value)
        elif isinstance(value, str) or isinstance(value, bool):
            config[key] = value
        else:
            data[key] = value
    return config, data


def _row_label(name: str, index: int, row: Mapping) -> str:
    ids = [f"{k}={row[k]}" for k in _ID_KEYS if k in row]
    if ids:
        return f"{name}[{','.join(ids)}]"
    return f"{name}[{index}]"


def flatten_metrics(data: Mapping, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a measurement tree as dotted metric paths.

    Dicts nest with ``.``; lists of dicts label rows by their identifying
    keys (falling back to the index), which are then not metrics of the
    row themselves; numeric lists index their items.
    Strings and booleans are context, not metrics, and are skipped.
    """
    out: Dict[str, float] = {}
    for key, value in data.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            out.update(flatten_metrics(value, name))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, Mapping):
                    fields = {
                        k: v for k, v in item.items() if k not in _ID_KEYS
                    }
                    out.update(
                        flatten_metrics(fields, _row_label(name, i, item))
                    )
                elif _is_number(item):
                    out[f"{name}[{i}]"] = float(item)
        elif _is_number(value):
            out[name] = float(value)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
