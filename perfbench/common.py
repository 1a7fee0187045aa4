"""Helpers shared by every perfbench workload.

Percentiles with their sample count, environment isolation, provenance,
set-up timing in fresh interpreters, peak memory, and the recorded
simulated-stat digests.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: The seed the recorded digests were taken with (``RunSpec``'s default).
DEFAULT_SEED = 3

#: Program knobs that would change what is measured; the benchmark
#: measures the program's defaults, so all of them are cleared.
ISOLATED_ENV = (
    "REPRO_KERNEL",
    "REPRO_WORKERS",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_STATICCHECK",
    "REPRO_EXECUTOR_FAULT_DIR",
)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class PercentileRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(values: Sequence[float], pct: float) -> Dict[str, float]:
    """Nearest-rank ``pct`` percentile of ``values`` with its sample count.

    Refuses (raises :class:`PercentileRefused`) unless at least
    :data:`MIN_BEYOND` samples lie strictly beyond the chosen rank, so a
    tail figure never rests on a handful of points.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise PercentileRefused(
            f"p{pct:g} over {n} samples leaves {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return {"value": ordered[rank - 1], "n": n, "beyond": beyond}


def min_samples(pct: float) -> int:
    """Smallest sample count for which :func:`percentile` accepts ``pct``."""
    n = MIN_BEYOND
    while n - max(1, math.ceil(pct / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n


def op_time_notes(times: Sequence[float], what: str) -> List[str]:
    """Median, p95, p99 (when enough samples lie beyond it) and mean host
    time of one operation, each with its sample count."""
    n = len(times)
    notes = []
    for pct in (50, 95, 99):
        if n >= min_samples(pct):
            p = percentile(times, pct)
            notes.append(
                f"op_ms_p{pct} = {p['value'] * 1e3:.6g} ms ({what}, n={n}, "
                f"{p['beyond']} beyond)"
            )
    notes.append(f"op_ms_mean = {sum(times) / n * 1e3:.6g} ms ({what}, n={n})")
    return notes


def digest_of(payload) -> str:
    """Stable SHA-256 of a JSON-serialisable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def recorded_digest(workload: str) -> Dict[str, object]:
    """The digest recorded beside the benchmark for ``workload``."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)[workload]


def digest_matches(workload: str, digest: str) -> bool:
    """True when ``digest`` equals the one recorded for ``workload``."""
    return digest == recorded_digest(workload)["digest"]


# -- environment --------------------------------------------------------------

def isolate_env(scratch: str) -> None:
    """Clear the program's knobs and keep every store and temp file in
    ``scratch``, so the repository's ``results/`` is never touched."""
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE"] = os.path.join(scratch, "default-store")
    os.environ["TMPDIR"] = scratch
    import tempfile

    tempfile.tempdir = scratch
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ)
    # Never let git climb out of the checkout to an enclosing repository.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every source file under ``src/`` (path + content)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed: int) -> Dict[str, object]:
    """Which code, host, interpreter, seed and kernel produced the output."""
    from repro.noc.kernel import resolve_kernel

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha.strip() if sha else None,
        "dirty": (bool(status.strip()) if status is not None else None),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "kernel": resolve_kernel(None),
    }


# -- set-up and memory ----------------------------------------------------------

def fresh_import_s(statement: str) -> float:
    """Host seconds for a fresh interpreter to run ``statement`` and exit.

    Waits with a blocking ``wait()`` (a wait with a timeout polls, which
    rounds the time to the polling interval); a timer kills the
    interpreter after 120 s instead.
    """
    args = [sys.executable, "-c", statement]
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT)
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, args)
    return seconds


def reap_children(timeout: float = 60.0) -> None:
    """Wait for every child process (pool workers included) to end."""
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout)


def peak_rss_mb() -> float:
    """Larger of this process's and its (ended) children's peak RSS."""
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Outcome:
    """Operations attempted and failed, plus named output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[tuple] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        self.op(ok)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)
