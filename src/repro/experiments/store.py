"""Content-addressed, per-run-file simulation result store.

Every cached run lives in its own file, ``<root>/<key[:2]>/<key>.json``,
keyed by :meth:`~repro.experiments.runner.RunSpec.key`.  Per-run files
mean parallel sweep workers (and independent host processes) never
contend on one JSON blob — the worst concurrent case is two processes
atomically replacing the *same* key with identical content.

The ``REPRO_CACHE`` environment variable names the default store
directory (``results/cache`` when unset).  Cached runs are read back
through :meth:`ResultStore.lookup`, the one place a stored record is
decoded into a ``SimulationResult``.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from typing import Dict, Iterator, Optional

_DEFAULT_LOCATION = os.path.join(
    os.path.dirname(__file__), "..", "..", "..", "results", "cache"
)


def coerce_record(record: dict):
    """Build a ``SimulationResult`` from a stored record, or ``None``.

    Records written before a result-schema change (fields added, renamed
    or removed) no longer construct; callers treat that as a cache miss
    and re-simulate instead of crashing on ``TypeError``.
    """
    from repro.gpu.system import SimulationResult

    try:
        return SimulationResult(**record)
    except TypeError:
        return None


class ResultStore:
    """Sharded on-disk store of run records with a write-through memory layer.

    ``location`` is the store's root directory.  When omitted,
    ``REPRO_CACHE`` or the repo-default ``results/cache`` decides.
    """

    def __init__(self, location: Optional[str] = None):
        location = location or os.environ.get("REPRO_CACHE", _DEFAULT_LOCATION)
        self.root = os.path.abspath(location)
        self._lock = threading.Lock()
        self._memory: Dict[str, dict] = {}

    # -- paths -------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- read --------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The record stored under ``key``, or ``None``."""
        with self._lock:
            hit = self._memory.get(key)
        if hit is not None:
            return hit
        try:
            with open(self._path(key)) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        with self._lock:
            self._memory[key] = record
        return record

    def lookup(self, key: str):
        """The cached ``SimulationResult`` for ``key``, or ``None``.

        A record that no longer builds a result (written before a
        result-schema change) is a miss: it warns, and the caller
        re-simulates and overwrites it.
        """
        record = self.get(key)
        if record is None:
            return None
        result = coerce_record(record)
        if result is None:
            warnings.warn(
                f"ignoring legacy-format cache entry for {key[:12]}; "
                "re-simulating (run `repro cache --clear` to purge)",
                RuntimeWarning,
                stacklevel=3,
            )
        return result

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return os.path.exists(self._path(key))

    def keys(self) -> Iterator[str]:
        """Every key present on disk or in memory (no load)."""
        seen = set()
        with self._lock:
            seen.update(self._memory)
        if os.path.isdir(self.root):
            for shard in sorted(os.listdir(self.root)):
                shard_dir = os.path.join(self.root, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    if name.endswith(".json"):
                        seen.add(name[: -len(".json")])
        return iter(sorted(seen))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- write -------------------------------------------------------------
    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (atomic per-key file replace).

        Disk failures are swallowed: losing one cache write is harmless
        (the run result is still returned) and must never kill a sweep.
        """
        with self._lock:
            self._memory[key] = record
        path = self._path(key)
        # pid+thread-unique temp name: concurrent writers (pool workers,
        # background sweeps) must not race on the same temp file.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except OSError:
            try:
                if os.path.exists(tmp):
                    os.remove(tmp)
            except OSError:
                pass

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer; with ``disk=True`` also delete the files."""
        with self._lock:
            self._memory.clear()
        if disk and os.path.isdir(self.root):
            import shutil

            shutil.rmtree(self.root, ignore_errors=True)

    # -- harness hooks -----------------------------------------------------
    def preload(self, records: Dict[str, dict]) -> None:
        """Seed the memory layer without touching disk (test/bench harnesses)."""
        with self._lock:
            self._memory.update(records)

    def memory_snapshot(self) -> Dict[str, dict]:
        """Copy of the memory layer (test/bench harnesses)."""
        with self._lock:
            return dict(self._memory)

    # -- introspection -----------------------------------------------------
    def scan_legacy(self) -> list:
        """Keys whose records no longer construct a ``SimulationResult``.

        These are records from an older result schema; ``repro cache``
        surfaces them as warnings, and :meth:`lookup` treats them as
        misses.
        """
        bad = []
        for key in self.keys():
            record = self.get(key)
            if record is None or coerce_record(record) is None:
                bad.append(key)
        return bad

    def info(self) -> Dict[str, object]:
        return {"entries": len(self), "path": self.root}

    def __repr__(self) -> str:  # pragma: no cover
        return f"ResultStore({self.root!r})"


# -- process-wide default ---------------------------------------------------

_DEFAULT: Optional[ResultStore] = None
_DEFAULT_LOCK = threading.Lock()


def default_store() -> ResultStore:
    """The lazily-created process-wide store (``REPRO_CACHE`` directory)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = ResultStore()
        return _DEFAULT


def set_default_store(store: Optional[ResultStore]) -> Optional[ResultStore]:
    """Replace the process-wide default store; returns the previous one.

    Pass ``None`` to reset, so the next :func:`default_store` call
    re-derives the location from the environment.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous = _DEFAULT
        _DEFAULT = store
        return previous
