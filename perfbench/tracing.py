"""In-memory span recorder for the traced (per-layer) run.

Spans are recorded from the benchmark's own files by wrapping calls into
each layer's public functions; the program itself is not modified.  Each
span keeps its name, start, end, parent and the wrapped call's integer
return value (flits moved or sent), all in flat arrays until the run
ends.  A layer's self time is its span time minus its children's.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List


class LayerStats:
    """Aggregate of every span sharing one name."""

    __slots__ = ("calls", "total_s", "self_s", "nonzero")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        # Calls whose integer return value (flits moved or sent) was not 0.
        self.nonzero = 0


class Tracer:
    """Records nested spans; wrap callables with :meth:`wrap`."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("q")
        # Index of the open span; -1 is the root sentinel.
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable recording one span named ``name`` per call of ``fn``."""
        nid = self._name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, values = self.starts, self.ends, self.values
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            values.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if type(result) is int:
                values[idx] = result
            return result

        return traced

    def aggregate(self) -> Dict[str, LayerStats]:
        """Per-name calls, total and self seconds, and non-zero returns."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child_s = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_s[p] += ends[i] - starts[i]
        out = {name: LayerStats() for name in self._names}
        names = self._names
        for i in range(n):
            st = out[names[self.name_ids[i]]]
            dur = ends[i] - starts[i]
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - child_s[i]
            if self.values[i]:
                st.nonzero += 1
        return out


class Patch:
    """Temporarily replace one attribute of a class or module."""

    def __init__(self, owner, name: str, make) -> None:
        self.owner, self.name, self.make = owner, name, make

    def __enter__(self):
        self.saved = getattr(self.owner, self.name)
        setattr(self.owner, self.name, self.make(self.saved))
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.name, self.saved)
