"""Host-speed calibration of timed simulation slices.

On the shared 2-CPU host the benchmark was tuned on, the same work takes
up to twice as long in slow phases that last from milliseconds to
minutes, so a window's plain cycles per second moves with the host as
much as with the program.  Each timed slice is therefore bracketed by a
fixed pure-Python calibration unit run in the same process, and the
slice's host time is rescaled by ``REF_S`` over the mean of the two
calibration times: it is expressed in seconds of a host on which the
calibration unit takes ``REF_S``.  Slowdowns that hit the simulator and
the calibration alike cancel; a change to the program does not touch the
calibration, so it still shows in full.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from typing import Callable, List

#: Host seconds one calibration unit is scaled to (about its time on a
#: quiet host of the kind the benchmark was tuned on).
REF_S = 1.5e-3

_NODES = 24
_STEPS = 110
_RING = 6000
_HOPS = 2500


class _Node:
    __slots__ = ("queue", "out", "moved")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.out: "_Node" = self
        self.moved = 0


class _Link:
    __slots__ = ("next", "value", "tag")


def _ring(size: int) -> List[_Link]:
    """``size`` objects linked in a fixed shuffled order; the walk's
    position is kept in a one-element list between units."""
    import random

    links = [_Link() for _ in range(size)]
    order = list(range(size))
    random.Random(7).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        links[a].next = links[b]
        links[a].value = a & 255
        links[a].tag = None
    return [links[0]]


_POSITION = _ring(_RING)


def calibration_unit() -> int:
    """Fixed interpreter-bound work of the simulator's kind, in two equal
    parts: slotted objects handing tuples between a few queues with dict
    counters (cache-resident), and a walk over a ring of objects spread
    over a few hundred kilobytes (cache-missing).  Either part alone
    tracked the simulator's slowdowns less well than both together."""
    nodes = [_Node() for _ in range(_NODES)]
    for i, node in enumerate(nodes):
        node.out = nodes[(i * 7 + 1) % _NODES]
        for k in range(4):
            node.queue.append((i, k, [k, k, k]))
    seen: dict = {}
    for step in range(_STEPS):
        for node in nodes:
            if node.queue:
                src, hops, payload = node.queue.popleft()
                node.moved += 1
                key = (src + step) & 63
                seen[key] = seen.get(key, 0) + len(payload)
                node.out.queue.append((src, hops + 1, payload))
    link, total = _POSITION[0], 0
    for _ in range(_HOPS):
        total += link.value
        seen[link.value] = seen.get(link.value, 0) + 1
        link.tag = (total, link.value)
        link = link.next
    _POSITION[0] = link
    return sum(node.moved for node in nodes) + len(seen) + total


def calibrate() -> float:
    """Host seconds of one calibration unit.  The collector is paused so
    the unit never pays for collecting the simulator's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_unit()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SliceClock:
    """Times slices of work, each rescaled by the calibrations on its two
    sides (one calibration between consecutive slices serves both)."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self.calibrations: List[float] = [calibrate()]

    def time(self, work: Callable, *args) -> float:
        """Run ``work(*args)``; returns its host seconds.  An exception
        propagates and the slice is not recorded."""
        t0 = time.perf_counter()
        work(*args)
        seconds = time.perf_counter() - t0
        after = calibrate()
        before = self.calibrations[-1]
        self.calibrations.append(after)
        self.raw.append(seconds)
        self.scaled.append(seconds * 2.0 * REF_S / (before + after))
        return seconds

