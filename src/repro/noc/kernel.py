"""Simulation kernels: pluggable per-cycle advance loops for :class:`Network`.

A :class:`SimKernel` owns the order in which a network's components are
visited each cycle.  Both backends advance each component through the
same code — :meth:`Router.step <repro.noc.router.Router.step>`, the NI's
``step`` and the ejectors — and differ only in *scheduling*:

:class:`ReferenceKernel`
    The scheduling oracle.  Visits every NI, router and ejection link
    every cycle, in index order.  All results (stats, telemetry,
    invariants) are defined by this kernel.

:class:`ActivityKernel`
    Byte-identical results, less work.  Only *active* components are
    visited: routers holding flits stay in a live set (their VC-allocation
    round-robin pointer must rotate every occupied cycle, so they cannot be
    skipped without changing arbitration); quiescent routers are visited
    only on scheduled wakeups — when an upstream router or NI put flits on
    a link terminating at them.  NIs are live while they hold queued or
    pending packets; ``Network.offer`` re-arms them through the kernel's
    ``on_offer`` hook.  Credit returns to a sleeping router need *no*
    wakeup: :meth:`CreditChannel.deliver` flushes everything due at-or-
    before the wake cycle, and nothing observes a sleeping router's credit
    counters in between.  Forced work that must happen on schedule — the
    ``sample_interval`` NI occupancy sample, telemetry's ``on_cycle``, the
    deadlock watchdog — runs every cycle in both kernels.  When a fault
    injector or invariant auditor is installed the kernel falls back to
    full reference-order visiting (those hooks may mutate or inspect any
    component on any cycle), so campaigns trade speed for exactness.

Selection: ``Network(cfg, kernel="activity")``, or the ``REPRO_KERNEL``
environment variable when no explicit kernel is given; the default is
``"reference"``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set

KERNELS = ("reference", "activity")

ENV_VAR = "REPRO_KERNEL"


def resolve_kernel(name: Optional[str] = None) -> str:
    """Resolve a kernel name: explicit argument > ``REPRO_KERNEL`` > default."""
    if name is None:
        name = os.environ.get(ENV_VAR) or "reference"
    name = str(name).strip().lower()
    if name not in KERNELS:
        raise ValueError(
            f"unknown simulation kernel {name!r}; choose one of {KERNELS}"
        )
    return name


def make_kernel(name: Optional[str] = None) -> "SimKernel":
    """Build the kernel backend for ``name`` (resolved via :func:`resolve_kernel`)."""
    resolved = resolve_kernel(name)
    if resolved == "activity":
        return ActivityKernel()
    return ReferenceKernel()


class SimKernel:
    """Backend interface: owns one network's per-cycle advance loop."""

    name = "abstract"

    def bind(self, net) -> None:
        """Called once from ``Network.__init__`` after wiring completes."""

    def cycle(self, net) -> None:
        """Advance ``net`` by one cycle (must end by incrementing ``net.now``)."""
        raise NotImplementedError

    def on_offer(self, node: int) -> None:
        """A packet was accepted by ``node``'s NI (activity re-arm hook)."""


class ReferenceKernel(SimKernel):
    """Visit everything, every cycle, in index order — the oracle loop."""

    name = "reference"

    def bind(self, net) -> None:
        self._deadlock_cycles = net.config.deadlock_cycles
        self._sample_interval = net.config.sample_interval

    def cycle(self, net) -> None:
        now = net.now
        f = net.faults
        if f is not None:
            # Apply scheduled fault/repair events *before* anything moves
            # this cycle, so routers never allocate into a freshly dead
            # resource within the same cycle.  The activity kernel falls
            # back to full reference cycles whenever faults are
            # installed, so this hook is outside the gated fast path.
            f.on_cycle(now)  # kernel: unreached
        sent = 0
        for ni in net.nis:
            sent += ni.step(now)
        moved = 0
        for router in net.routers:
            moved += router.step(now)
        ejectors = net.ejectors
        for r, link in enumerate(net.ejection_links):
            ejector = ejectors[r]
            for flit in link.arrivals(now):
                ejector.receive_flit(flit, now)
        if moved or sent:
            net._last_progress = now
        if (
            net.stats.in_flight > 0
            and now - net._last_progress > self._deadlock_cycles
        ):
            net._no_progress(now)
        if now % self._sample_interval == 0:
            for ni in net.nis:
                ni.sample()
        a = net.auditor
        if a is not None:
            # End-of-cycle audit: every router/NI has settled, so the
            # flow-control invariants must hold exactly here.  Like the
            # fault hook above, an installed auditor forces the activity
            # kernel into reference fallback.
            a.on_cycle(now)  # kernel: unreached
        t = net.telemetry
        if t is not None:
            t.on_cycle(now)
        net.now = now + 1
        net.stats.cycles = net.now


class ActivityKernel(SimKernel):
    """Activity-gated stepping: skip quiescent routers and NIs entirely.

    Activity sets and wake rules (all times in network cycles):

    * a router is **live** while it buffers any flit (``_occ > 0``) — its
      VA round-robin pointer rotates every occupied cycle, so skipping it
      would change arbitration and break byte-identity;
    * a router that switched flits wakes its four mesh neighbours at
      ``now + link_latency`` (flit ingestion must happen on the exact
      arrival cycle) and joins the ejection-drain set until its ejection
      link is empty;
    * an NI is **live** while :meth:`InjectionInterface.has_work` holds;
      an NI that sent flits wakes its router at ``now + 1`` (injection
      links have unit latency); ``Network.offer`` re-arms the NI via
      :meth:`on_offer`;
    * credit channels never schedule wakeups — delivery catches up on the
      receiver's next wake before anything reads its counters;
    * per-cycle obligations (NI occupancy sampling every
      ``sample_interval``, telemetry, the deadlock watchdog) run exactly
      as in the reference kernel.

    When ``net.faults`` or ``net.auditor`` is installed the kernel runs
    full reference cycles instead (those hooks may touch any component on
    any cycle); it rebuilds its activity sets from network state if the
    hooks are ever removed again.
    """

    name = "activity"

    def bind(self, net) -> None:
        self._deadlock_cycles = net.config.deadlock_cycles
        self._sample_interval = net.config.sample_interval
        self._lat = net.config.link_latency
        # With unit link latency every wakeup (flit arrival, credit
        # return — CreditChannel latency is fixed at 1) lands exactly one
        # cycle after its cause, so a visited router *not* in the due set
        # provably has nothing arriving and skips ingest entirely.
        self._unit = net.config.link_latency == 1
        topo = net.topology
        neighbors: List[tuple] = []
        adj: Dict[int, List[int]] = {r: [] for r in range(topo.num_routers)}
        for src, _direction, dst in topo.links():
            adj[src].append(dst)
        for r in range(topo.num_routers):
            neighbors.append(tuple(sorted(adj[r])))
        self._neighbors = neighbors
        self._live: Set[int] = set()
        self._live_nis: Set[int] = set(range(len(net.nis)))
        self._eject_pending: Set[int] = set()
        self._wake: Dict[int, Set[int]] = {}
        # Routers asleep in a proven stall (no move possible until a
        # scheduled wakeup): router id -> cycle the stall was detected.
        # Their VA pointers are fast-forwarded on wake (see _flush/_visit).
        self._stalled: Dict[int, int] = {}
        self._dirty = False
        self._reference = ReferenceKernel()
        self._reference.bind(net)
        net._on_offer = self.on_offer

    def on_offer(self, node: int) -> None:
        self._live_nis.add(node)

    def sync(self, net) -> None:
        """Catch sleeping routers up with skipped-cycle bookkeeping.

        While a router sleeps in a proven stall the reference pipeline
        would still rotate its VA round-robin pointer once per occupied
        cycle; the rotation is applied arithmetically here.  Called before
        any reference-order processing (fault/auditor fallback) and by the
        equivalence harness before diffing internal state.
        """
        stalled = self._stalled
        if not stalled:
            return
        now = net.now
        routers = net.routers
        for r, t0 in stalled.items():
            missed = now - t0 - 1
            if missed > 0:
                router = routers[r]
                router._va_rr = (router._va_rr + missed) % router.num_inputs
        stalled.clear()

    # -- cold-start / fallback-exit rescan --------------------------------
    def _rescan(self, net) -> None:
        """Rebuild activity sets and the wake agenda from network state."""
        self.sync(net)
        now = net.now
        self._live = {
            r for r, router in enumerate(net.routers) if router.occupancy()
        }
        self._live_nis = {
            i for i, ni in enumerate(net.nis) if ni.has_work()
        }
        self._eject_pending = {
            r for r, link in enumerate(net.ejection_links) if link.in_flight
        }
        wake: Dict[int, Set[int]] = {}
        for r, router in enumerate(net.routers):
            for link in router.input_links:
                if link is None:
                    continue
                # SplitNI wiring bundles several links into a composite.
                parts = getattr(link, "links", None)
                for part in parts if parts is not None else (link,):
                    for t in part.pending_arrivals():
                        when = t if t > now else now
                        w = wake.get(when)
                        if w is None:
                            wake[when] = w = set()
                        w.add(r)
        self._wake = wake
        self._dirty = False

    # -- the gated cycle ---------------------------------------------------
    def cycle(self, net) -> None:
        if net.faults is not None or net.auditor is not None:
            # Fault injectors mutate arbitrary components on schedule and
            # auditors inspect every router each cycle: both need the full
            # reference visiting order.  Correctness beats speed here.
            self.sync(net)
            self._reference.cycle(net)  # kernel: fallback
            self._dirty = True
            return
        if self._dirty:
            self._rescan(net)
        now = net.now
        wake = self._wake
        # Almost every wakeup targets the next cycle (unit link/credit
        # latency); keep that set in a local and register it once at the
        # end instead of paying a dict lookup per scheduling site.
        nxt = now + 1
        due_next = wake.get(nxt)
        if due_next is None:
            due_next = set()

        sent = 0
        live_nis = self._live_nis
        if live_nis:
            nis = net.nis
            for i in sorted(live_nis):
                ni = nis[i]
                s = ni.step(now)
                if s:
                    sent += s
                    due_next.add(i)
                if not ni.has_work():
                    live_nis.discard(i)

        moved = 0
        live = self._live
        due = wake.pop(now, None)
        if due:
            visit = sorted(due | live)
        elif live:
            due = ()
            visit = sorted(live)
        else:
            due = ()
            visit = ()
        if visit:
            routers = net.routers
            lat = self._lat
            unit = self._unit
            eject = self._eject_pending
            neighbors = self._neighbors
            stalled = self._stalled
            for r in visit:
                router = routers[r]
                if stalled:
                    t0 = stalled.pop(r, None)
                    if t0 is not None:
                        # Reference would have rotated the VA pointer once
                        # per occupied (slept) cycle; catch up in O(1).
                        missed = now - t0 - 1
                        if missed > 0:
                            router._va_rr = (
                                router._va_rr + missed
                            ) % router.num_inputs
                # A router outside the due set provably has no flit or
                # credit landing this cycle (unit latency: every cause one
                # cycle earlier scheduled a wakeup), so skip ingest.
                m = router.step(now, not unit or r in due)
                if router._occ:
                    if m == 0 and router._stall_ok:
                        # Proven stall: nothing can move until a wakeup.
                        # Arrival wakeups are scheduled by senders; credits
                        # already in flight get their delivery cycles
                        # scheduled here, and credits sent later wake the
                        # sleeper from the mover's branch below.
                        stalled[r] = now
                        live.discard(r)
                        for q, _c in router._wiring[0]:
                            for entry in q:
                                tq = entry[0]
                                if tq == nxt:
                                    due_next.add(r)
                                    continue
                                w = wake.get(tq)
                                if w is None:
                                    wake[tq] = w = set()
                                w.add(r)
                    else:
                        live.add(r)
                else:
                    live.discard(r)
                if m:
                    moved += m
                    eject.add(r)
                    if unit:
                        due_next.update(neighbors[r])
                    else:
                        t = now + lat
                        w = wake.get(t)
                        if w is None:
                            wake[t] = w = set()
                        w.update(neighbors[r])
                        if stalled:
                            # Credit returns ride upstream with unit
                            # latency; sleeping upstream routers must see
                            # them land.
                            for nb in neighbors[r]:
                                if nb in stalled:
                                    due_next.add(nb)
        if due_next:
            wake[nxt] = due_next

        eject = self._eject_pending
        if eject:
            links = net.ejection_links
            ejectors = net.ejectors
            for r in sorted(eject):
                link = links[r]
                for flit in link.arrivals(now):
                    ejectors[r].receive_flit(flit, now)
                if not link.in_flight:
                    eject.discard(r)

        if moved or sent:
            net._last_progress = now
        if (
            net.stats.in_flight > 0
            and now - net._last_progress > self._deadlock_cycles
        ):
            net._no_progress(now)
        if now % self._sample_interval == 0:
            for ni in net.nis:
                ni.sample()
        t = net.telemetry
        if t is not None:
            t.on_cycle(now)
        net.now = now + 1
        net.stats.cycles = net.now
