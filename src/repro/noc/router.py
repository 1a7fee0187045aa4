"""Virtual-channel wormhole router.

A single-cycle router model (route computation, VC allocation, switch
allocation and switch traversal resolve within one cycle; link traversal adds
one more), with:

* credit-based flow control toward downstream routers;
* whole-packet-forwarding (WPF) non-atomic VC allocation — a downstream VC
  may be (re)claimed whenever the *entire* packet fits in its free space and
  no other packet is currently being written into it;
* XY or minimal adaptive routing (escape VC 0 restricted to XY hops);
* per-input-port crossbar speedup — the ARI consumption-side mechanism
  (Sec. 4.2): MC-router injection ports receive ``S`` switch ports so up to
  ``S`` injected flits can traverse the switch per cycle;
* ARI multi-level prioritization (Sec. 5): packets carry a priority field,
  decremented each time a head flit enters a new router, and the switch
  allocator prefers higher-priority bids.  A starvation threshold demotes
  injection-port bids when any through-traffic input has waited too long.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.noc.allocator import SwitchAllocator
from repro.noc.buffer import InputPort, VCState, VirtualChannel
from repro.noc.credit import CreditChannel, CreditCounter
from repro.noc.link import Link
from repro.noc.routing import (
    LOCAL,
    MinimalAdaptiveRouting,
    RoutingAlgorithm,
    XYRouting,
)

# Sentinel "packet id" used by repro.faults to pin a dead output VC's writer
# lock: with ``writer[vc] = FAULT_PID`` and ``writer_left[vc] = 1`` the VC
# fails the ordinary WPF claim check in ``Router._try_allocate`` (no extra
# hot-path check) while still satisfying the writer-lock invariant
# (locked => left>0).
FAULT_PID = -1


class OutputPort:
    """Router output: link, downstream credit view and per-VC writer locks."""

    __slots__ = (
        "port_id", "link", "credits", "credit_in", "writer", "writer_left",
        "ver",
    )

    def __init__(
        self,
        port_id: int,
        link: Optional[Link],
        num_vcs: int,
        credits: Optional[CreditCounter],
        credit_in: Optional[CreditChannel],
    ) -> None:
        self.port_id = port_id
        self.link = link
        self.credits = credits          # None => infinite (ejection sink)
        self.credit_in = credit_in      # credits returning from downstream
        # WPF writer locks: pid of the packet currently being streamed into
        # each downstream VC, and how many of its flits are still to send.
        self.writer: List[Optional[int]] = [None] * num_vcs
        self.writer_left: List[int] = [0] * num_vcs
        # Bumped by every change that can let a failed VC allocation into
        # this output succeed: a credit delivered to an unlocked VC, a
        # writer lock released (both in step) or a fault pin lifted.
        # Claims and credit consumption only restrict, so they leave it.
        self.ver = 0

    def claim(self, vc: int, pid: int, size: int) -> None:
        if self.writer[vc] is not None:
            raise RuntimeError(f"output vc {vc} already claimed")
        self.writer[vc] = pid
        self.writer_left[vc] = size

    def free_credit_total(self) -> int:
        """Congestion score used by adaptive routing (bigger = freer)."""
        if self.credits is None:
            return 1 << 20
        return self.credits.total


class Router:
    """One mesh router; see module docstring for the microarchitecture."""

    def __init__(
        self,
        router_id: int,
        coords: Tuple[int, int],
        routing: RoutingAlgorithm,
        num_vcs: int = 4,
        vc_capacity: int = 9,
        num_injection_ports: int = 1,
        injection_speedup: int = 1,
        priority_enabled: bool = False,
        starvation_threshold: int = 1000,
    ) -> None:
        if num_injection_ports < 1:
            raise ValueError("need at least one injection port")
        if injection_speedup < 1:
            raise ValueError("injection speedup must be >= 1")
        self.router_id = router_id
        self.coords = coords
        self.routing = routing
        self.num_vcs = num_vcs
        self.vc_capacity = vc_capacity
        self.priority_enabled = priority_enabled
        self.starvation_threshold = starvation_threshold
        self.num_injection_ports = num_injection_ports

        # Input ports: 0..3 mesh directions, 4.. injection ports.
        self.input_ports: List[InputPort] = [
            InputPort(p, num_vcs, vc_capacity) for p in range(4)
        ]
        for k in range(num_injection_ports):
            self.input_ports.append(
                InputPort(4 + k, num_vcs, vc_capacity, is_injection=True)
            )
        self.num_inputs = len(self.input_ports)

        # Output ports: 0..3 mesh directions + LOCAL ejection (index 4).
        self.output_ports: List[Optional[OutputPort]] = [None] * 5

        # Input-side links & credit-return channels (to upstream).
        self.input_links: List[Optional[Link]] = [None] * self.num_inputs
        self.credit_out: List[Optional[CreditChannel]] = [None] * self.num_inputs
        # Injection credits go straight back to the NI:
        self.ni = None  # type: Optional[object]

        speedups = {
            4 + k: injection_speedup for k in range(num_injection_ports)
        }
        self.allocator = SwitchAllocator(
            num_in=self.num_inputs, num_out=5, num_vcs=num_vcs, speedups=speedups
        )

        # VA fairness rotation, and the input ports in visiting order for
        # each pointer value.
        self._va_rr = 0
        ports = self.input_ports
        self._port_orders = tuple(
            tuple(ports[start:] + ports[:start])
            for start in range(self.num_inputs)
        )

        # Prefer adaptive VCs, escape VC 0 last.
        self._vc_order = tuple(range(1, num_vcs)) + (0,)
        # Wiring tables for step(), built lazily once links exist, and the
        # stall marker below: derived state and activity-kernel
        # bookkeeping, not simulated state.
        self._wiring = None
        # Set by step() on a zero-move cycle: True when every blocked
        # resource unblocks only through events the activity kernel already
        # schedules wakeups for (flit arrivals, credit returns), so the
        # kernel may skip this router until the next wakeup.  A closed
        # ejection gate reopens on external ejector drain — no wakeup
        # exists for that, so it forces False.
        self._stall_ok = True

        # Optional backpressure gate on the ejection (LOCAL) output; wired
        # by the network to the attached ejection interface's buffer state.
        self.ejection_gate = None  # type: Optional[callable]

        # Optional per-hop observer: called once per head flit accepted
        # into this router (i.e. per route computation), after the ARI
        # priority decay has been applied.  Same opt-in contract as the
        # telemetry hook: None (the default) costs one comparison.
        self.on_hop = None  # type: Optional[callable]

        # Maintained flit occupancy (sum over input ports).
        self._occ = 0

        # Stats.
        self.flits_switched = 0
        self.flits_injected = 0  # flits that crossed the switch from injection ports
        self.starvation_demotions = 0
        self.priority_decays = 0   # head flits whose ARI priority dropped here
        # Flits beyond the 1/cycle baseline that the injection crossbar
        # speedup moved in a single cycle (Sec. 4.2 usage telemetry).
        self.speedup_extra_flits = 0

    # -- wiring -----------------------------------------------------------
    def set_output(
        self,
        port: int,
        link: Link,
        credit_in: CreditChannel,
        downstream_vc_capacity: int,
    ) -> None:
        self.output_ports[port] = OutputPort(
            port,
            link,
            self.num_vcs,
            CreditCounter(self.num_vcs, downstream_vc_capacity),
            credit_in,
        )

    def set_ejection(self, link: Link) -> None:
        self.output_ports[LOCAL] = OutputPort(LOCAL, link, self.num_vcs, None, None)

    def set_input(self, port: int, link: Link, credit_out: CreditChannel) -> None:
        self.input_links[port] = link
        self.credit_out[port] = credit_out

    def attach_ni(self, ni) -> None:
        self.ni = ni

    def injection_port_ids(self) -> List[int]:
        return [4 + k for k in range(self.num_injection_ports)]

    # -- helpers ------------------------------------------------------------
    def occupancy(self) -> int:
        return self._occ

    def _commit_allocation(
        self, vc: VirtualChannel, out: OutputPort, out_port: int, dvc: int, pkt
    ) -> None:
        vc.set_route(out_port)
        vc.set_out_vc(dvc)
        vc.va_blocked = None
        out.claim(dvc, pkt.pid, pkt.size)

    # -- fault support ----------------------------------------------------------
    def purge_front_packet(self, port_id: int, vc_index: int, now: int):
        """Remove the whole packet at the front of an input VC (fault drop).

        Used by :mod:`repro.faults` for packets that can never make
        progress (e.g. routed toward a destination cut off mid-flight).
        Only legal before the packet starts streaming downstream: the VC
        must be ROUTING with the head at the front and every flit of the
        packet resident.  Buffer credits are returned upstream flit by
        flit exactly as if the packet had traversed the switch, so credit
        conservation holds.  Returns the purged Packet, or None when the
        state does not allow a clean purge (caller retries next cycle).
        """
        port = self.input_ports[port_id]
        vc = port.vcs[vc_index]
        if vc.state != VCState.ROUTING or not vc.fifo:
            return None
        head = vc.fifo[0]
        if not head.is_head:
            return None
        pkt = head.packet
        resident = 0
        for f in vc.fifo:
            if f.packet is not pkt:
                break
            resident += 1
        if resident < pkt.size:
            return None  # tail still streaming in from upstream
        for _ in range(pkt.size):
            vc.fifo.popleft()
        port.occ -= pkt.size
        self._occ -= pkt.size
        # Per-flit credit return mirrors switch traversal in step().
        if port.is_injection:
            if self.ni is not None:
                for _ in range(pkt.size):
                    self.ni.on_credit(port_id, vc_index)
        else:
            ch = self.credit_out[port_id]
            if ch is not None:
                for _ in range(pkt.size):
                    ch.send(vc_index, now)
        # Reset route state by hand: the packet never won switch
        # allocation, and a body front without a route would trip
        # _on_new_front's consistency check.
        vc.out_port = None
        vc.out_vc = None
        vc.candidates = None
        vc.escape = None
        vc.va_blocked = None
        vc.state = VCState.IDLE
        vc.wait_since = None
        if vc.fifo:
            vc._on_new_front(now)
        return pkt

    # -- the pipeline -------------------------------------------------------------
    def _build_wiring(self):
        """Precompute the wiring tables :meth:`step` iterates.

        ``credited``: (in-flight deque, credit counter, output port)
        triples for output ports with a credit-return channel.
        ``inputs``: (input port, link, pipe) triples for wired links; the
        pipe deque is captured for plain links so empty links cost one
        bounds check instead of an ``arrivals()`` call (composite SplitNI
        bundles keep ``pipe=None`` and go through ``arrivals``).
        """
        credited = tuple(
            (out.credit_in._in_flight, out.credits, out)
            for out in self.output_ports
            if out is not None
            and out.credit_in is not None
            and out.credits is not None
        )
        inputs = tuple(
            (self.input_ports[idx], link, getattr(link, "_pipe", None))
            for idx, link in enumerate(self.input_links)
            if link is not None
        )
        self._wiring = (credited, inputs)
        return self._wiring

    def step(self, now: int, ingest: bool = True) -> int:
        """Advance the router one cycle; returns flits switched.

        Stages, in order: credit delivery and flit ingestion, route
        computation + VC allocation + bid collection in one rotated sweep,
        starvation demotion, separable switch allocation, and switch
        traversal.  ``ingest=False`` skips the first stage; the activity
        kernel passes it only when no flit or credit can land this cycle.
        """
        wiring = self._wiring
        if wiring is None:
            wiring = self._build_wiring()
        credited, inputs = wiring
        routing_state = VCState.ROUTING
        active_state = VCState.ACTIVE

        if ingest:
            # -- credit delivery -------------------------------------------
            for q, credits, out in credited:
                if q and q[0][0] <= now:
                    counts = credits.counts
                    cap = credits.capacity
                    writer = out.writer
                    while q and q[0][0] <= now:
                        v = q.popleft()[1]
                        if counts[v] >= cap:
                            raise RuntimeError(f"credit overflow on vc {v}")
                        counts[v] += 1
                        credits.total += 1
                        # A credit into a VC still being written admits
                        # nothing new; its writer release bumps instead.
                        if writer[v] is None:
                            out.ver += 1

            # -- ingest ----------------------------------------------------
            occ_add = 0
            on_hop = self.on_hop
            for port, link, pipe in inputs:
                if pipe is not None:
                    if not pipe or pipe[0][0] > now:
                        continue
                    arr = []
                    while pipe and pipe[0][0] <= now:
                        arr.append(pipe.popleft()[1])
                else:
                    arr = link.arrivals(now)
                    if not arr:
                        continue
                vcs = port.vcs
                is_inj = port.is_injection
                cnt = 0
                for flit in arr:
                    vc = flit.out_vc
                    if vc is None:
                        raise RuntimeError(
                            "arriving flit has no VC assignment"
                        )
                    if flit.is_head:
                        pkt = flit.packet
                        # ARI priority decay: one level per route
                        # computation (per router entered after injection).
                        if not is_inj and pkt.priority > 0:
                            pkt.priority -= 1
                            self.priority_decays += 1
                        if pkt.injected_at is None:
                            pkt.injected_at = now
                        if on_hop is not None:
                            on_hop(self.router_id, pkt, now)
                    # Reset transient routing state; it belongs to this
                    # router now.
                    flit.out_port = None
                    flit.out_vc = None
                    vcq = vcs[vc]
                    fifo = vcq.fifo
                    if vcq.capacity - len(fifo) <= 0:
                        raise RuntimeError(f"VC {vc} overflow")
                    flit.vc = vc
                    # Space was reserved upstream by the credit the sender
                    # consumed; the overflow raise above is an assertion,
                    # not flow control.
                    fifo.append(flit)  # proto: allow(proto-push-guard)
                    if len(fifo) == 1:
                        vcq.wait_since = now
                        if flit.is_head:
                            if (
                                vcq.state is not active_state
                                or vcq.out_port is None
                            ):
                                vcq.state = routing_state
                        else:
                            if vcq.out_port is None:
                                raise RuntimeError(
                                    "body flit at VC front without a route"
                                )
                            vcq.state = active_state
                    cnt += 1
                port.occ += cnt
                occ_add += cnt
            if occ_add:
                self._occ += occ_add
        if self._occ == 0:
            return 0

        # -- route + VC allocation + bid collection, one rotated sweep -----
        # Inputs are visited from the VA round-robin pointer.  A VC that
        # wins VC allocation is ACTIVE with its head at the front, so it
        # bids in the same cycle (single-cycle router).  A ROUTING VC whose
        # blocked-VA memo still matches its output's version would fail
        # allocation again and is skipped.
        ports = self.input_ports
        n_in = self.num_inputs
        start = self._va_rr
        nxt = start + 1
        self._va_rr = nxt if nxt < n_in else 0
        dest_coords = self._dest_coords
        routing = self.routing
        # Derived from the current routing on every cycle: fault injection
        # may swap in a detour wrapper after the router has stepped.
        rt = type(routing)
        if rt is XYRouting:
            vc_rule = 0
        elif rt is MinimalAdaptiveRouting:
            vc_rule = 1
        else:
            vc_rule = 2
        coords = self.coords
        prio_on = self.priority_enabled
        gate = self.ejection_gate
        ejection_open = True if gate is None else None  # None = not asked yet
        bid_ports: List[int] = []      # ports with bids, first-bid order
        port_bids: List[Optional[list]] = [None] * n_in
        injection_bids = False
        stall_ok = True
        for port in self._port_orders[start]:
            if port.occ == 0:
                continue
            blist = None
            for vcobj in port.vcs:
                st = vcobj.state
                if st is routing_state:
                    blocked = vcobj.va_blocked
                    if (
                        blocked is not None
                        and blocked.ver == vcobj.va_ver
                        and vc_rule != 2
                    ):
                        continue
                    pkt = vcobj.fifo[0].packet
                    if vcobj.candidates is None:
                        dc = dest_coords(pkt.dest)
                        vcobj.candidates = routing.candidates(coords, dc)
                        vcobj.escape = routing.escape_port(coords, dc)
                    if not self._try_allocate(vcobj, pkt, vc_rule):
                        continue
                elif st is not active_state or not vcobj.fifo:
                    continue
                out_port = vcobj.out_port
                if out_port is None:
                    continue
                if out_port == LOCAL:
                    if ejection_open is None:
                        ejection_open = gate()
                    if not ejection_open:
                        stall_ok = False
                        continue
                prio = vcobj.fifo[0].packet.priority if prio_on else 0
                if blist is None:
                    blist = []
                    port_bids[port.port_id] = blist
                    bid_ports.append(port.port_id)
                    if port.is_injection:
                        injection_bids = True
                blist.append((vcobj.index, out_port, prio))
        if not bid_ports:
            self._stall_ok = stall_ok
            return 0

        # -- starvation demotion (Sec. 5) ------------------------------------
        # When any through-traffic input has waited past the threshold,
        # injection-port bids lose their priority.  Only observable when an
        # injection port actually bids, so pure through-routers skip the
        # waiting-time scan.
        if injection_bids and prio_on and self.starvation_threshold > 0:
            thr = self.starvation_threshold
            demote = False
            for port in ports:
                if port.is_injection:
                    continue
                for vcobj in port.vcs:
                    ws = vcobj.wait_since
                    if ws is not None and vcobj.fifo and now - ws > thr:
                        demote = True
                        break
                if demote:
                    break
            if demote:
                for p in bid_ports:
                    if ports[p].is_injection:
                        blist = port_bids[p]
                        self.starvation_demotions += len(blist)
                        port_bids[p] = [(v, o, 0) for v, o, _pr in blist]

        grants = self.allocator.grants(bid_ports, port_bids)

        # -- switch traversal ----------------------------------------------
        moved = 0
        injected = 0
        idle_state = VCState.IDLE
        ni = self.ni
        credit_out = self.credit_out
        outs = self.output_ports
        for in_p, v in grants:
            port = ports[in_p]
            vcobj = port.vcs[v]
            out_port = vcobj.out_port
            out_vc = vcobj.out_vc
            out = outs[out_port]
            fifo = vcobj.fifo
            flit = fifo[0] if fifo else None
            if flit is None or out is None or out_vc is None:
                raise RuntimeError("switch grant for an empty VC")
            flit.out_port = out_port
            flit.out_vc = out_vc
            fifo.popleft()
            if flit.is_tail:
                vcobj.out_port = None
                vcobj.out_vc = None
                vcobj.candidates = None
                vcobj.escape = None
                vcobj.state = idle_state
            if fifo:
                front = fifo[0]
                vcobj.wait_since = now
                if front.is_head:
                    if (
                        vcobj.state is not active_state
                        or vcobj.out_port is None
                    ):
                        vcobj.state = routing_state
                else:
                    if vcobj.out_port is None:
                        raise RuntimeError(
                            "body flit at VC front without a route"
                        )
                    vcobj.state = active_state
            else:
                vcobj.wait_since = None
            port.occ -= 1
            self._occ -= 1
            credits = out.credits
            if credits is not None:
                counts = credits.counts
                if counts[out_vc] <= 0:
                    raise RuntimeError(f"credit underflow on vc {out_vc}")
                counts[out_vc] -= 1
                credits.total -= 1
            # WPF writer lock: release once the packet's last flit is sent.
            writer = out.writer
            if writer[out_vc] != flit.packet.pid:
                raise RuntimeError(
                    "flit sent into a VC claimed by another packet"
                )
            wl = out.writer_left
            wl[out_vc] -= 1
            if wl[out_vc] == 0:
                writer[out_vc] = None
                out.ver += 1
            # Inlined Link.send.
            lk = out.link
            lk._pipe.append((now + lk.latency, flit))
            lk.flits_carried += 1
            lk.busy_cycles += 1
            # Return the freed buffer slot upstream.
            if port.is_injection:
                if ni is not None:
                    ni.on_credit(port.port_id, v)
                self.flits_injected += 1
                injected += 1
            else:
                ch = credit_out[in_p]
                if ch is not None:
                    ch._in_flight.append((now + ch.latency, v))
            moved += 1
        if injected > 1:
            self.speedup_extra_flits += injected - 1
        self.flits_switched += moved
        return moved

    # perfbench/loaded.py's traced run wraps both ``step`` and ``step_fast``
    # on every router; keep the alias until it wraps ``step`` alone.
    step_fast = step

    def _try_allocate(self, vc: VirtualChannel, pkt, vc_rule: int) -> bool:
        """VC allocation for the packet at the front of ``vc``.

        Tries the route candidates in order (adaptive routing re-ranks
        them by free downstream credits) and claims the first downstream
        VC that the routing's VC rule allows and that the WPF rule admits:
        no packet is being written into it and the whole packet fits.
        ``vc_rule``: 0 = every VC legal (XY), 1 = escape VC 0 only on the
        escape port (minimal adaptive), 2 = ask ``routing.vc_allowed``.
        A failure on a single candidate under rule 0 or 1 depends only on
        that output's writer locks and credits, so it sets the VC's
        blocked-VA memo; success clears it.
        """
        candidates = vc.candidates or []
        outs = self.output_ports
        routing = self.routing
        if routing.adaptive and len(candidates) > 1:
            if len(candidates) == 2:
                a, b = candidates
                oa = outs[a]
                ob = outs[b]
                ca = oa.credits if oa is not None else None
                cb = ob.credits if ob is not None else None
                fa = -1 if oa is None else (1 << 20) if ca is None else ca.total
                fb = -1 if ob is None else (1 << 20) if cb is None else cb.total
                # sorted() is stable: reorder only on a strict win.
                if fb > fa:
                    candidates = (b, a)
            else:
                candidates = sorted(
                    candidates,
                    key=lambda p: -(outs[p].free_credit_total()
                                    if outs[p] is not None else -1),
                )
        escape = vc.escape if vc.escape is not None else LOCAL
        size = pkt.size
        for out_port in candidates:
            out = outs[out_port]
            if out is None:
                continue
            writer = out.writer
            if out_port == LOCAL:
                # Ejection: claim any free writer slot (infinite credits).
                for dvc in range(self.num_vcs):
                    if writer[dvc] is None:
                        self._commit_allocation(vc, out, out_port, dvc, pkt)
                        return True
                continue
            credits = out.credits
            if credits is None:
                counts = None
            else:
                if credits.total < size:
                    # counts[dvc] <= total for every dvc, so the whole
                    # packet cannot fit anywhere on this output.
                    continue
                counts = credits.counts
            for dvc in self._vc_order:
                if vc_rule == 1:
                    if dvc == 0 and out_port != escape:
                        continue
                elif vc_rule == 2 and not routing.vc_allowed(
                    dvc, out_port, escape
                ):
                    continue
                if writer[dvc] is not None:
                    continue
                if counts is not None and counts[dvc] < size:
                    continue
                self._commit_allocation(vc, out, out_port, dvc, pkt)
                return True
        if len(candidates) == 1 and vc_rule != 2 and out is not None:
            vc.va_blocked = out
            vc.va_ver = out.ver
        return False

    # The network installs this: maps a destination node id to mesh coords.
    _dest_coords = None  # type: ignore[assignment]

    def set_dest_coords_fn(self, fn) -> None:
        self._dest_coords = fn

    def __repr__(self) -> str:  # pragma: no cover
        return f"Router(id={self.router_id}, at={self.coords})"
