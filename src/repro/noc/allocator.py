"""Separable input-first switch allocation with priority-aware arbitration.

The paper's configuration (Table I) uses a separable input-first allocator,
:class:`SwitchAllocator`, with two stages:

1. *input stage*: each input port selects which of its ready VCs bid for
   the crossbar this cycle.  Ordinary ports select one VC; an injection
   port with crossbar speedup ``S`` (ARI, Sec. 4.2) may select up to ``S``
   VCs targeting *distinct* output ports.
2. *output stage*: each output port grants one of the bidding inputs.

Every arbiter compares the ARI priority field first (Sec. 5) and breaks
ties round-robin from its pointer, so the multi-level prioritization
composes naturally with the base allocator.  Both stages resolve in one
pass over the bids: each input's winner is merged into a running leader
per output as soon as it is known.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class SwitchAllocator:
    """Two-stage separable input-first switch allocator.

    Parameters
    ----------
    num_in, num_out:
        Port counts of the crossbar.
    num_vcs:
        VCs per input port (sizes the input-stage arbiters).
    speedups:
        Per-input-port crossbar speedup (number of switch ports assigned to
        that input).  Defaults to 1 everywhere; ARI raises the injection
        port's entry.

    ``in_ptr[p]`` and ``out_ptr[o]`` are the round-robin pointers of the
    input and output arbiters: the requester (VC, resp. input port) an
    arbiter favours on a priority tie.
    """

    __slots__ = ("num_vcs", "num_in", "speedups", "in_ptr", "out_ptr")

    def __init__(
        self,
        num_in: int,
        num_out: int,
        num_vcs: int,
        speedups: Optional[Dict[int, int]] = None,
    ) -> None:
        speedups = speedups or {}
        if min(num_in, num_out, num_vcs) < 1:
            raise ValueError("allocator port and VC counts must be >= 1")
        for p, s in speedups.items():
            if not 0 <= p < num_in or s < 1:
                raise ValueError(f"bad speedup {s!r} for input port {p!r}")
        self.num_vcs = num_vcs
        self.num_in = num_in
        self.speedups = [speedups.get(p, 1) for p in range(num_in)]
        self.in_ptr = [0] * num_in
        self.out_ptr = [0] * num_out

    def grants(
        self,
        bid_ports: Sequence[int],
        port_bids: Sequence[Optional[List[Tuple[int, int, int]]]],
    ) -> List[Tuple[int, int]]:
        """Resolve one cycle of switch allocation.

        ``bid_ports`` lists the inputs that bid; ``port_bids[p]`` holds
        input ``p``'s bids as ``(vc, out_port, priority)`` tuples, at most
        one per VC (a VC has one front flit), priorities ``>= 0``.
        Returns the winning ``(in_port, vc)`` pairs, ordered by the first
        input-stage win on each output.  Guarantees:

        * each input port wins at most ``speedup`` grants, on distinct
          output ports; a speedup port picks them in rounds, each round
          among the VCs whose output it has not yet won;
        * each output port grants at most one input;
        * higher priority wins at both stages; ties go to the requester
          nearest at or after the arbiter's pointer (cyclically);
        * each pointer moves just past its winner, and only when its
          arbiter grants.

        Each input and each output is resolved independently, so the order
        of ``bid_ports`` cannot change the set of grants.
        """
        nvc = self.num_vcs
        n_in = self.num_in
        in_ptr = self.in_ptr
        out_ptr = self.out_ptr
        speedups = self.speedups
        # Running output-stage leaders: out_port -> (in_port, vc, priority),
        # in first-win order.  A later input-stage winner displaces the
        # leader on higher priority or, on a tie, when nearer the pointer.
        lead: Dict[int, Tuple[int, int, int]] = {}
        for p in bid_ports:
            blist = port_bids[p]
            rounds = speedups[p]
            taken = 0  # bitmask of outputs this input already won
            ptr = in_ptr[p]
            while True:
                # -- input stage: priority first, then rotated distance --
                if len(blist) == 1:
                    v, o, pr = blist[0]  # a sole requester wins outright
                else:
                    best = None
                    best_key = 0
                    for bid in blist:
                        if taken and (taken >> bid[1]) & 1:
                            continue
                        # Rotated distance is < nvc, so the key orders by
                        # priority first and distance only within one.
                        key = bid[2] * nvc - (bid[0] - ptr) % nvc
                        if best is None or key > best_key:
                            best = bid
                            best_key = key
                    if best is None:
                        break
                    v, o, pr = best
                ptr = v + 1 if v + 1 < nvc else 0
                # -- output stage: merge into the running leader ---------
                cur = lead.get(o)
                if cur is None:
                    lead[o] = (p, v, pr)
                elif pr > cur[2] or pr == cur[2] and (
                    (p - out_ptr[o]) % n_in < (cur[0] - out_ptr[o]) % n_in
                ):
                    lead[o] = (p, v, pr)
                rounds -= 1
                if not rounds or len(blist) == 1:
                    break
                taken |= 1 << o
            in_ptr[p] = ptr
        winners = []
        for o, (p, v, _pr) in lead.items():
            out_ptr[o] = p + 1 if p + 1 < n_in else 0
            winners.append((p, v))
        return winners
