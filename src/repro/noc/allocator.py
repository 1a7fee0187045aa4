"""Separable input-first switch allocation with priority-aware arbitration.

The paper's configuration (Table I) uses a separable input-first allocator.
Two pieces are provided:

* :class:`RoundRobinArbiter` — a rotating-priority arbiter used for
  fairness among equal-priority requesters.
* :class:`SwitchAllocator` — the two-stage separable allocation:

  1. *input stage*: each input port selects which of its ready VCs bid for
     the crossbar this cycle.  Ordinary ports select one VC; an injection
     port with crossbar speedup ``S`` (ARI, Sec. 4.2) may select up to ``S``
     VCs targeting *distinct* output ports.
  2. *output stage*: each output port grants one of the bidding inputs.

  Both stages compare the ARI priority field first (Sec. 5) and break ties
  round-robin, so the multi-level prioritization composes naturally with
  the base allocator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``size`` requesters."""

    __slots__ = ("size", "_next")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("arbiter size must be >= 1")
        self.size = size
        self._next = 0

    def grant_prioritized(
        self, requests: Sequence[Optional[int]]
    ) -> Optional[int]:
        """Grant among requesters carrying integer priorities.

        ``requests[i]`` is ``None`` if requester *i* is idle, otherwise its
        priority (higher wins).  Ties break round-robin from the arbiter
        pointer; the pointer only advances past the granted requester.
        """
        size = self.size
        if len(requests) != size:
            raise ValueError("request vector size mismatch")
        start = self._next
        best_idx: Optional[int] = None
        best_prio = -1
        for off in range(size):
            idx = start + off
            if idx >= size:
                idx -= size
            prio = requests[idx]
            if prio is not None and prio > best_prio:
                best_prio = prio
                best_idx = idx
        if best_idx is not None:
            self._next = best_idx + 1 if best_idx + 1 < size else 0
        return best_idx


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
    """

    __slots__ = ("num_vcs", "speedups", "input_arbiters", "output_arbiters")

    def __init__(
        self,
        num_in: int,
        num_out: int,
        num_vcs: int,
        speedups: Optional[Dict[int, int]] = None,
    ) -> None:
        speedups = speedups or {}
        self.num_vcs = num_vcs
        self.speedups = [speedups.get(p, 1) for p in range(num_in)]
        self.input_arbiters = [RoundRobinArbiter(num_vcs) for _ in range(num_in)]
        self.output_arbiters = [RoundRobinArbiter(num_in) for _ in range(num_out)]

    def grants(
        self,
        bid_ports: Sequence[int],
        port_bids: Sequence[Optional[List[Tuple[int, int, int]]]],
    ) -> List[Tuple[int, int]]:
        """Resolve one cycle of switch allocation.

        ``bid_ports`` lists the inputs that bid; ``port_bids[p]`` holds
        input ``p``'s bids as ``(vc, out_port, priority)`` tuples, at most
        one per VC (a VC has one front flit).  Returns the winning
        ``(in_port, vc)`` pairs.  Guarantees:

        * each input port wins at most ``speedup`` grants, on distinct
          output ports;
        * each output port grants at most one input;
        * higher priority wins at both stages, ties round-robin.

        Each input and each output is resolved independently, so the order
        of ``bid_ports`` cannot change any grant.
        """
        in_arbs = self.input_arbiters
        nvc = self.num_vcs

        # -- stage 1: input selection -------------------------------------
        stage1 = []
        for p in bid_ports:
            blist = port_bids[p]
            if len(blist) == 1:
                # A sole requester wins its first round outright; later
                # budget rounds would see no request and leave the pointer.
                v, o, pr = blist[0]
                in_arbs[p]._next = v + 1 if v + 1 < nvc else 0
                stage1.append((p, v, o, pr))
                continue
            arb = in_arbs[p]
            chosen_outs = 0  # bitmask of outputs this input already won
            remaining = blist
            for _ in range(self.speedups[p]):
                vec: List[Optional[int]] = [None] * nvc
                vc_bid = [None] * nvc
                for bid in remaining:
                    if (chosen_outs >> bid[1]) & 1:
                        continue
                    vec[bid[0]] = bid[2]
                    vc_bid[bid[0]] = bid
                win_vc = arb.grant_prioritized(vec)
                if win_vc is None:
                    break
                v, o, pr = vc_bid[win_vc]
                stage1.append((p, v, o, pr))
                chosen_outs |= 1 << o
                remaining = [bid for bid in remaining if bid[0] != win_vc]

        # -- stage 2: output arbitration ----------------------------------
        by_out: Dict[int, list] = {}
        for bid in stage1:
            group = by_out.get(bid[2])
            if group is None:
                by_out[bid[2]] = [bid]
            else:
                group.append(bid)
        out_arbs = self.output_arbiters
        winners = []
        for o, group in by_out.items():
            arb = out_arbs[o]
            if len(group) == 1:
                p, v, _o, _pr = group[0]
                arb._next = p + 1 if p + 1 < arb.size else 0
                winners.append((p, v))
                continue
            vec = [None] * arb.size
            in_vc = [0] * arb.size
            for p, v, _o, pr in group:
                vec[p] = pr
                in_vc[p] = v
            p = arb.grant_prioritized(vec)
            winners.append((p, in_vc[p]))
        return winners
