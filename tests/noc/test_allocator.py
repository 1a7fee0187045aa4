"""Tests for the separable input-first switch allocator and its arbiters."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.allocator import SwitchAllocator


def grants(alloc, bids, num_in=5):
    """Run one allocation over ``(in_port, vc, out_port, prio)`` bids."""
    bid_ports = []
    port_bids = [None] * num_in
    for ip, vc, op, pr in bids:
        if port_bids[ip] is None:
            port_bids[ip] = []
            bid_ports.append(ip)
        port_bids[ip].append((vc, op, pr))
    return alloc.grants(bid_ports, port_bids)


class Arbiter:
    """One ``size``-requester arbiter, driven through both allocator stages.

    ``grant(requests)`` takes ``None`` (idle) or a priority per requester.
    The output stage sees requester *i* as input port *i* bidding for the
    one output; the input stage sees it as VC *i* of the one input bidding
    for output *i*.  Both must pick the same winner.
    """

    def __init__(self, size):
        self.size = size
        self.out_stage = SwitchAllocator(num_in=size, num_out=1, num_vcs=1)
        self.in_stage = SwitchAllocator(num_in=1, num_out=size, num_vcs=size)

    def grant(self, requests):
        if len(requests) != self.size:
            raise ValueError("request vector size mismatch")
        live = [(i, pr) for i, pr in enumerate(requests) if pr is not None]
        by_out = grants(
            self.out_stage, [(i, 0, 0, pr) for i, pr in live], self.size
        )
        by_in = grants(self.in_stage, [(0, i, i, pr) for i, pr in live], 1)
        assert [p for p, _v in by_out] == [v for _p, v in by_in]
        return by_out[0][0] if by_out else None


class TestRoundRobinArbiter:
    def test_grants_only_requesters(self):
        arb = Arbiter(4)
        assert arb.grant([None, 0, None, None]) == 1

    def test_no_request_no_grant(self):
        arb = Arbiter(3)
        assert arb.grant([None, None, None]) is None

    def test_rotates_for_fairness(self):
        arb = Arbiter(3)
        grants = [arb.grant([0, 0, 0]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_size_mismatch_raises(self):
        # A speedup for an input the crossbar does not have, or a
        # zero-sized crossbar, is a geometry error.
        with pytest.raises(ValueError):
            SwitchAllocator(num_in=2, num_out=2, num_vcs=2, speedups={2: 2})
        with pytest.raises(ValueError):
            SwitchAllocator(num_in=2, num_out=2, num_vcs=2, speedups={1: 0})
        with pytest.raises(ValueError):
            SwitchAllocator(num_in=0, num_out=2, num_vcs=2)

    def test_prioritized_prefers_higher(self):
        arb = Arbiter(3)
        assert arb.grant([0, 1, 0]) == 1

    def test_prioritized_ties_round_robin(self):
        arb = Arbiter(2)
        first = arb.grant([1, 1])
        second = arb.grant([1, 1])
        assert {first, second} == {0, 1}

    def test_prioritized_skips_idle(self):
        arb = Arbiter(3)
        assert arb.grant([None, None, 0]) == 2

    def test_prioritized_all_idle(self):
        arb = Arbiter(2)
        assert arb.grant([None, None]) is None


class TestSwitchAllocator:
    def _alloc(self, speedups=None):
        return SwitchAllocator(num_in=5, num_out=5, num_vcs=4, speedups=speedups)

    def test_single_bid_wins(self):
        assert grants(self._alloc(), [(0, 0, 1, 0)]) == [(0, 0)]

    def test_output_conflict_one_winner(self):
        winners = grants(self._alloc(), [(0, 0, 2, 0), (1, 0, 2, 0)])
        assert len(winners) == 1

    def test_distinct_outputs_both_win(self):
        winners = grants(self._alloc(), [(0, 0, 1, 0), (1, 0, 2, 0)])
        assert len(winners) == 2

    def test_input_without_speedup_single_grant(self):
        # Two VCs of the same port requesting different outputs: only one
        # may cross a 1-switch-port input per cycle.
        winners = grants(self._alloc(), [(0, 0, 1, 0), (0, 1, 2, 0)])
        assert len(winners) == 1

    def test_injection_speedup_multiple_grants(self):
        # ARI consumption side: speedup-4 injection port sends up to 4 flits.
        alloc = self._alloc(speedups={4: 4})
        winners = grants(alloc, [(4, vc, vc, 0) for vc in range(4)])
        assert len(winners) == 4

    def test_speedup_respects_distinct_outputs(self):
        alloc = self._alloc(speedups={4: 4})
        winners = grants(alloc, [(4, vc, 1, 0) for vc in range(4)])
        assert len(winners) == 1

    def test_speedup_capped(self):
        alloc = self._alloc(speedups={4: 2})
        winners = grants(alloc, [(4, vc, vc, 0) for vc in range(4)])
        assert len(winners) == 2

    def test_priority_wins_output_stage(self):
        winners = grants(self._alloc(), [(0, 0, 1, 0), (1, 0, 1, 5)])
        assert winners == [(1, 0)]

    def test_priority_wins_input_stage(self):
        winners = grants(self._alloc(), [(0, 0, 1, 0), (0, 1, 2, 5)])
        assert winners == [(0, 1)]

    def test_bad_ports_rejected(self):
        alloc = self._alloc()
        with pytest.raises(IndexError):
            alloc.grants([9], [None] * 5)
        with pytest.raises(IndexError):
            grants(alloc, [(0, 0, 9, 0)])

    def test_round_robin_state_persists(self):
        # Equal-priority conflicts rotate across cycles: the arbiters keep
        # their pointers between calls.
        alloc = self._alloc()
        bids = [(0, 0, 2, 0), (1, 0, 2, 0)]
        assert [grants(alloc, bids) for _ in range(4)] == [
            [(0, 0)], [(1, 0)], [(0, 0)], [(1, 0)],
        ]


@settings(max_examples=200, deadline=None)
@given(
    bids=st.lists(
        st.tuples(
            st.integers(0, 4),  # in_port
            st.integers(0, 3),  # vc
            st.integers(0, 4),  # out_port
            st.integers(0, 3),  # priority
        ),
        max_size=20,
    ),
    inj_speedup=st.integers(1, 4),
)
def test_allocator_invariants(bids, inj_speedup):
    """Property: winners never violate the crossbar's physical constraints."""
    alloc = SwitchAllocator(5, 5, 4, speedups={4: inj_speedup})
    # At most one bid per (in_port, vc) — a VC has one front flit.
    out_of = {}
    uniq = []
    for ip, vc, op, pr in bids:
        if (ip, vc) in out_of:
            continue
        out_of[(ip, vc)] = op
        uniq.append((ip, vc, op, pr))
    winners = grants(alloc, uniq)

    # 1. winners are a subset of the bids, each granted once
    assert all(w in out_of for w in winners)
    assert len(winners) == len(set(winners))
    # 2. each output grants at most once
    outs = [out_of[w] for w in winners]
    assert len(outs) == len(set(outs))
    # 3. each input wins at most its speedup
    per_in = Counter(ip for ip, _vc in winners)
    for in_port, count in per_in.items():
        cap = inj_speedup if in_port == 4 else 1
        assert count <= cap
    # 4. work conservation: if any bid exists, someone wins
    if uniq:
        assert winners


def oracle(bids, speedups, in_ptr, out_ptr, num_vcs):
    """Brute-force separable allocation, written from the grants() rules.

    ``bids`` maps ``(in_port, vc)`` to ``(out_port, prio)``.  Returns the
    winners in first-win-per-output order and the updated pointers.
    """
    num_in, num_out = len(in_ptr), len(out_ptr)
    in_ptr, out_ptr = list(in_ptr), list(out_ptr)

    def pick(requesters, ptr, size):
        # Highest priority; among equals the first at or after ``ptr``.
        order = [(ptr + k) % size for k in range(size)]
        live = [i for i in order if i in requesters]
        if not live:
            return None
        top = max(requesters[i] for i in live)
        return next(i for i in live if requesters[i] == top)

    stage1 = []  # (in_port, vc, out_port, prio) in input-stage win order
    for p in sorted({ip for ip, _vc in bids}, key=lambda ip: ip):
        won_outs = set()
        for _round in range(speedups[p]):
            reqs = {
                vc: pr for (ip, vc), (op, pr) in bids.items()
                if ip == p and op not in won_outs
            }
            v = pick(reqs, in_ptr[p], num_vcs)
            if v is None:
                break
            in_ptr[p] = (v + 1) % num_vcs
            o = bids[(p, v)][0]
            won_outs.add(o)
            stage1.append((p, v, o, bids[(p, v)][1]))
    out_order = []
    for _p, _v, o, _pr in stage1:
        if o not in out_order:
            out_order.append(o)
    winners = []
    for o in out_order:
        reqs = {p: pr for p, _v, oo, pr in stage1 if oo == o}
        p = pick(reqs, out_ptr[o], num_in)
        out_ptr[o] = (p + 1) % num_in
        winners.append((p, next(v for pp, v, oo, _ in stage1
                                if pp == p and oo == o)))
    return winners, in_ptr, out_ptr


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grants_match_brute_force_oracle(data):
    """Property: one-pass grants() equals the two-stage oracle exactly —
    the same winners in the same order and the same pointer moves."""
    num_in = data.draw(st.integers(1, 6), label="num_in")
    num_out = data.draw(st.integers(1, 5), label="num_out")
    num_vcs = data.draw(st.integers(1, 4), label="num_vcs")
    speedups = data.draw(
        st.lists(st.integers(1, 4), min_size=num_in, max_size=num_in),
        label="speedups",
    )
    raw = data.draw(st.lists(
        st.tuples(
            st.integers(0, num_in - 1),
            st.integers(0, num_vcs - 1),
            st.integers(0, num_out - 1),
            st.integers(0, 3),
        ),
        max_size=24,
    ), label="bids")
    bids = {}
    for ip, vc, op, pr in raw:
        bids.setdefault((ip, vc), (op, pr))
    in_ptr = data.draw(st.lists(st.integers(0, num_vcs - 1),
                                min_size=num_in, max_size=num_in))
    out_ptr = data.draw(st.lists(st.integers(0, num_in - 1),
                                 min_size=num_out, max_size=num_out))

    alloc = SwitchAllocator(num_in, num_out, num_vcs,
                            speedups=dict(enumerate(speedups)))
    alloc.in_ptr[:] = in_ptr
    alloc.out_ptr[:] = out_ptr
    # Ports bid in ascending order, each port's bids in VC order (the
    # router's sweep lists them that way).
    ordered = sorted((ip, vc, op, pr) for (ip, vc), (op, pr) in bids.items())
    got = grants(alloc, ordered, num_in)
    want, want_in, want_out = oracle(bids, speedups, in_ptr, out_ptr, num_vcs)
    assert got == want
    assert alloc.in_ptr == want_in
    assert alloc.out_ptr == want_out
    # The docstring's crossbar constraints, checked directly as well.
    per_in = Counter(p for p, _v in got)
    assert all(per_in[p] <= speedups[p] for p in per_in)
    outs = [bids[w][0] for w in got]
    assert len(outs) == len(set(outs))
    for p in per_in:
        mine = [bids[w][0] for w in got if w[0] == p]
        assert len(mine) == len(set(mine))
