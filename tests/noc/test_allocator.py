"""Tests for arbiters and the separable input-first switch allocator."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.allocator import RoundRobinArbiter, SwitchAllocator


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


class TestRoundRobinArbiter:
    def test_grants_only_requesters(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant_prioritized([None, 0, None, None]) == 1

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant_prioritized([None, None, None]) is None

    def test_rotates_for_fairness(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant_prioritized([0, 0, 0]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_size_mismatch_raises(self):
        arb = RoundRobinArbiter(2)
        with pytest.raises(ValueError):
            arb.grant_prioritized([0])

    def test_prioritized_prefers_higher(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant_prioritized([0, 1, 0]) == 1

    def test_prioritized_ties_round_robin(self):
        arb = RoundRobinArbiter(2)
        first = arb.grant_prioritized([1, 1])
        second = arb.grant_prioritized([1, 1])
        assert {first, second} == {0, 1}

    def test_prioritized_skips_idle(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant_prioritized([None, None, 0]) == 2

    def test_prioritized_all_idle(self):
        arb = RoundRobinArbiter(2)
        assert arb.grant_prioritized([None, None]) is None


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
