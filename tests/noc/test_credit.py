"""Tests for credit-based flow control bookkeeping."""

import pytest

from repro.noc.credit import CreditChannel, CreditCounter
from repro.noc.flit import Packet, PacketType
from repro.noc.link import Link
from repro.noc.router import Router
from repro.noc.routing import EAST, XYRouting


def sending_router(num_vcs, capacity, size):
    """A router with a ``size``-flit packet for its EAST output arriving
    on injection VC 0 at cycle 1; returns the router and EAST credits."""
    router = Router(0, (0, 0), XYRouting(), num_vcs=num_vcs, vc_capacity=capacity)
    router.set_dest_coords_fn(lambda node: (node, 0))
    router.set_output(EAST, Link("east"), CreditChannel(1), capacity)
    inj = Link("inj", is_injection=True)
    router.set_input(4, inj, None)
    for flit in Packet(PacketType.READ_REPLY, 0, 1, size, 0).make_flits():
        flit.out_vc = 0
        inj.send(flit, 0)
    return router, router.output_ports[EAST].credits


def spent_router(num_vcs=3, latency=1):
    """A router whose EAST output has spent one credit on every VC.

    Credits returned on the channel land through ``Router.step``'s
    credit delivery, so each VC whose count is back at capacity has
    received its credit.
    """
    router = Router(0, (0, 0), XYRouting(), num_vcs=num_vcs, vc_capacity=4)
    ch = CreditChannel(latency)
    router.set_output(EAST, Link("east"), ch, 4)
    credits = router.output_ports[EAST].credits
    for vc in range(num_vcs):  # spent the way switch traversal spends them
        credits.counts[vc] -= 1
        credits.total -= 1
    return router, ch, credits


def delivered(router, credits, now):
    """Step the router at ``now``; the VCs credited so far."""
    router.step(now)
    return [vc for vc, n in enumerate(credits.counts) if n == credits.capacity]


class TestCreditChannel:
    def test_latency_delays_delivery(self):
        router, ch, credits = spent_router(latency=2)
        ch.send(vc=1, now=5)
        assert delivered(router, credits, 5) == []
        assert delivered(router, credits, 6) == []
        assert delivered(router, credits, 7) == [1]

    def test_zero_latency(self):
        router, ch, credits = spent_router(latency=0)
        ch.send(0, now=3)
        assert delivered(router, credits, 3) == [0]

    def test_multiple_credits_in_order(self):
        router, ch, credits = spent_router(latency=1)
        ch.send(0, now=0)
        ch.send(2, now=0)
        ch.send(1, now=1)
        assert delivered(router, credits, 1) == [0, 2]
        assert delivered(router, credits, 2) == [0, 1, 2]

    def test_late_delivery_collects_backlog(self):
        router, ch, credits = spent_router(latency=1)
        for vc in (0, 1, 2):
            ch.send(vc, now=vc)
        assert delivered(router, credits, 100) == [0, 1, 2]
        assert ch.pending == 0
        assert credits.total == 3 * credits.capacity

    def test_pending_count(self):
        ch = CreditChannel(latency=5)
        ch.send(0, 0)
        ch.send(1, 0)
        assert ch.pending == 2

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            CreditChannel(latency=-1)


class TestCreditCounter:
    def test_initial_credits_equal_capacity(self):
        c = CreditCounter(num_vcs=4, vc_capacity=9)
        assert all(c.available(v) == 9 for v in range(4))

    def test_consume(self):
        # Switch traversal spends one credit per flit sent downstream; XY
        # routing fills the adaptive VCs before escape VC 0.
        router, c = sending_router(num_vcs=2, capacity=3, size=2)
        for t in (1, 2):
            router.step(t)
        assert c.available(1) == 1
        assert c.available(0) == 3
        assert c.total == 4

    def test_underflow_raises(self):
        # VC allocation reserves credits for the whole packet, so only a
        # corrupted counter can run dry mid-packet; traversal refuses it.
        router, c = sending_router(num_vcs=1, capacity=2, size=2)
        router.step(1)  # the head leaves on VC 0
        c.counts[0] = 0
        with pytest.raises(RuntimeError, match="credit underflow"):
            router.step(2)

    def test_overflow_raises(self):
        # Credits return only through a router's credit delivery; one more
        # than the downstream VC can hold is a flow-control bug.
        router = Router(0, (0, 0), XYRouting(), num_vcs=1, vc_capacity=1)
        credit_in = CreditChannel(1)
        router.set_output(EAST, Link("east"), credit_in, 1)
        credit_in.send(0, now=0)
        with pytest.raises(RuntimeError, match="credit overflow"):
            router.step(1)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CreditCounter(0, 1)
        with pytest.raises(ValueError):
            CreditCounter(1, 0)
