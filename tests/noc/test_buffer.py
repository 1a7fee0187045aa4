"""Tests for virtual-channel buffers and the WPF admission rule.

Flits enter and leave the VCs under test the way they do in a run:
through :meth:`Router.step`'s ingest and switch traversal.
"""

import pytest

from repro.noc.buffer import InputPort, VCState, VirtualChannel
from repro.noc.credit import CreditChannel
from repro.noc.flit import Packet, PacketType
from repro.noc.link import Link
from repro.noc.router import Router
from repro.noc.routing import EAST, XYRouting


def flits_of(size=3, priority=0):
    # Node 1 sits EAST of the test router at (0, 0).
    return Packet(PacketType.READ_REPLY, 0, 1, size, 0, priority=priority).make_flits()


def fed_router(capacity=9, num_vcs=2, east=False):
    """A router whose injection port 4 is fed by a link.

    With ``east=False`` the EAST output is unwired, so heads bound there
    stay in ROUTING and every flit stays buffered.
    """
    router = Router(0, (0, 0), XYRouting(), num_vcs=num_vcs, vc_capacity=capacity)
    router.set_dest_coords_fn(lambda node: (node, 0))
    link = Link("inj", is_injection=True)
    router.set_input(4, link, None)
    if east:
        router.set_output(EAST, Link("east"), CreditChannel(1), capacity)
    return router, link


def land(router, link, flits, now, vc=0):
    """Deliver ``flits`` into injection VC ``vc`` at cycle ``now``."""
    for f in flits:
        f.out_vc = vc
        link.send(f, now - link.latency)
    router.step(now)
    return router.input_ports[4].vcs[vc]


class TestVCStateMachine:
    def test_starts_idle(self):
        vc = VirtualChannel(0, 9)
        assert vc.state == VCState.IDLE
        assert vc.empty

    def test_head_arrival_triggers_routing(self):
        router, link = fed_router()
        vc = land(router, link, flits_of(3)[:1], now=1)
        assert vc.state == VCState.ROUTING

    def test_route_then_vc_allocation(self):
        router, link = fed_router()
        head = flits_of(3)[0]
        vc = land(router, link, [head], now=1)
        vc.set_route(2)
        assert vc.state == VCState.VA
        assert head.out_port == 2
        vc.set_out_vc(1)
        assert vc.state == VCState.ACTIVE
        assert head.out_vc == 1

    def test_set_route_requires_routing_state(self):
        vc = VirtualChannel(0, 9)
        with pytest.raises(RuntimeError):
            vc.set_route(1)

    def test_tail_pop_releases_route(self):
        router, link = fed_router(east=True)
        # The head is routed, allocated and sent in its arrival cycle.
        vc = land(router, link, flits_of(2), now=1)
        assert vc.state == VCState.ACTIVE  # body still queued
        router.step(2)
        assert vc.state == VCState.IDLE
        assert vc.out_port is None and vc.out_vc is None

    def test_wpf_second_packet_restarts_routing(self):
        """Non-atomic allocation: a second whole packet behind the first
        re-enters ROUTING once the first fully drains."""
        router, link = fed_router(east=True)
        vc = land(router, link, flits_of(2) + flits_of(2), now=1)
        router.step(2)  # p1 tail leaves
        assert vc.state == VCState.ROUTING  # p2's head now at the front
        assert vc.out_port is None

    def test_overflow_raises(self):
        router, link = fed_router(capacity=1)
        land(router, link, flits_of(1), now=1)
        with pytest.raises(RuntimeError):
            land(router, link, flits_of(1), now=2)


class TestWPFAdmission:
    def test_accepts_whole_packet_in_free_space(self):
        vc = VirtualChannel(0, 9)
        assert vc.can_accept_packet(9)
        assert not vc.can_accept_packet(10)

    def test_partial_occupancy_reduces_admission(self):
        router, link = fed_router()
        vc = land(router, link, flits_of(4), now=1)
        assert vc.can_accept_packet(5)
        assert not vc.can_accept_packet(6)

    def test_free_space_tracks_occupancy(self):
        router, link = fed_router(capacity=5)
        flits = flits_of(3)
        for i, f in enumerate(flits):
            vc = land(router, link, [f], now=i + 1)
            assert vc.occupancy == i + 1
            assert vc.free_space == 5 - (i + 1)


class TestWaitTracking:
    def test_wait_since_set_on_new_front(self):
        router, link = fed_router()
        vc = land(router, link, flits_of(2)[:1], now=7)
        assert vc.wait_since == 7

    def test_wait_since_updates_after_pop(self):
        router, link = fed_router(east=True)
        vc = land(router, link, flits_of(3), now=5)  # head leaves at 5
        router.step(9)  # the body leaves; the tail becomes the front
        assert vc.wait_since == 9


class TestInputPort:
    def test_port_structure(self):
        port = InputPort(2, num_vcs=4, vc_capacity=9)
        assert port.num_vcs == 4
        assert not port.is_injection
        assert port.total_occupancy() == 0

    def test_injection_flag(self):
        port = InputPort(4, 4, 9, is_injection=True)
        assert port.is_injection

    def test_oldest_wait(self):
        router, link = fed_router()
        land(router, link, flits_of(1), now=3, vc=0)
        land(router, link, flits_of(1), now=8, vc=1)
        port = router.input_ports[4]
        assert port.oldest_wait(now=10) == 7

    def test_oldest_wait_empty_port(self):
        port = InputPort(0, 2, 9)
        assert port.oldest_wait(100) == 0
