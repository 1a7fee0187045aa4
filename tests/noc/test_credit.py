"""Tests for credit-based flow control bookkeeping."""

import pytest

from repro.noc.credit import CreditChannel, CreditCounter
from repro.noc.link import Link
from repro.noc.router import Router
from repro.noc.routing import EAST, XYRouting


class TestCreditChannel:
    def test_latency_delays_delivery(self):
        ch = CreditChannel(latency=2)
        ch.send(vc=1, now=5)
        assert ch.deliver(5) == []
        assert ch.deliver(6) == []
        assert ch.deliver(7) == [1]

    def test_zero_latency(self):
        ch = CreditChannel(latency=0)
        ch.send(0, now=3)
        assert ch.deliver(3) == [0]

    def test_multiple_credits_in_order(self):
        ch = CreditChannel(latency=1)
        ch.send(0, now=0)
        ch.send(2, now=0)
        ch.send(1, now=1)
        assert ch.deliver(1) == [0, 2]
        assert ch.deliver(2) == [1]

    def test_late_delivery_collects_backlog(self):
        ch = CreditChannel(latency=1)
        for vc in (0, 1, 2):
            ch.send(vc, now=vc)
        assert ch.deliver(100) == [0, 1, 2]
        assert ch.pending == 0

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
        c = CreditCounter(2, 3)
        c.consume(0)
        c.consume(0)
        assert c.available(0) == 1
        assert c.available(1) == 3
        assert c.total == 4

    def test_underflow_raises(self):
        c = CreditCounter(1, 1)
        c.consume(0)
        with pytest.raises(RuntimeError):
            c.consume(0)

    def test_overflow_raises(self):
        # Credits return only through a router's credit delivery; one more
        # than the downstream VC can hold is a flow-control bug.
        router = Router(0, (0, 0), XYRouting(), num_vcs=1, vc_capacity=1)
        credit_in = CreditChannel(1)
        router.set_output(EAST, Link("east"), credit_in, 1)
        credit_in.send(0, now=0)
        with pytest.raises(RuntimeError, match="credit overflow"):
            router.step(1)

    def test_has_credit(self):
        c = CreditCounter(1, 1)
        assert c.has_credit(0)
        c.consume(0)
        assert not c.has_credit(0)

    def test_free_space_alias(self):
        c = CreditCounter(2, 5)
        c.consume(1)
        assert c.free_space(1) == c.available(1) == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CreditCounter(0, 1)
        with pytest.raises(ValueError):
            CreditCounter(1, 0)
