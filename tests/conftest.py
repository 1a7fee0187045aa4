"""Shared fixtures for the test suite."""

import pytest

from repro.noc.flit import reset_packet_ids


@pytest.fixture(autouse=True)
def _fresh_packet_ids():
    """Keep packet ids deterministic per test."""
    reset_packet_ids()
    yield


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Point the default ResultStore at a per-test directory.

    Tests must never read or pollute the repo's real ``results/`` store;
    resetting the singleton makes :func:`default_store` re-derive its
    location from the patched ``REPRO_CACHE``.
    """
    from repro.experiments import store as store_mod

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "result_store" / "cache"))
    store_mod.set_default_store(None)
    yield
    store_mod.set_default_store(None)


@pytest.fixture
def small_network():
    """A 4x4 XY network with default parameters."""
    from repro.noc import Network, NetworkConfig

    return Network(NetworkConfig(width=4, height=4, routing="xy"))


@pytest.fixture
def adaptive_network():
    from repro.noc import Network, NetworkConfig

    return Network(NetworkConfig(width=4, height=4, routing="adaptive"))


def make_packet(src=0, dest=15, size=9, ptype=None, now=0, priority=0):
    from repro.noc.flit import Packet, PacketType

    return Packet(
        ptype or PacketType.READ_REPLY, src, dest, size, created_at=now,
        priority=priority,
    )


@pytest.fixture
def packet_factory():
    return make_packet
