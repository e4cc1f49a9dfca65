"""The flow cache and the demultiplexer's invalidation discipline.

Every mutation of the bound set flows through one hook, so the compiled
IR program, the decision table and the flow cache can never disagree.
"""

import pytest

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.flowcache import FlowCache
from repro.core.ioctl import PFIoctl
from repro.core.port import Port
from repro.core.words import pack_words


class TestFlowCache:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FlowCache(100)
        FlowCache(1)
        FlowCache(64)

    def test_miss_store_hit(self):
        cache = FlowCache(16)
        assert cache.lookup(b"ab") is None
        cache.store(b"ab", (3,))
        assert cache.lookup(b"ab") == (3,)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_invalidate_clears_and_counts(self):
        cache = FlowCache(16)
        cache.store(b"ab", (3,))
        cache.invalidate()
        assert cache.lookup(b"ab") is None
        assert cache.invalidations == 1


class TestDemuxInvalidation:
    """Every order mutation flushes the cache and recompiles."""

    def _port(self, port_id, expr, *, priority=0):
        port = Port(port_id, queue_limit=100)
        port.bind_filter(compile_expr(expr, priority=priority))
        return port

    def test_attach_and_detach_invalidate(self):
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=True)
        a = self._port(0, word(6) == 0x0900)
        demux.attach(a)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        demux.deliver(packet)
        demux.deliver(packet)
        assert demux.flow_cache.hits == 1

        # A higher-priority filter for the same traffic must win
        # immediately — a stale cache entry would keep routing to a.
        b = self._port(1, word(6) == 0x0900, priority=7)
        demux.attach(b)
        report = demux.deliver(packet)
        assert report.accepted_by == (1,)

        demux.detach(b)
        report = demux.deliver(packet)
        assert report.accepted_by == (0,)

    def test_reorder_invalidates(self):
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=True)
        quiet = self._port(0, word(6) == 0x0900)
        busy = self._port(1, word(6) == 0x0901)
        demux.attach(quiet)
        demux.attach(busy)
        busy_packet = pack_words([0, 0, 0, 0, 0, 0, 0x0901, 0])
        for _ in range(demux.REORDER_INTERVAL):
            demux.deliver(busy_packet)
        # busy now leads the same-priority class; the rank assignments
        # changed, so cached rank tuples were flushed with them.
        assert demux.attached_ports()[0] is busy
        assert demux.flow_cache.invalidations >= 1
        report = demux.deliver(busy_packet)
        assert report.accepted_by == (1,)

    def test_indirect_filters_disable_the_cache(self):
        from repro.core.instructions import (
            BinaryOp, Instruction, StackAction,
        )
        from repro.core.program import FilterProgram

        indirect = FilterProgram(instructions=(
            Instruction(action_code=StackAction.PUSHONE),
            Instruction(action_code=StackAction.PUSHIND),
            Instruction(
                action_code=StackAction.PUSHLIT,
                operator=BinaryOp.EQ,
                literal=0x0304,
            ),
        ))
        from repro.core.interpreter import LanguageLevel

        demux = PacketFilterDemux(
            flow_cache=True, level=LanguageLevel.EXTENDED
        )
        port = Port(0, queue_limit=100)
        port.bind_filter(indirect)
        demux.attach(port)
        packet = pack_words([1, 0x0304, 0, 0])
        demux.deliver(packet)
        demux.deliver(packet)
        assert demux.flow_cache.hits == 0
        assert demux.flow_cache.misses == 0

    def test_copy_all_flip_via_ioctl_invalidates(self):
        """SETCOPYALL on an attached port flushes the IR program and
        cache — the copy-all continuation is baked into both."""
        from repro.sim.process import Ioctl, Open
        from repro.sim.world import World

        world = World()
        host = world.host("monitor")
        device = host.install_packet_filter(
            engine=Engine.IR, flow_cache=True
        )
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        seen = {}

        def proc():
            fd1 = yield Open("pf")
            yield Ioctl(
                fd1,
                PFIoctl.SETFILTER,
                compile_expr(word(6) == 0x0900, priority=5),
            )
            fd2 = yield Open("pf")
            yield Ioctl(fd2, PFIoctl.SETFILTER, compile_expr(word(6) == 0x0900))
            # Prime the flow cache with the pre-flip classification.
            device.demux.deliver(packet)
            seen["before"] = device.demux.deliver(packet).accepted_by
            yield Ioctl(fd1, PFIoctl.SETCOPYALL, True)
            seen["after"] = device.demux.deliver(packet).accepted_by

        world.run_until_done(host.spawn("setup", proc()))
        assert seen["before"] == (0,)
        assert seen["after"] == (0, 1)

    def test_setcopyall_refuses_stale_compiled_program(self):
        """Flipping copy-all on a live port recompiles: a second filter
        behind a copy-all filter starts receiving copies immediately."""
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=True)
        first = self._port(0, word(6) == 0x0900, priority=5)
        second = self._port(1, word(6) == 0x0900)
        demux.attach(first)
        demux.attach(second)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        assert demux.deliver(packet).accepted_by == (0,)

        first.copy_all = True
        demux.invalidate()     # what the SETCOPYALL ioctl now does
        assert demux.deliver(packet).accepted_by == (0, 1)
