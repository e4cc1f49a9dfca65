"""The batched receive path: one interrupt charge per burst.

``NIC.rx_batch`` > 1 coalesces queued frames into a single
``SimKernel.network_input_batch`` call, which charges interrupt service
once and hands every filter-bound frame to the packet-filter device in
one ``packets_arrived`` call (one ``pf_fixed`` charge).  Delivery
semantics must be indistinguishable from the per-frame path, and a
burst of one frame is charged exactly as that frame alone.
"""

from dataclasses import astuple

from repro.core.compiler import compile_expr, word
from repro.core.ioctl import PFIoctl
from repro.sim.process import Ioctl, Open, SigWait
from repro.sim.world import World

ETHERTYPE = 0x0900


def monitor_world(rx_batch, ledger=False):
    """A world with one packet-filtering host accepting ETHERTYPE."""
    world = World(ledger=ledger)
    host = world.host("monitor", promiscuous=True)
    host.nic.rx_batch = rx_batch
    host.install_packet_filter()

    def setup():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, compile_expr(word(6) == ETHERTYPE))
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, 64)
        # Park forever: exiting would close the fd and detach the port.
        yield SigWait()

    host.spawn("setup", setup())
    world.run()
    return world, host


def make_frame(world, ethertype, payload=b"payload!"):
    link = world.link
    dst = (1).to_bytes(link.address_length, "big")
    src = (9).to_bytes(link.address_length, "big")
    return link.frame(dst, src, ethertype, payload)


class TestBatchedInput:
    def test_batch_semantics_match_per_frame_path(self):
        frames = []
        for n in range(8):
            ethertype = ETHERTYPE if n % 2 == 0 else 0x7777
            frames.append((ethertype, bytes([n]) * 8))

        worlds = {}
        for rx_batch in (1, 8):
            world, host = monitor_world(rx_batch)
            for ethertype, payload in frames:
                host.nic.receive(make_frame(world, ethertype, payload))
            world.run()
            worlds[rx_batch] = (world, host)

        (w1, h1), (w8, h8) = worlds[1], worlds[8]
        port1 = h1.packet_filter.demux.attached_ports()[0]
        port8 = h8.packet_filter.demux.attached_ports()[0]
        assert port8.queued == port1.queued == 4
        assert [p.data for p in port8.read_packets(None)] == [
            p.data for p in port1.read_packets(None)
        ]
        assert h8.kernel.stats.packets_unclaimed == 4
        assert h1.kernel.stats.packets_unclaimed == 4
        assert h8.kernel.stats.frames_received == 8

    def test_batch_charges_one_interrupt_per_burst(self):
        world1, host1 = monitor_world(1)
        world8, host8 = monitor_world(8)
        for world, host in ((world1, host1), (world8, host8)):
            for n in range(8):
                host.nic.receive(make_frame(world, ETHERTYPE, bytes([n]) * 8))
            world.run()

        assert host1.kernel.stats.interrupts == 8
        assert host8.kernel.stats.interrupts == 1
        # One interrupt-service + one pf_fixed for the whole burst
        # instead of eight of each: 7 charges of each saved.
        costs = host1.kernel.costs
        saved = 7 * (costs.interrupt_service + costs.pf_fixed)
        extra = host1.kernel.stats.delta(host8.kernel.stats)
        assert abs(extra.cpu_time - saved) < 1e-12
        assert extra.interrupts == 7

    def test_partial_final_batch(self):
        world, host = monitor_world(4)
        for n in range(10):
            host.nic.receive(make_frame(world, ETHERTYPE, bytes([n]) * 8))
        world.run()
        # 4 + 4 + 2: three service events.
        assert host.kernel.stats.interrupts == 3
        port = host.packet_filter.demux.attached_ports()[0]
        assert port.queued == 10

    def test_mitigation_window_coalesces_wire_bursts(self):
        """Frames arriving off the wire are spaced by serialization
        delay, so batches only form if the interrupt is held briefly;
        a full batch fires it early."""
        from repro.net.medium import EthernetSegment

        world, host = monitor_world(8)
        host.nic.rx_mitigation = 0.005
        segment = EthernetSegment(world.scheduler, world.link)
        segment.attach(host.nic)
        sender_nic_address = (9).to_bytes(world.link.address_length, "big")

        class Wire:
            address = sender_nic_address
            link = world.link

            def receive(self, frame):
                pass

            def wants(self, frame):
                return False

        wire = Wire()
        segment.attach(wire)
        for n in range(16):
            segment.transmit(wire, make_frame(world, ETHERTYPE, bytes([n]) * 8))
        world.run()
        port = host.packet_filter.demux.attached_ports()[0]
        assert port.queued == 16
        # Two full batches of 8, not 16 per-frame interrupts.
        assert host.kernel.stats.interrupts == 2

    def test_queued_full_batch_services_immediately(self):
        """Regression: after a service drain, a backlog holding one or
        more *complete* batches used to re-arm the full mitigation
        window — delaying work that was already ready by rx_mitigation
        per batch.  The window bounds latency while a batch *forms*; a
        formed batch fires now."""
        world, host = monitor_world(4)
        host.nic.rx_mitigation = 0.005
        start = world.now
        for n in range(12):
            host.nic.receive(make_frame(world, ETHERTYPE, bytes([n]) * 8))
        world.run()
        port = host.packet_filter.demux.attached_ports()[0]
        assert port.queued == 12
        assert host.kernel.stats.interrupts == 3
        # All three batches were complete from the start: no service
        # event should have waited out a hold window.
        assert world.now - start < host.nic.rx_mitigation

    def test_kernel_handler_still_claims_per_frame(self):
        world, host = monitor_world(8)
        claimed = []
        host.kernel.register_ethertype(
            0x0800, lambda nic, frame: claimed.append(frame)
        )
        host.nic.receive(make_frame(world, 0x0800))
        host.nic.receive(make_frame(world, ETHERTYPE))
        world.run()
        assert len(claimed) == 1
        assert host.kernel.stats.packets_unclaimed == 0


class TestBurstOfOne:
    """A one-frame burst is a frame: the same ledger events (packet ids
    and flows included), spans and kernel counters as the per-frame
    receive interrupt."""

    ETHERTYPES = (ETHERTYPE, 0x7777, ETHERTYPE)  # accepted, unclaimed, accepted

    def books(self, world, host):
        ledger = world.ledger
        return (
            [astuple(event) for event in ledger.events],
            {pid: astuple(span) for pid, span in ledger.spans.items()},
            host.kernel.stats,
        )

    def receive_each(self, rx_batch, hand_up):
        world, host = monitor_world(rx_batch, ledger=True)
        for n, ethertype in enumerate(self.ETHERTYPES):
            hand_up(host, make_frame(world, ethertype, bytes([n]) * 8))
            world.run()
        return world, host

    def test_kernel_burst_of_one_matches_network_input(self):
        per_frame = self.receive_each(
            1, lambda host, frame: host.kernel.network_input(host.nic, frame)
        )
        burst = self.receive_each(
            1,
            lambda host, frame: host.kernel.network_input_batch(
                host.nic, [frame]
            ),
        )
        assert per_frame[1].kernel.stats.packets_unclaimed == 1
        assert self.books(*burst) == self.books(*per_frame)

    def test_batching_nic_hands_a_lone_frame_up_as_a_frame(self):
        def queue(host, frame):
            host.nic.receive(frame)

        per_frame = self.receive_each(1, queue)
        batching = self.receive_each(8, queue)
        assert per_frame[1].kernel.stats.interrupts == 3
        assert self.books(*batching) == self.books(*per_frame)
