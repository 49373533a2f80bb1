"""Unit tests for the rx ring, DMA engine and IGB driver model."""

import pytest

from repro.net.packet import Frame
from repro.net.traffic import ConstantStream


class TestRxRing:
    def test_buffers_page_aligned(self, nic_machine):
        for buffer in nic_machine.ring.buffers:
            assert buffer.page_paddr % 4096 == 0
            assert buffer.page_offset == 0

    def test_advance_wraps(self, nic_machine):
        ring = nic_machine.ring
        n = len(ring)
        first = ring.next_buffer()
        for _ in range(n):
            ring.advance()
        assert ring.next_buffer() is first

    def test_fill_count_monotonic(self, nic_machine):
        ring = nic_machine.ring
        ring.advance()
        ring.advance()
        assert ring.fill_count == 2

    def test_replace_buffer_frees_old_page(self, nic_machine):
        ring = nic_machine.ring
        old = ring.buffers[3].page_paddr
        free_before = nic_machine.physmem.free_frames
        new = ring.replace_buffer(3)
        assert new.page_paddr != old
        assert nic_machine.physmem.free_frames == free_before

    def test_shuffle_changes_order_not_pages(self, nic_machine):
        ring = nic_machine.ring
        pages_before = set(ring.page_paddrs())
        order_before = ring.order_fingerprint()
        ring.shuffle_order()
        assert set(ring.page_paddrs()) == pages_before
        assert ring.order_fingerprint() != order_before

    def test_buffer_flip(self, nic_machine):
        buffer = nic_machine.ring.buffers[0]
        base = buffer.dma_paddr
        buffer.flip(2048)
        assert buffer.dma_paddr == base + 2048
        buffer.flip(2048)
        assert buffer.dma_paddr == base


class TestNicDma:
    def test_frame_blocks_land_in_llc(self, nic_machine):
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=256, protocol="broadcast"))
        llc = nic_machine.llc
        for k in range(4):
            assert llc.is_resident(buffer.page_paddr + k * 64)

    def test_blocks_written_counted(self, nic_machine):
        nic_machine.nic.deliver(Frame(size=192, protocol="broadcast"))
        assert nic_machine.nic.stats.blocks_written == 3

    def test_oversize_frame_dropped(self, nic_machine):
        nic_machine.nic.deliver(Frame(size=4000, protocol="broadcast"))
        assert nic_machine.nic.stats.oversize_dropped == 1
        assert nic_machine.ring.fill_count == 0

    def test_buffers_fill_in_ring_order(self, nic_machine):
        nic_machine.driver.log_receives = True
        for _ in range(5):
            nic_machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        slots = [r.ring_slot for r in nic_machine.driver.receive_log]
        assert slots == [0, 1, 2, 3, 4]

    def test_no_ddio_defers_driver_receive(self, scaled_config):
        from repro.core.config import DDIOConfig
        from repro.core.machine import Machine

        scaled_config.ddio = DDIOConfig(enabled=False)
        machine = Machine(scaled_config)
        machine.install_nic()
        machine.nic.deliver(Frame(size=64, protocol="tcp"))
        assert machine.driver.stats.frames == 0  # interrupt still pending
        machine.idle(machine.llc.timing.io_to_driver_latency + 1)
        assert machine.driver.stats.frames == 1


class TestIgbDriver:
    def test_broadcast_discarded_after_header(self, nic_machine):
        nic_machine.nic.deliver(Frame(size=1500, protocol="broadcast"))
        stats = nic_machine.driver.stats
        assert stats.discarded == 1
        assert stats.page_flips == 0  # no skb was built

    def test_small_packet_copied_buffer_reused(self, nic_machine):
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=128, protocol="tcp"))
        assert nic_machine.driver.stats.copied == 1
        assert buffer.page_offset == 0  # reused as-is

    def test_large_packet_flips_half_page(self, nic_machine):
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        assert nic_machine.driver.stats.fragged == 1
        assert buffer.page_offset == 2048

    def test_copy_threshold_boundary(self, nic_machine):
        threshold = nic_machine.config.ring.copy_threshold
        nic_machine.nic.deliver(Frame(size=threshold, protocol="tcp"))
        assert nic_machine.driver.stats.copied == 1
        nic_machine.nic.deliver(Frame(size=threshold + 1, protocol="tcp"))
        assert nic_machine.driver.stats.fragged == 1

    def test_header_prefetch_touches_block1(self, nic_machine):
        """Even a 1-block frame loads block 1 — the Fig. 8 anomaly."""
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        assert nic_machine.llc.is_resident(buffer.page_paddr + 64)

    def test_shared_page_forces_replacement(self, scaled_config):
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(shared_page_prob=1.0)
        machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        assert machine.driver.stats.buffers_replaced == 1
        assert machine.driver.stats.page_flips == 0

    def test_receive_log_records_symbols(self, scaled_config):
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(log_receives=True)
        machine.nic.deliver(Frame(size=192, protocol="broadcast", symbol=1))
        record = machine.driver.receive_log[0]
        assert record.symbol == 1
        assert record.n_blocks == 3


class TestRxWraparound:
    def test_ring_wraparound_alternates_half_pages(self, scaled_config):
        """Across ring laps each buffer's DMA target alternates between the
        two 2 KB halves of its page (flip on every large-frame reuse)."""
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(log_receives=True)
        n = scaled_config.ring.n_descriptors
        for _ in range(3 * n):
            machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        log = machine.driver.receive_log
        assert len(log) == 3 * n
        for lap in range(3):
            for slot in range(n):
                rec = log[lap * n + slot]
                assert rec.ring_slot == slot
                assert rec.dma_paddr == rec.page_paddr + (lap % 2) * 2048
        assert machine.driver.stats.page_flips == 3 * n

    def test_small_copy_reuses_buffer_without_flip(self, scaled_config):
        """Small frames memcpy out of the buffer; across laps the same slot
        keeps DMA-ing into the same half-page (no flip, no replacement)."""
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(log_receives=True)
        n = scaled_config.ring.n_descriptors
        for _ in range(2 * n):
            machine.nic.deliver(Frame(size=128, protocol="tcp"))
        log = machine.driver.receive_log
        for slot in range(n):
            assert log[slot].dma_paddr == log[n + slot].dma_paddr
        stats = machine.driver.stats
        assert stats.copied == 2 * n
        assert stats.page_flips == 0
        assert stats.buffers_replaced == 0

    def test_small_copy_fills_skb_lines(self, nic_machine):
        """The copy path writes one skb line per frame block."""
        driver = nic_machine.driver
        start = driver._skb_cursor
        nic_machine.nic.deliver(Frame(size=256, protocol="tcp"))
        assert driver._skb_cursor - start == 4
        nic_machine.nic.deliver(Frame(size=64, protocol="tcp"))
        assert driver._skb_cursor - start == 5

    def test_skb_slab_cursor_wraps(self, nic_machine):
        """The recycled skb slab wraps rather than growing without bound."""
        driver = nic_machine.driver
        wrap = driver._skb_lines
        for _ in range(wrap // 4 + 8):
            nic_machine.nic.deliver(Frame(size=256, protocol="tcp"))
        assert driver._skb_cursor > wrap  # wrapped at least once
        # The slab footprint in the cache never exceeds the slab itself.
        resident = sum(
            1
            for p in driver._skb_paddrs.tolist()
            if nic_machine.llc.is_resident(p)
        )
        assert 0 < resident <= wrap


class TestHeavyFaultRx:
    def test_heavy_fault_stream_is_sane(self):
        """The batched datapath under the heavy fault profile: drops,
        stalls and co-runner noise engage, nothing wedges or miscounts."""
        import random

        from repro.core.config import MachineConfig
        from repro.core.machine import Machine
        from repro.faults.profiles import get_profile
        from repro.net.traffic import PoissonNoise

        cfg = MachineConfig().scaled_down()
        cfg.faults = get_profile("heavy")
        machine = Machine(cfg)
        machine.install_nic(log_receives=True)
        source = PoissonNoise(
            rate_pps=300_000.0, rng=random.Random(11), count=400
        )
        source.attach(machine, machine.nic)
        machine.run_events_until(machine.clock.now + machine.clock.cycles(0.02))
        nic, drv = machine.nic.stats, machine.driver.stats
        # Injected drops happen upstream of the NIC; overflow at the NIC.
        assert source.sent < 400
        assert nic.frames == source.sent - nic.oversize_dropped - nic.overflow_dropped
        assert drv.frames == len(machine.driver.receive_log)
        # Stalled receives are deferred, not lost.
        assert drv.frames + len(machine.events) >= nic.frames


class TestStatsReduction:
    def test_nic_and_driver_stats_merge_delta(self, nic_machine):
        """NicStats/DriverStats reduce exactly like CacheStats (satellite:
        shared CounterStats machinery)."""
        from repro.nic.driver import DriverStats
        from repro.nic.nic import NicStats

        for size in (64, 1500, 300):
            nic_machine.nic.deliver(Frame(size=size, protocol="tcp"))
        before = nic_machine.driver.stats.snapshot()
        baseline = DriverStats.from_snapshot(before)
        nic_machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        delta = nic_machine.driver.stats.delta(baseline)
        assert delta.frames == 1 and delta.fragged == 1 and delta.copied == 0

        a = NicStats(frames=3, blocks_written=40)
        b = NicStats(frames=2, blocks_written=10, overflow_dropped=1)
        merged = NicStats().merge(a).merge(b.snapshot())
        assert merged == NicStats(frames=5, blocks_written=50, overflow_dropped=1)
        a.reset()
        assert a == NicStats()


class TestRxPathCounters:
    """``path.rx.*`` records which rx path each frame took and why a
    traffic drain could not batch."""

    N_FRAMES = 40

    def _counters(self, ddio: bool) -> dict[str, int]:
        from dataclasses import replace

        from repro.core.config import DDIOConfig, MachineConfig
        from repro.core.machine import Machine
        from repro.telemetry.context import Telemetry

        telemetry = Telemetry.create(trace=False, metrics=True)
        config = replace(MachineConfig().scaled_down(), ddio=DDIOConfig(enabled=ddio))
        machine = Machine(config, telemetry=telemetry)
        machine.install_nic()
        source = ConstantStream(
            size=1514, rate_pps=200_000.0, count=self.N_FRAMES, protocol="tcp"
        )
        source.attach(machine, machine.nic)
        machine.drain_events()
        assert machine.driver.stats.frames == self.N_FRAMES
        counters = telemetry.metrics.snapshot()["counters"]
        return {k: v for k, v in counters.items() if k.startswith("path.rx.")}

    def test_ddio_off_counts_direct_frames_and_decline(self):
        counters = self._counters(ddio=False)
        assert set(counters) == {"path.rx.direct", "path.rx.decline.ddio_off"}
        assert counters["path.rx.direct"] == self.N_FRAMES
        assert counters["path.rx.decline.ddio_off"] >= 1

    def test_ddio_on_drain_counts_burst_frames(self):
        assert self._counters(ddio=True) == {"path.rx.burst": self.N_FRAMES}

    def test_one_predicate_names_every_decline(self):
        """``Nic.can_batch`` and ``SlicedLLC.rx_burst`` share one policy
        predicate; the burst kernel refuses what it cannot model."""
        from dataclasses import replace

        import numpy as np

        from repro.cache.hierarchy import CacheHierarchy
        from repro.core.config import DDIOConfig, MachineConfig
        from repro.core.machine import Machine
        from repro.defense.partitioning import AdaptivePartition
        from repro.faults.profiles import get_profile

        base = MachineConfig().scaled_down()
        cases = {
            None: (base, None),
            "faults": (replace(base, faults=get_profile("light")), None),
            "ddio_off": (replace(base, ddio=DDIOConfig(enabled=False)), None),
            "partition": (base, lambda m: AdaptivePartition().install(m)),
            "hook": (base, lambda m: CacheHierarchy(m.llc)),
            "backend": (replace(base, cache_backend="keyed:epoch=1000"), None),
        }
        empty = np.zeros(0, dtype=np.int64)
        for reason, (config, setup) in cases.items():
            machine = Machine(config)
            machine.install_nic()
            if setup is not None:
                setup(machine)
            assert machine.nic.can_batch() == (reason is None), reason
            llc_reason = machine.llc.rx_burst_decline()
            assert llc_reason == (None if reason == "faults" else reason)
            if llc_reason is not None:
                with pytest.raises(ValueError, match=llc_reason):
                    machine.llc.rx_burst(empty, empty, empty, empty, 0, 0)


class TestTrafficSources:
    def test_constant_stream_delivers_count(self, nic_machine):
        source = ConstantStream(size=64, rate_pps=1e6, count=10)
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.drain_events()
        assert nic_machine.nic.stats.frames == 10

    def test_line_rate_enforced(self, nic_machine):
        """Asking for 10 Mpps of 1514-byte frames is capped by the wire."""
        source = ConstantStream(size=1514, rate_pps=1e7, count=50, protocol="tcp")
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.drain_events()
        elapsed = nic_machine.clock.seconds()
        max_rate = nic_machine.config.link.max_frame_rate(1514)
        assert 50 / elapsed <= max_rate * 1.01

    def test_pattern_stream_order(self, nic_machine):
        from repro.net.traffic import PatternStream

        nic_machine.driver.log_receives = True
        source = PatternStream([64, 192, 256], rate_pps=1e5, symbols=[0, 1, 2])
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.drain_events()
        assert [r.symbol for r in nic_machine.driver.receive_log] == [0, 1, 2]

    def test_stop_halts_stream(self, nic_machine):
        source = ConstantStream(size=64, rate_pps=1e5, count=100)
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.idle(int(3.3e9 / 1e5 * 5))
        source.stop()
        delivered = nic_machine.nic.stats.frames
        nic_machine.drain_events()
        assert nic_machine.nic.stats.frames <= delivered + 1

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            ConstantStream(size=64, rate_pps=0)
