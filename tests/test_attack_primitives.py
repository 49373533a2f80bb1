"""Tests for the attacker's primitives: calibration, eviction sets, probes."""

import pytest

from repro.attack.evictionset import (
    EvictionSet,
    EvictionSetBuilder,
    OracleEvictionSetBuilder,
    page_aligned_set_indices,
)
from repro.attack.groundtruth import flat_set_of_eviction_set
from repro.attack.primeprobe import ProbeMonitor
from repro.attack.timing import calibrate_threshold


class TestCalibration:
    def test_threshold_separates_hit_and_miss(self, spy):
        t = calibrate_threshold(spy)
        assert t.hit_mean < t.threshold < t.miss_mean

    def test_classification(self, spy):
        t = calibrate_threshold(spy)
        assert t.is_miss(int(t.miss_mean))
        assert not t.is_miss(int(t.hit_mean))

    def test_too_few_samples_rejected(self, spy):
        with pytest.raises(ValueError):
            calibrate_threshold(spy, samples=2)


class TestPageAlignedIndices:
    def test_paper_geometry_gives_32_indices(self):
        from repro.core.config import CacheGeometry

        indices = page_aligned_set_indices(CacheGeometry())
        assert len(indices) == 32
        assert indices[0] == 0 and indices[1] == 64

    def test_scaled_geometry(self, nic_machine):
        indices = page_aligned_set_indices(nic_machine.llc.geometry)
        assert len(indices) == 4  # 256 sets / 64


class TestOracleBuilder:
    def test_groups_target_correct_sets(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.groups_for_index(64)
        llc = nic_machine.llc
        for slice_id, es in groups.items():
            for vaddr in es.addrs:
                paddr = spy.addrspace.translate(vaddr)
                assert llc.set_index_of(paddr) == 64
                assert llc.slice_of(paddr) == slice_id

    def test_group_has_full_associativity(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        es = builder.group_for(0, 0)
        assert len(es) == nic_machine.llc.geometry.ways

    def test_page_aligned_bulk_covers_all_classes(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()
        geometry = nic_machine.llc.geometry
        assert len(groups) == 4 * geometry.n_slices


def _scalar_groups_for_index(builder, set_index):
    """The per-address placement loop ``groups_for_index`` replaced, kept
    as the reference: translate and hash one candidate at a time."""
    from collections import defaultdict

    by_slice = defaultdict(list)
    total = builder.n_huge_pages * builder.huge_page_bytes
    offset = set_index * builder._line
    while offset < total:
        vaddr = builder.base + offset
        paddr = builder.process.addrspace.translate(vaddr)
        by_slice[builder.llc.slice_hash.slice_of(paddr)].append(vaddr)
        offset += builder._index_span
    return {
        slice_id: (addrs[: builder.ways], f"idx{set_index}.s{slice_id}")
        for slice_id, addrs in sorted(by_slice.items())
        if len(addrs) >= builder.ways
    }


class TestVectorisedPlacement:
    @pytest.mark.parametrize(
        "hash_kind,ways", [("intel", None), ("modulo", None), ("intel", 4)]
    )
    def test_groups_match_scalar_placement(
        self, nic_machine, spy, threshold, hash_kind, ways
    ):
        from repro.cache.slicehash import ModuloSliceHash

        llc = nic_machine.llc
        if hash_kind == "modulo":
            # Placement reads only ``llc.slice_hash``, so swapping it is
            # enough to exercise another hash family.
            llc.slice_hash = ModuloSliceHash(llc.geometry.n_slices)
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=3, ways=ways)
        for set_index in (0, 1, 63, 64, 200, llc.geometry.sets_per_slice - 1):
            groups = builder.groups_for_index(set_index)
            expected = _scalar_groups_for_index(builder, set_index)
            assert list(groups) == list(expected)
            for slice_id, es in groups.items():
                addrs, label = expected[slice_id]
                assert es.addrs == addrs
                assert all(type(a) is int for a in es.addrs)
                assert es.label == label
                assert es.set_index == set_index


class TestTimingBuilder:
    def test_eviction_set_evicts_victim(self, nic_machine, spy, threshold):
        builder = EvictionSetBuilder(spy, threshold, huge_pages=4)
        pool = builder.candidates(0)
        victim = pool[0]
        assert builder.evicts(pool[1:], victim)

    def test_reduce_finds_minimal_core(self, nic_machine, spy, threshold):
        builder = EvictionSetBuilder(spy, threshold, huge_pages=4)
        pool = builder.candidates(0)
        victim = pool.pop(0)
        core = builder.reduce(pool, victim)
        assert core is not None
        assert len(core) == nic_machine.llc.geometry.ways
        # All core members truly conflict with the victim.
        llc = nic_machine.llc
        victim_set = llc.flat_set_of(spy.addrspace.translate(victim))
        for vaddr in core:
            assert llc.flat_set_of(spy.addrspace.translate(vaddr)) == victim_set

    def test_reduce_fails_without_conflicts(self, nic_machine, spy, threshold):
        builder = EvictionSetBuilder(spy, threshold, huge_pages=4)
        few = builder.candidates(0)[:3]  # far below associativity
        victim = builder.candidates(64)[0]
        assert builder.reduce(few, victim) is None

    def test_cluster_index_separates_slices(self, nic_machine, spy, threshold):
        builder = EvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.cluster_index(0, n_groups=4)
        assert len(groups) == 4
        llc = nic_machine.llc
        flats = set()
        for es in groups:
            flat_ids = {
                llc.flat_set_of(spy.addrspace.translate(v)) for v in es.addrs
            }
            assert len(flat_ids) == 1  # pure group
            flats |= flat_ids
        assert len(flats) == 4  # distinct slices

    def test_conflicts_detects_same_set(self, nic_machine, spy, threshold):
        builder = EvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.cluster_index(0, n_groups=2)
        es = groups[0]
        member_set = flat_set_of_eviction_set(spy, es)
        llc = nic_machine.llc
        same = [
            v
            for v in builder.candidates(0)
            if llc.flat_set_of(spy.addrspace.translate(v)) == member_set
            and v not in es.addrs
        ]
        other = [
            v
            for v in builder.candidates(64)
            if llc.flat_set_of(spy.addrspace.translate(v)) != member_set
        ]
        assert builder.conflicts(es, same[0])
        assert not builder.conflicts(es, other[0])


class TestEvictionSetProbing:
    def test_probe_clean_after_prime(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        es = builder.group_for(0, 0)
        es.prime()
        assert es.probe() == 0

    def test_probe_detects_io_fill(self, nic_machine, spy, threshold):
        from repro.net.packet import Frame

        # Monitor the set of the next rx buffer's first block.
        buffer = nic_machine.ring.next_buffer()
        llc = nic_machine.llc
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        es = builder.group_for(
            llc.set_index_of(buffer.dma_paddr), llc.slice_of(buffer.dma_paddr)
        )
        es.prime()
        assert es.probe() == 0
        nic_machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        assert es.probe() >= 1

    def test_probe_is_self_repriming(self, nic_machine, spy, threshold):
        from repro.net.packet import Frame

        buffer = nic_machine.ring.next_buffer()
        llc = nic_machine.llc
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        es = builder.group_for(
            llc.set_index_of(buffer.dma_paddr), llc.slice_of(buffer.dma_paddr)
        )
        es.prime()
        nic_machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        assert es.probe() >= 1
        assert es.probe() == 0  # the probe re-primed the set

    def test_empty_eviction_set_rejected(self, spy, threshold):
        with pytest.raises(ValueError):
            EvictionSet(spy, [], threshold)


class TestProbeMonitor:
    def test_sample_shape(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()[:6]
        monitor = ProbeMonitor(spy, groups)
        trace = monitor.sample(10, wait_cycles=1000)
        assert trace.n_samples == 10
        assert trace.n_sets == 6
        assert len(trace.times) == 10

    def test_activity_counts(self, nic_machine, spy, threshold):
        from repro.net.traffic import ConstantStream

        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()
        monitor = ProbeMonitor(spy, groups)
        source = ConstantStream(size=64, rate_pps=2e5, protocol="broadcast")
        source.attach(nic_machine, nic_machine.nic)
        trace = monitor.sample(60, wait_cycles=20_000)
        source.stop()
        assert sum(trace.activity_counts()) > 0

    def test_empty_monitor_rejected(self, spy):
        with pytest.raises(ValueError):
            ProbeMonitor(spy, [])

    def test_zero_samples_rejected(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        monitor = ProbeMonitor(spy, builder.build_page_aligned_groups()[:2])
        with pytest.raises(ValueError):
            monitor.sample(0)
