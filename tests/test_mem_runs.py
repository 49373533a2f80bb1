"""Differential suite: victim memory runs against one access at a time.

``MemAgent.read`` / ``write`` / ``read_kernel`` issue a run of lines
through :meth:`CacheHierarchy.access_run`, one kernel call per segment
between pending events.  Each case builds two mirrored machines and drives
them through the same calls: one with the agent's runs, the other with
the per-access loop written out below as the reference (one event drain,
one translation and one L1-then-LLC access per line).  The two must agree
on a *trace*, not just on totals: the start cycle of every LLC access, the
machine state each time events fire, each run's returned latency, and
after every run each L1 set's lines and flags in LRU order, the L1 and LLC
stats, DRAM traffic, the packed LLC engine, the event heap, the ring and
the partition defense's lazy presence state.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cache.cacheset import LINE_DIRTY
from repro.core.config import DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.defense.randomization import FullRandomizer
from repro.net.packet import Frame
from repro.perf.agent import MemAgent
from repro.perf.workloads import NginxServer
from repro.telemetry import Telemetry

VARIANTS = ("ddio", "no-ddio", "partition", "full-random", "keyed")


# ----------------------------------------------------------------------
# The reference: one access at a time
# ----------------------------------------------------------------------
def reference_hierarchy_access(hierarchy, paddr: int, write: bool, now: int):
    """L1 lookup, then on a miss the LLC access, L1 fill and dirty-victim
    writeback, one line at a time."""
    l1, llc = hierarchy.l1, hierarchy.llc
    if l1.access(paddr, write):
        return True, hierarchy.timing.l1_hit_latency
    _hit, llc_latency = llc.cpu_access(paddr, write=write, now=now)
    evicted = l1.fill(paddr, write)
    if evicted is not None:
        line_addr, flags = evicted
        if flags & LINE_DIRTY:
            victim_paddr = line_addr << llc.geometry.offset_bits
            llc.sets[llc.flat_set_of(victim_paddr)].touch(line_addr, set_dirty=True)
    return False, hierarchy.timing.l1_hit_latency + llc_latency


def reference_access(agent: MemAgent, addr: int, write: bool, kernel: bool) -> int:
    """Drain due events, translate, access, advance the clock."""
    machine = agent.machine
    machine.events.run_due(machine.clock.now)
    paddr = addr if kernel else agent.process.addrspace.translate(addr)
    _hit, latency = reference_hierarchy_access(
        agent.hierarchy, paddr, write, machine.clock.now
    )
    machine.clock.advance(latency)
    agent.cycles_spent += latency
    return latency


# ----------------------------------------------------------------------
# Mirrored rigs
# ----------------------------------------------------------------------
class Rig:
    """A machine with one victim agent, driven by runs or per access."""

    def __init__(self, variant: str, reference: bool, metrics: bool = True) -> None:
        cfg = MachineConfig().scaled_down()
        cfg.ddio = DDIOConfig(enabled=variant != "no-ddio")
        if variant == "keyed":
            cfg.cache_backend = "keyed:epoch=500"
        self.telemetry = Telemetry.create(trace=False, metrics=True) if metrics else None
        self.machine = machine = Machine(cfg, telemetry=self.telemetry)
        machine.install_nic()
        self.partition = None
        if variant == "partition":
            self.partition = AdaptivePartition()
            self.partition.install(machine)
        if variant == "full-random":
            machine.driver.randomizer = FullRandomizer()
        self.agent = MemAgent(machine, "victim")
        self.reference = reference
        self.trace: list[tuple] = []
        self.states: list[dict] = []
        self._record_trace()

    def _record_trace(self) -> None:
        machine = self.machine
        llc, events = machine.llc, machine.events
        cpu_access, run_due = llc.cpu_access, events.run_due
        trace = self.trace

        def traced_cpu_access(paddr, write=False, now=0):
            trace.append(("llc", paddr, write, now))
            return cpu_access(paddr, write, now)

        def traced_run_due(now):
            due = events.peek_time()
            if due is not None and due <= now:
                trace.append(("events", now, self.digest()))
            return run_due(now)

        llc.cpu_access = traced_cpu_access
        events.run_due = traced_run_due

    def run(self, op: str, addr: int, lines: int) -> int:
        agent = self.agent
        if not self.reference:
            return getattr(agent, op)(addr, lines=lines)
        write, kernel = op == "write", op == "read_kernel"
        step = self.machine.llc.geometry.line_size
        return sum(
            reference_access(agent, addr + i * step, write, kernel) for i in range(lines)
        )

    def schedule_packets(self, first: int, spacing: int, count: int) -> None:
        machine = self.machine
        for k in range(count):
            machine.events.schedule(
                first + k * spacing,
                lambda: machine.nic.deliver(Frame(size=256, protocol="tcp")),
            )

    def state(self) -> dict:
        machine = self.machine
        llc, l1 = machine.llc, self.agent.hierarchy.l1
        engine = llc.engine
        ring = machine.ring
        part = self.partition
        heap = machine.events._heap
        return {
            "clock": machine.clock.now,
            "cycles_spent": self.agent.cycles_spent,
            "l1_sets": [tuple(s.lines.items()) for s in l1.sets],
            "l1_stats": dataclasses.asdict(l1.stats),
            "llc_stats": dataclasses.asdict(llc.stats),
            "traffic": (llc.traffic.reads, llc.traffic.writes),
            "tags": engine.tags.tobytes(),
            "flags": engine.flags.tobytes(),
            "stamps": engine.stamps.tobytes(),
            "tick": engine._tick,
            "sizes": list(engine._size),
            "access_count": llc._access_count,
            "mapping": dataclasses.asdict(llc.mapping.stats),
            "events": sorted((e.time, e.seq) for e in heap if not e.cancelled),
            "ring": (ring.head, [b.dma_paddr for b in ring.buffers]),
            "partition": None
            if part is None
            else (
                list(part._quota.items()),
                part._default_quota,
                list(part._presence.items()),
                list(part._io_since.items()),
                part._period_start,
                dataclasses.asdict(part.stats),
            ),
            "trace": list(self.trace),
        }

    def digest(self) -> str:
        return hashlib.blake2b(repr(self.state()).encode(), digest_size=16).hexdigest()

    def checkpoint(self) -> None:
        self.states.append(self.state())


def mirrored(variant: str, metrics: bool = True) -> tuple[Rig, Rig]:
    return Rig(variant, reference=False, metrics=metrics), Rig(
        variant, reference=True, metrics=metrics
    )


def assert_same(fast: Rig, ref: Rig) -> None:
    fast.checkpoint()
    ref.checkpoint()
    assert len(fast.states) == len(ref.states)
    for i, (a, b) in enumerate(zip(fast.states, ref.states)):
        # Name the first differing field only: a diff of the packed
        # arrays would take pytest minutes to render.
        diff = next((key for key in b if a[key] != b[key]), None)
        assert diff is None, f"checkpoint {i}: {diff} differs"


def path_counters(rig: Rig) -> dict[str, int]:
    counters = rig.telemetry.metrics.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("path.mem_run.")}


# ----------------------------------------------------------------------
# The matrix: every variant x {read, write}
# ----------------------------------------------------------------------
def mixed_runs(rig: Rig, op: str) -> list[int]:
    machine, agent = rig.machine, rig.agent
    page = machine.physmem.page_size
    step = machine.llc.geometry.line_size
    buf = agent.mmap(12)
    rig.schedule_packets(machine.clock.now + 1_500, 3_777, 60)
    out = []

    def run(op, addr, lines):
        out.append(rig.run(op, addr, lines))
        rig.checkpoint()

    run(op, buf + 5 * step, 300)  # cold, crosses four pages
    ring = machine.ring
    run("read_kernel", ring.buffers[(ring.head - 1) % len(ring.buffers)].dma_paddr, 4)
    run(op, buf + page - 100, 6)  # unaligned start, crosses a page
    run(op, buf + 5 * step, 300)  # partly L1-warm
    machine.idle(5_000)
    run(op, buf, 12 * page // step)  # overflows the L1: evictions, writebacks
    run("read", buf + 3 * page, 2 * page // step)
    run(op, buf + 7, 1)
    return out


@pytest.mark.parametrize("op", ["read", "write"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_runs_match_per_access(variant, op):
    fast, ref = mirrored(variant)
    out = [mixed_runs(rig, op) for rig in (fast, ref)]
    assert out[0] == out[1]
    assert_same(fast, ref)
    # The runs really were cut by events, and only the agent counts them.
    counters = path_counters(fast)
    assert counters["path.mem_run.event_splits"] > 0
    assert counters["path.mem_run.lines"] > 1_500
    assert path_counters(ref) == {}


def test_telemetry_off_matches():
    fast, ref = mirrored("partition", metrics=False)
    out = [mixed_runs(rig, "write") for rig in (fast, ref)]
    assert out[0] == out[1]
    assert_same(fast, ref)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_run_crosses_adapt_event_and_packet():
    fast, ref = mirrored("partition")
    outs = []
    for rig in (fast, ref):
        machine = rig.machine
        buf = rig.agent.mmap(4)
        adapt_at = machine.events.peek_time()
        machine.idle(adapt_at - 300 - machine.clock.now)
        rig.schedule_packets(adapt_at + 500, 1, 1)
        before = rig.partition.stats.adaptations
        outs.append(rig.run("read", buf, 256))
        rig.checkpoint()
        assert rig.partition.stats.adaptations > before
        assert machine.nic.stats.frames == 1
    assert outs[0] == outs[1]
    assert_same(fast, ref)
    assert path_counters(fast)["path.mem_run.event_splits"] >= 2


@pytest.mark.parametrize("offset", [0, 64 * 61, 4096 - 100])
def test_run_crosses_page_boundary(offset):
    fast, ref = mirrored("ddio")
    outs = []
    for rig in (fast, ref):
        agent = rig.agent
        buf = agent.mmap(3)
        translate = agent.process.addrspace.translate
        # Frames are random, so a run that ignored page boundaries would
        # touch the wrong physical lines.
        assert translate(buf + 4096) != translate(buf) + 4096
        outs.append(rig.run("read", buf + offset, 70))
        rig.checkpoint()
        outs.append(rig.run("write", buf + offset, 70))
        rig.checkpoint()
    assert outs[:2] == outs[2:]
    assert_same(fast, ref)


def test_dirty_l1_victim_written_back():
    fast, ref = mirrored("ddio")
    for rig in (fast, ref):
        agent, llc = rig.agent, rig.machine.llc
        buf = agent.mmap(16)
        rig.run("read", buf, 8)  # clean in the LLC
        rig.run("write", buf, 8)  # L1 write hits: dirty only in the L1
        rig.checkpoint()
        paddr = agent.process.addrspace.translate(buf)
        line = paddr >> 6
        assert not llc.sets[llc.flat_set_of(paddr)].flags_of(line) & LINE_DIRTY
        rig.run("read", buf + 4096, 15 * 64)  # evicts every L1 line
        rig.checkpoint()
        assert llc.sets[llc.flat_set_of(paddr)].flags_of(line) & LINE_DIRTY
    assert_same(fast, ref)


def test_llc_eviction_back_invalidates_the_set_being_filled():
    """The LLC fill's victim sits in the L1 set the new line goes to; the
    L1 must fill after ``cpu_access`` returns, or it evicts a second line."""
    fast, ref = mirrored("ddio")
    for rig in (fast, ref):
        llc = rig.machine.llc
        l1 = rig.agent.hierarchy.l1
        assert l1.ways == llc.geometry.ways
        base = 0x4000_0000
        target = llc.flat_set_of(base)
        stride = llc.geometry.sets_per_slice * llc.geometry.line_size
        same_set = [
            p
            for p in range(base, base + 400 * stride, stride)
            if llc.flat_set_of(p) == target
        ][: l1.ways + 1]
        *fill, newcomer = same_set
        for p in fill:  # fills the LLC set and the L1 set
            rig.run("read_kernel", p, 1)
        rig.run("read_kernel", fill[0], 1)  # L1 MRU, still LLC LRU
        rig.checkpoint()
        rig.run("read_kernel", newcomer, 1)
        rig.checkpoint()
        lines = l1.set_of(newcomer).lines
        assert fill[0] >> 6 not in lines  # back-invalidated by the LLC
        assert fill[1] >> 6 in lines  # the L1's own LRU survives
        assert newcomer >> 6 in lines
    assert_same(fast, ref)


def test_unmapped_page_mid_run_faults_at_the_same_access():
    def setup(rig):
        buf = rig.agent.mmap(2)  # the next page is unmapped
        rig.schedule_packets(rig.machine.clock.now + 900, 2_100, 40)
        return buf

    probe = Rig("no-ddio", reference=True)
    buf = setup(probe)
    with pytest.raises(ValueError):
        probe.run("read", buf + 64, 140)
    fault_at = probe.machine.clock.now

    fast, ref = mirrored("no-ddio")
    for rig in (fast, ref):
        buf = setup(rig)
        # A packet due exactly at the faulting access: it must land first.
        rig.schedule_packets(fault_at, 1, 1)
        with pytest.raises(ValueError, match="unmapped"):
            rig.run("read", buf + 64, 140)
        assert rig.machine.clock.now == fault_at
        assert ("events", fault_at) in [entry[:2] for entry in rig.trace]
        assert rig.agent.hierarchy.l1.stats.cpu_accesses == 127
        rig.checkpoint()
    assert_same(fast, ref)


# ----------------------------------------------------------------------
# Coverage: Nginx issues its traffic as runs
# ----------------------------------------------------------------------
def test_nginx_requests_go_through_multi_line_runs():
    telemetry = Telemetry.create(trace=False, metrics=True)
    machine = Machine(MachineConfig().scaled_down(), telemetry=telemetry)
    machine.install_nic()
    AdaptivePartition().install(machine)
    server = NginxServer(machine)
    for _ in range(20):
        server.handle_request()
    counters = telemetry.metrics.snapshot()["counters"]
    l1 = server.agent.hierarchy.l1.stats
    assert counters["path.mem_run.lines"] >= 0.9 * l1.cpu_accesses
    assert counters["path.mem_run.runs"] >= 20 * 3
