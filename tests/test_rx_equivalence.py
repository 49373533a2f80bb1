"""Differential equivalence: production rx datapath vs the frozen scalar one.

The production NIC and driver issue the per-frame path as plain scalar
calls after one shared decision function, and drain frame bursts through
a cross-frame round kernel.  This harness pins the claim that neither is
observable: a machine running the frozen scalar path
(:mod:`repro.nic.legacy`, ``allow_bursts=False``) and a machine running
the production path with bursts enabled replay the same randomized
workload — mixed frame sizes and protocols, spy probe sweeps interleaved —
and must finish with bit-identical cache state, cache/NIC/driver stats,
receive logs, probe latency traces, and clock values.

The configuration matrix crosses {DDIO on/off} x {faults off/heavy} x
{partition off/on}, plus ring randomization (partial and full), a keyed
index that re-keys mid-frame, a skewed index, an attached L1 hierarchy
(the back-invalidation hook) and shared-page replacement draws; over the
full matrix more than 10k randomized frames are replayed per side.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core.config import DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition, PartitionConfig
from repro.faults.profiles import get_profile
from repro.net.packet import Frame
from repro.net.traffic import PoissonNoise, TrafficSource
from repro.perf.agent import MemAgent

SIZES = [60, 64, 120, 128, 192, 256, 300, 512, 700, 1024, 1200, 1400, 1514]


class MixedStream(TrafficSource):
    """Randomized sizes, gaps and protocols from a private seeded RNG."""

    def __init__(self, seed: int, count: int, rate_pps: float) -> None:
        super().__init__()
        self.seed = seed
        self.count = count
        self.rate_pps = rate_pps

    def _frames(self):
        rng = random.Random(self.seed)
        for _ in range(self.count):
            gap = rng.expovariate(self.rate_pps)
            size = rng.choice(SIZES)
            proto = "broadcast" if rng.random() < 0.35 else "tcp"
            yield gap, Frame(size=size, protocol=proto)


def build_machine(
    legacy: bool,
    ddio: bool,
    faults: str,
    partition: bool,
    randomize: bool,
    backend: str = "modulo",
    shared_page_prob: float = 0.0,
    hierarchy: bool = False,
    full_randomize: bool = False,
) -> Machine:
    cfg = MachineConfig().scaled_down()
    cfg.ddio = DDIOConfig(
        enabled=ddio, write_allocate_ways=cfg.ddio.write_allocate_ways
    )
    cfg.faults = get_profile(faults)
    cfg.cache_backend = backend
    m = Machine(cfg)
    m.install_nic(
        shared_page_prob=shared_page_prob, log_receives=True, legacy=legacy
    )
    m.allow_bursts = not legacy
    if partition:
        AdaptivePartition(PartitionConfig(period=100_000)).install(m)
    if randomize:
        from repro.defense.randomization import PartialRandomizer

        m.driver.randomizer = PartialRandomizer(interval=16, rng=random.Random(5))
    if full_randomize:
        from repro.defense.randomization import FullRandomizer

        m.driver.randomizer = FullRandomizer()
    # A victim reading through a private L1 installs the LLC's
    # back-invalidation evict_hook, as the perf workloads do.
    m.victim = MemAgent(m, "victim") if hierarchy else None
    return m


def run_workload(m: Machine, seed: int, n_frames: int) -> list[int]:
    """Attach sources, interleave spy probe sweeps, return the probe trace."""
    src = MixedStream(seed, count=n_frames - n_frames // 4, rate_pps=400_000.0)
    src.attach(m, m.nic)
    noise = PoissonNoise(
        rate_pps=120_000.0, rng=random.Random(seed + 1), count=n_frames // 4
    )
    noise.attach(m, m.nic)
    spy = m.new_process("spy")
    vbase = spy.mmap(8)
    victim = m.victim
    if victim is not None:
        victim_base = victim.mmap(8)
    trace: list[int] = []
    for _ in range(12):
        m.idle(80_000)
        for i in range(0, 8 * 4096, 256):
            trace.append(spy.timed_access(vbase + i))
        if victim is not None:
            trace.append(victim.read(victim_base, lines=8 * 4096 // 64))
    # Perpetual actors (the partition's adapt tick, the fault co-runner)
    # reschedule themselves forever, so the queue never empties; run to a
    # horizon generously past the last scheduled frame instead of draining.
    m.run_events_until(m.clock.now + m.clock.cycles(0.05))
    return trace


def full_state(m: Machine):
    geom = m.llc.geometry
    lines = [
        m.llc.engine.lines_in_lru_order(flat)
        for flat in range(geom.n_slices * geom.sets_per_slice)
    ]
    return {
        "llc": m.llc.stats.snapshot(),
        "traffic": (m.llc.traffic.reads, m.llc.traffic.writes),
        "nic": m.nic.stats.snapshot(),
        "driver": m.driver.stats.snapshot(),
        "log": [
            (r.time, r.ring_slot, r.page_paddr, r.dma_paddr, r.n_blocks, r.size)
            for r in m.driver.receive_log
        ],
        "ring": m.ring.order_fingerprint(),
        "lines": lines,
        "l1": None
        if m.victim is None
        else [list(s.lines.items()) for s in m.victim.hierarchy.l1.sets],
        "now": m.clock.now,
    }


# (ddio, faults, partition, randomize, n_frames, extra build_machine
# arguments); >= 10k frames in total.
MATRIX = [
    (True, "off", False, False, 2600, {}),
    (True, "off", True, False, 1200, {}),
    (True, "heavy", False, False, 1200, {}),
    (True, "heavy", True, False, 1000, {}),
    (False, "off", False, False, 1200, {}),
    (False, "off", True, False, 1000, {}),
    (False, "heavy", False, False, 1000, {}),
    (False, "heavy", True, False, 1000, {}),
    (True, "off", False, True, 1200, {}),
    # Re-keys every 300 accesses, so they land inside frames (chase-keyed).
    (True, "off", False, False, 800, {"backend": "keyed:epoch=300"}),
    (False, "off", False, False, 600, {"backend": "keyed:epoch=300"}),
    (True, "off", False, False, 800, {"backend": "skewed:partitions=2"}),
    (True, "off", False, False, 800, {"hierarchy": True}),
    (False, "off", False, False, 600, {"hierarchy": True}),
    (True, "off", False, False, 800, {"full_randomize": True}),
    (True, "off", False, False, 800, {"shared_page_prob": 0.5}),
]

assert sum(case[4] for case in MATRIX) >= 10_000


def _case_id(ddio, faults, partition, randomize, extra) -> str:
    base = f"ddio={ddio}-faults={faults}-part={partition}-rand={randomize}"
    return "-".join([base] + [f"{k}={v}" for k, v in extra.items()])


@pytest.mark.parametrize(
    "ddio,faults,partition,randomize,n_frames,extra",
    MATRIX,
    ids=[_case_id(d, f, p, r, x) for d, f, p, r, _, x in MATRIX],
)
def test_rx_datapath_equivalence(
    ddio, faults, partition, randomize, n_frames, extra
):
    seed = (
        1000 * ddio
        + 100 * (faults == "heavy")
        + 10 * partition
        + randomize
        + (zlib.crc32(repr(extra).encode()) if extra else 0)
    )
    legacy = build_machine(True, ddio, faults, partition, randomize, **extra)
    batched = build_machine(False, ddio, faults, partition, randomize, **extra)
    trace_a = run_workload(legacy, seed, n_frames)
    trace_b = run_workload(batched, seed, n_frames)
    assert trace_a == trace_b, "probe latency traces diverged"
    a, b = full_state(legacy), full_state(batched)
    for key in a:
        assert a[key] == b[key], f"{key} diverged"
    # The workload actually delivered frames through the datapath.
    assert batched.nic.stats.frames > 0
    assert batched.driver.stats.frames > 0


def test_bursts_actually_used():
    """The burst drain path really engages on the eligible config (so the
    equivalence above covers it, not just the scalar fallback)."""
    m = build_machine(False, True, "off", False, False)
    drained = []
    src = MixedStream(3, count=200, rate_pps=400_000.0)
    orig = src._drain

    def spy_drain(event, limit):
        drained.append(event.time)
        return orig(event, limit)

    src._drain = spy_drain
    src.attach(m, m.nic)
    m.drain_events()
    assert src.sent == 200
    # Far fewer drain invocations than frames: frames were bursted.
    assert 0 < len(drained) < 200 / 2


def test_burst_window_respects_other_events():
    """A foreign event bounds the drain window: it must fire at its exact
    time relative to frame deliveries, as in the scalar path."""
    order_burst: list[tuple[str, int]] = []
    m = build_machine(False, True, "off", False, False)
    src = MixedStream(9, count=50, rate_pps=400_000.0)
    src.attach(m, m.nic)
    mid = m.clock.now + 60_000
    m.events.schedule(mid, lambda: order_burst.append(("tick", m.clock.now)))
    m.drain_events()
    assert order_burst == [("tick", mid)]
    assert any(r.time > mid for r in m.driver.receive_log)
    assert any(r.time < mid for r in m.driver.receive_log)
