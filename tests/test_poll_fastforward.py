"""Differential suite: the chase poll fast-forward against per-poll polling.

``PacketChaser.wait_for_fill`` fast-forwards runs of identical all-hit
clock polls (:meth:`SetSweep.skip_quiet_polls`).  Each case builds two
mirrored machines and drives them through the same chase-shaped loop: one
waits with ``wait_for_fill``, the other with the plain per-poll loop
written out below as the reference.  After every wait the two must agree
on the clock, the verdict, the ring position, the LLC's stats and packed
state, the epoch access count, the line order each re-key reinserts,
every eviction set's zig-zag state and the metrics registry (minus the
``path.*`` family, which only the fast-forward records).  Comparing traces rather than headlines matters:
a wrong guard once moved a headline while leaving others unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.attack.chase import BufferMonitor, PacketChaser
from repro.attack.evictionset import EvictionSet, OracleEvictionSetBuilder
from repro.attack.primeprobe import SetSweep
from repro.attack.setup import MonitorFactory
from repro.attack.timing import LatencyThreshold, calibrate_threshold
from repro.core.config import DDIOConfig, FaultConfig, MachineConfig
from repro.core.machine import Machine
from repro.net.traffic import PoissonNoise
from repro.telemetry import Telemetry

TIMEOUT = 600_000
#: Shorter than the captures' 12k-cycle wait, so about half of all events
#: land inside a poll's accesses rather than in its wait.
POLL_WAIT = 1_000


def per_poll_wait(chaser, monitor, timeout_cycles, poll_wait):
    """The reference: one real clock poll per iteration, no skipping."""
    machine = chaser.process.machine
    deadline = machine.clock.now + timeout_cycles
    while machine.clock.now < deadline:
        if monitor.clock_active():
            return True
        if poll_wait:
            machine.idle(poll_wait)
    return False


def fast_wait(chaser, monitor, timeout_cycles, poll_wait):
    return chaser.wait_for_fill(monitor, timeout_cycles, poll_wait)


class Rig:
    """One spy machine with a full-ring chaser, built from a config."""

    def __init__(self, config, metrics: bool, signal_pps=0.0, noise_pps=0.0):
        self.telemetry = Telemetry.create(trace=False, metrics=True) if metrics else None
        self.machine = machine = Machine(config, telemetry=self.telemetry)
        machine.install_nic()
        self.spy = machine.new_process("spy")
        threshold = calibrate_threshold(self.spy)
        factory = MonitorFactory(machine, self.spy, threshold, huge_pages=4)
        self.chaser = factory.full_ring_chaser()
        # Poisson arrivals put events at every phase of the poll grid.
        for rate, seed in ((signal_pps, 3), (noise_pps, 7)):
            if rate:
                PoissonNoise(rate_pps=rate, rng=random.Random(seed)).attach(
                    machine, machine.nic
                )
        self.rekeys: list[bytes] = []
        self._log_rekeys()
        timing = config.timing
        self.size_wait = (
            0 if config.ddio.enabled else timing.payload_touch_delay + timing.io_to_driver_latency
        )

    def _log_rekeys(self) -> None:
        """Record the LRU-to-MRU line order each re-key reinserts — the
        one place the stamps of lines a poll has not yet restamped are
        observable mid-poll."""
        llc = self.machine.llc
        rekey = llc._rekey

        def logged(now: int) -> None:
            engine = llc.engine
            occ = np.flatnonzero(engine.tags != -1)
            order = occ[np.argsort(engine.stamps[occ], kind="stable")]
            self.rekeys.append(engine.tags[order].tobytes())
            rekey(now)

        llc._rekey = logged

    def wait(self, waiter, timeout=TIMEOUT, poll_wait=POLL_WAIT) -> bool:
        """One chase step: wait on the expected buffer, then act on it as
        :meth:`PacketChaser.chase` does."""
        chaser = self.chaser
        monitor = chaser.buffers[chaser.position]
        fired = waiter(chaser, monitor, timeout, poll_wait)
        if fired:
            if self.size_wait:
                self.machine.idle(self.size_wait)
            monitor.read_size()
            chaser.position = (chaser.position + 1) % len(chaser.buffers)
            chaser.buffers[chaser.position].prime()
        return fired

    def state(self) -> dict:
        machine = self.machine
        llc = machine.llc
        engine = llc.engine
        sets = []
        for monitor in self.chaser.buffers:
            for es in [*monitor.blocks.values(), *monitor.alt_blocks.values()]:
                sets.append((es.version, tuple(es.addrs)))
        return {
            "clock": machine.clock.now,
            "position": self.chaser.position,
            "stats": llc.stats.snapshot(),
            "mapping": llc.mapping.stats.snapshot(),
            "tags": engine.tags.tobytes(),
            "flags": engine.flags.tobytes(),
            "stamps": engine.stamps.tobytes(),
            "tick": engine._tick,
            "access_count": llc._access_count,
            "sets": sets,
            "rekeys": self.rekeys,
        }

    def registry(self) -> dict | None:
        if self.telemetry is None:
            return None
        return self.telemetry.metrics.snapshot()


def _strip_path(snap: dict) -> dict:
    return {
        kind: {
            k: v for k, v in group.items() if not k.startswith("path.chase_poll.")
        }
        for kind, group in snap.items()
        if kind != "phases"
    }


def assert_registries_match(fast: dict | None, ref: dict | None) -> None:
    if ref is None:
        assert fast is None
        return
    fast, ref = _strip_path(fast), _strip_path(ref)
    assert fast["counters"] == ref["counters"]
    assert fast["gauges"] == ref["gauges"]
    assert fast["histograms"].keys() == ref["histograms"].keys()
    for name, h_ref in ref["histograms"].items():
        h_fast = fast["histograms"][name]
        for key in ("buckets", "counts", "count", "min", "max", "percentiles"):
            assert h_fast[key] == h_ref[key], (name, key)
        if name == "probe.latency_cycles":
            assert h_fast["sum"] == h_ref["sum"]
        else:
            assert math.isclose(h_fast["sum"], h_ref["sum"], rel_tol=1e-9), name


def assert_states_match(fast: Rig, ref: Rig) -> None:
    a, b = fast.state(), ref.state()
    for key in b:
        assert a[key] == b[key], key
    assert_registries_match(fast.registry(), ref.registry())


@pytest.fixture
def skip_counter(monkeypatch):
    """Counts the polls the fast-forward skipped (proves it fired)."""
    counts = {"skipped": 0}
    original = SetSweep.skip_quiet_polls

    def counting(self, *args):
        skipped = original(self, *args)
        counts["skipped"] += skipped
        return skipped

    monkeypatch.setattr(SetSweep, "skip_quiet_polls", counting)
    return counts


def _config(backend: str, ddio: bool, faults: FaultConfig | None = None):
    cfg = replace(
        MachineConfig().scaled_down(),
        ddio=DDIOConfig(enabled=ddio),
        cache_backend=backend,
    )
    if faults is not None:
        cfg = replace(cfg, faults=faults)
    return cfg


def _mirror(config, metrics: bool, **traffic) -> tuple[Rig, Rig]:
    return Rig(config, metrics, **traffic), Rig(config, metrics, **traffic)


#: ``keyed`` re-keys every 3000 accesses: ~190 polls of the 16-line clock
#: sweep, so re-keys land inside the skip windows of most timeouts.
BACKENDS = ("modulo", "keyed:epoch=3000", "skewed:partitions=2")


@pytest.mark.parametrize("metrics", [False, True], ids=["telemetry-off", "metrics"])
@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noise"])
@pytest.mark.parametrize("ddio", [True, False], ids=["ddio", "no-ddio"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_wait_exit_matches_per_poll_loop(backend, ddio, noise, metrics, skip_counter):
    config = _config(backend, ddio)
    traffic = {"signal_pps": 2_500.0, "noise_pps": 3_000.0 if noise else 0.0}
    fast, ref = _mirror(config, metrics, **traffic)
    fast.chaser.prime_all()
    ref.chaser.prime_all()
    assert_states_match(fast, ref)
    for _ in range(24):
        assert fast.wait(fast_wait) == ref.wait(per_poll_wait)
        assert_states_match(fast, ref)
    assert skip_counter["skipped"] > 0
    if metrics:
        counters = fast.registry()["counters"]
        assert counters["path.chase_poll.skipped"] == skip_counter["skipped"]
        assert counters["path.chase_poll.polled"] > 0
        assert counters["path.chase_poll.skipped_cycles"] > 0
        assert not any(
            k.startswith("path.chase_poll.") for k in ref.registry()["counters"]
        )


def _quiet_rig_pair(config, metrics=False) -> tuple[Rig, Rig]:
    """Mirrored rigs with no traffic, primed and settled."""
    fast, ref = _mirror(config, metrics)
    for rig in (fast, ref):
        rig.chaser.prime_all()
        rig.machine.idle(10_000)
    assert_states_match(fast, ref)
    return fast, ref


def _period(rig: Rig, poll_wait: int = POLL_WAIT) -> tuple[int, int, int]:
    """(accesses per clock poll, cycles per access, poll period)."""
    timing = rig.machine.llc.timing
    monitor = rig.chaser.buffers[rig.chaser.position]
    n = sum(len(es) for es in monitor.clock_sweep.sets)
    per_access = timing.llc_hit_latency + timing.measure_overhead
    return n, per_access, n * per_access + poll_wait


def _flush_latest_clock_line(rig: Rig) -> None:
    """Evict the clock line the running poll touched most recently."""
    llc = rig.machine.llc
    engine = llc.engine
    monitor = rig.chaser.buffers[rig.chaser.position]
    best = None
    for es in monitor.clock_sweep.sets:
        for paddr in es.paddrs().tolist():
            flat = llc.flat_set_of(paddr)
            line = paddr >> llc.geometry.offset_bits
            way = engine._dir[flat * engine._line_span + line]
            stamp = int(engine.stamps[flat * engine.ways + way])
            if best is None or stamp > best[0]:
                best = (stamp, paddr)
    llc.flush(best[1])


def test_event_inside_last_quiet_candidate_poll():
    """An event that fires *inside* an all-hit poll and evicts a line that
    poll already probed leaves the poll's cost unchanged; only the
    pending-event guard stops a skip that would then hide the miss."""
    fast, ref = _quiet_rig_pair(_config("modulo", True))
    _n, per_access, period = _period(fast)
    for rig in (fast, ref):
        start = rig.machine.clock.now
        # Inside poll 5, after its third access, if every poll is quiet.
        when = start + 5 * period + 3 * per_access
        rig.machine.events.schedule(when, lambda rig=rig: _flush_latest_clock_line(rig))
    verdicts = []
    for _ in range(3):
        verdicts.append(fast.wait(fast_wait, timeout=20 * period))
        assert verdicts[-1] == ref.wait(per_poll_wait, timeout=20 * period)
        assert_states_match(fast, ref)
    assert verdicts[0] is True


@pytest.mark.parametrize("metrics", [False, True], ids=["telemetry-off", "metrics"])
def test_rekey_boundary_exactly_at_k_polls(metrics, skip_counter):
    """The re-key bound lets the last real poll end exactly on the epoch
    boundary; the re-key then fires on the next poll's first access."""
    epoch = 4_000
    fast, ref = _quiet_rig_pair(_config(f"keyed:epoch={epoch}", True), metrics)
    n, _per_access, period = _period(fast)
    k = 6
    for rig in (fast, ref):
        llc = rig.machine.llc
        clock_line = rig.chaser.buffers[0].clock_sweep.sets[0].addrs[0]
        assert llc.accesses_until_rekey() >= (k + 1) * n
        # Pad with hits so one quiet poll leaves exactly k polls' budget.
        while llc.accesses_until_rekey() > (k + 1) * n:
            rig.spy.access(clock_line)
    assert_states_match(fast, ref)
    epoch_before = fast.machine.llc.mapping_epoch
    for _ in range(4):
        assert fast.wait(fast_wait, timeout=40 * period) == ref.wait(
            per_poll_wait, timeout=40 * period
        )
        assert_states_match(fast, ref)
    assert fast.machine.llc.mapping_epoch > epoch_before
    assert skip_counter["skipped"] >= k - 1


def test_misses_under_the_threshold_are_not_quiet():
    """A clock set that thrashes (ways + 1 lines) behind a threshold too
    high to see its misses never fires, yet no poll is quiet: only the
    poll-cost check tells its misses apart from hits."""
    verdicts, states = [], []
    for waiter in (fast_wait, per_poll_wait):
        rig = Rig(_config("modulo", True), metrics=False)
        factory_es = rig.chaser.buffers[0].blocks[0]
        builder = OracleEvictionSetBuilder(rig.spy, factory_es.threshold, huge_pages=2)
        flat = rig.machine.llc.flat_set_of(factory_es.paddrs()[0])
        addrs = builder._flat_groups()[flat][: rig.machine.llc.geometry.ways + 1]
        blind = LatencyThreshold(hit_mean=70.0, miss_mean=230.0, threshold=1e9)
        es = EvictionSet(rig.spy, addrs, blind, label="thrash")
        chaser = PacketChaser(rig.spy, [BufferMonitor("thrash", blocks={0: es})])
        chaser.prime_all()
        verdicts.append(waiter(chaser, chaser.buffers[0], 40 * POLL_WAIT, POLL_WAIT))
        states.append((rig.machine.clock.now, rig.machine.llc.stats.snapshot()))
    assert verdicts == [False, False]
    assert states[0] == states[1]


@pytest.mark.parametrize("poll_wait", [0, POLL_WAIT, 12_000])
def test_skip_lands_on_the_per_poll_schedule(poll_wait):
    """With no events at all, a timeout is one real poll, one skip and one
    real last poll; clock and zig-zag parity match per-poll polling."""
    fast, ref = _quiet_rig_pair(_config("modulo", True))
    _n, _per_access, period = _period(fast, poll_wait)
    for timeout in (period, 2 * period, 7 * period + 1, 50 * period - 1):
        assert fast.wait(fast_wait, timeout, poll_wait) is False
        assert ref.wait(per_poll_wait, timeout, poll_wait) is False
        assert_states_match(fast, ref)


def test_fault_plan_declines_and_counts():
    """Per-access jitter draws keep the per-poll loop; each declined
    decision is counted."""
    config = _config("modulo", True, FaultConfig(profile="custom", probe_jitter_cycles=3))
    fast, ref = _mirror(config, metrics=True)
    for rig in (fast, ref):
        rig.chaser.prime_all()
    _n, _per_access, period = _period(fast)
    verdict = fast.wait(fast_wait, timeout=30 * period)
    assert verdict == ref.wait(per_poll_wait, timeout=30 * period)
    assert_states_match(fast, ref)
    counters = fast.registry()["counters"]
    assert "path.chase_poll.skipped" not in counters
    # Every real poll that did not end the wait consulted the guard.
    polled = counters["path.chase_poll.polled"]
    assert polled > 1
    assert counters["path.chase_poll.decline.faults"] == polled - int(verdict)


def test_partition_declines_after_a_quiet_poll():
    """The same quiet poll skips without a partition and declines with one
    (its presence clocks read the clock on every fill)."""
    from repro.defense.partitioning import AdaptivePartition

    skipped = {}
    for partitioned in (False, True):
        rig = Rig(_config("modulo", True), metrics=True)
        rig.chaser.prime_all()
        rig.machine.idle(10_000)
        machine = rig.machine
        monitor = rig.chaser.buffers[0]
        start = machine.clock.now
        next_event = machine.events.peek_time()
        assert not monitor.clock_active()
        machine.idle(POLL_WAIT)
        if partitioned:
            AdaptivePartition().install(machine)
        skipped[partitioned] = monitor.clock_sweep.skip_quiet_polls(
            start, next_event, start + 100 * _period(rig)[2], POLL_WAIT
        )
        counters = rig.registry()["counters"]
        assert counters.get("path.chase_poll.decline.partition", 0) == int(partitioned)
    assert skipped == {False: 98, True: 0}


def test_metrics_summary_shows_path_counters(capsys):
    from repro.cli import _print_path_counters

    _print_path_counters(
        {
            "probe.accesses": 5,
            "path.chase_poll.polled": 3,
            "path.chase_poll.skipped": 40,
            "path.chase_poll.decline.faults": 2,
        }
    )
    assert capsys.readouterr().out == (
        "[telemetry] path chase_poll: decline.faults=2, polled=3, skipped=40\n"
    )
