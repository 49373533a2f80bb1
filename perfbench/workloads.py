"""The benchmark's four workloads, built on the ``repro`` package's public API.

Every workload follows one protocol:

* ``setup()`` builds the machines, installs the NIC, calibrates the spy's
  threshold and builds eviction sets and monitors — everything up to the
  first operation;
* ``run_unit(i)`` runs check unit ``i`` (``ops_per_unit`` operations) and
  returns its simulated outputs as a tuple of plain Python values, which
  the harness hashes and compares with the pinned reference;
* ``invariant(outputs)`` is a seed-independent sanity check on those
  outputs (``None`` when they are plausible);
* ``streams`` is the number of rigs or schemes the units rotate over.

The seed generates every input — page-load samples, noise streams, the
sender's phase and the Nginx Zipf streams — and the program receives only
those generated inputs.  Machine configuration (and so the set-up work)
does not depend on the seed.  All workloads run on the scaled-down machine
(8 slices x 256 sets x 8 ways, 32-descriptor ring), single process, single
thread, telemetry off.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.analysis.correlation import CorrelationClassifier
from repro.analysis.levenshtein import cyclic_levenshtein
from repro.attack.groundtruth import true_group_sequence
from repro.attack.evictionset import OracleEvictionSetBuilder
from repro.attack.fingerprint import CaptureConfig
from repro.attack.sequencer import Sequencer, SequencerConfig
from repro.attack.setup import MonitorFactory
from repro.attack.timing import calibrate_threshold
from repro.core.config import DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.defense.randomization import FullRandomizer
from repro.net.traffic import ConstantStream, PoissonNoise, TraceReplay
from repro.net.websites import WebsiteCorpus
from repro.perf.workloads import NginxServer
from repro.perf.wrk import LoadGenerator

#: Background traffic during chase captures and scan recoveries (pps).
NOISE_PPS = 350.0
#: Huge pages the spy maps for its eviction-set pool (scaled-down LLC).
HUGE_PAGES = 4


def _machine(ddio: bool = True, backend: str = "modulo") -> Machine:
    cfg = replace(
        MachineConfig().scaled_down(),
        ddio=DDIOConfig(enabled=ddio),
        cache_backend=backend,
    )
    machine = Machine(cfg)
    machine.install_nic()
    return machine


def _llc_state(machine: Machine) -> tuple:
    return tuple(sorted(machine.llc.stats.snapshot().items()))


class _ChaseRig:
    """One spy machine chasing its ring under background noise."""

    def __init__(self, ddio: bool, backend: str, seed: int) -> None:
        self.machine = machine = _machine(ddio, backend)
        spy = machine.new_process("spy")
        threshold = calibrate_threshold(spy)
        factory = MonitorFactory(machine, spy, threshold, huge_pages=HUGE_PAGES)
        self.chaser = factory.full_ring_chaser()
        t = machine.config.timing
        # Without DDIO the payload lags the header; the spy waits it out
        # before sizing (Section V).
        self.size_wait = 0 if ddio else t.payload_touch_delay + t.io_to_driver_latency
        PoissonNoise(
            rate_pps=NOISE_PPS, rng=random.Random(f"{seed}:noise:{ddio}")
        ).attach(machine, machine.nic)
        self.training: dict[str, list[list[int]]] = {}
        self.classifier: CorrelationClassifier | None = None


class Chase:
    """Section V page-load captures, each load captured on every rig.

    One operation is one capture: a victim page load replayed into the NIC
    while the spy chases the ring for the load's first ``fills`` packets.
    The load keeps streaming past that point, so a spy that lost sync
    re-synchronises on the load's own packets instead of waiting on the
    background noise.  The first ``train_rounds`` rounds (every site once
    per round) are training captures; each later capture is classified
    against per-site representatives built from them.
    """

    name = "chase"
    ops_per_unit = 1
    max_units = 480
    trace_units = 20
    backend = "modulo"
    ddio_modes = (True, False)
    classify = True
    fills = 40
    train_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.capture = CaptureConfig()
        self.rigs: list[_ChaseRig] = []
        self.corpus = WebsiteCorpus()
        self._load_rng = random.Random(f"{seed}:loads")
        self._loads: list[tuple[str, list]] = []

    def setup(self) -> None:
        self.rigs = [_ChaseRig(d, self.backend, self.seed) for d in self.ddio_modes]

    @property
    def streams(self) -> int:
        return len(self.ddio_modes)

    def machines(self) -> list[Machine]:
        return [rig.machine for rig in self.rigs]

    def _load(self, index: int) -> tuple[str, list]:
        """Load ``index``: rounds visit every site once, in seeded order."""
        while len(self._loads) <= index:
            sites = self.corpus.names()
            self._load_rng.shuffle(sites)
            for site in sites:
                profile = self.corpus.get(site)
                self._loads.append((site, profile.sample(self._load_rng)))
        return self._loads[index]

    def run_unit(self, index: int) -> tuple:
        load_index, rig_index = divmod(index, len(self.rigs))
        site, load = self._load(load_index)
        rig = self.rigs[rig_index]
        machine, chaser, cfg = rig.machine, rig.chaser, self.capture
        source = TraceReplay(load, protocol="tcp")
        source.attach(machine, machine.nic)
        result = chaser.chase(
            min(self.fills, len(load)),
            timeout_cycles=cfg.timeout_cycles,
            poll_wait=cfg.poll_wait,
            size_wait=rig.size_wait,
        )
        source.stop()
        machine.idle(cfg.inter_load_gap)
        sizes = [int(s) for s in result.sizes]
        predicted = None
        n_train = self.train_rounds * len(self.corpus.names())
        if self.classify and load_index < n_train:
            rig.training.setdefault(site, []).append(sizes)
        elif self.classify:
            if rig.classifier is None:
                rig.classifier = CorrelationClassifier(trace_length=self.fills)
                rig.classifier.fit(rig.training)
            predicted = rig.classifier.classify(sizes)
        return (
            tuple(sizes),
            machine.clock.now,
            chaser.position,
            _llc_state(machine),
            predicted,
        )

    def invariant(self, outputs: tuple) -> str | None:
        sizes = outputs[0]
        if len(sizes) > self.fills or any(not 1 <= s <= 4 for s in sizes):
            return f"implausible size vector {sizes}"
        return None


class ChaseKeyed(Chase):
    """The chase loop, DDIO on, on the CEASER-shaped re-keying index."""

    name = "chase-keyed"
    max_units = 40
    trace_units = 2
    backend = "keyed:epoch=20000"
    ddio_modes = (True,)
    classify = False


class Scan:
    """Table I ring-order recovery from whole-monitor PRIME+PROBE sweeps.

    One operation is one recovery: a 64 B broadcast sender (seeded phase)
    and a seeded background noise stream feed the ring while the spy sweeps
    32 page-aligned sets at ``probe_hz``; Algorithm 1 orders the sets and
    cyclic Levenshtein distance scores the order against the ring.
    """

    name = "scan"
    ops_per_unit = 1
    streams = 1
    max_units = 64
    trace_units = 2
    n_sets = 32
    n_samples = 5000
    probe_hz = 16_000.0
    sender_pps = 15_000.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(f"{seed}:scan")

    def setup(self) -> None:
        self.machine = machine = _machine()
        self.spy = spy = machine.new_process("spy")
        threshold = calibrate_threshold(spy)
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=HUGE_PAGES)
        self.groups = builder.build_page_aligned_groups(block=0)[: self.n_sets]
        self.block1 = builder.build_page_aligned_groups(block=1)
        llc = machine.llc
        sweep_cycles = int(machine.clock.frequency_hz / self.probe_hz)
        probe_cost = sum(len(g) for g in self.groups) * (
            llc.timing.llc_hit_latency + llc.timing.measure_overhead
        )
        self.wait = max(0, sweep_cycles - probe_cost)

    def machines(self) -> list[Machine]:
        return [self.machine]

    def _replacement(self, idx: int, _es):
        return self.block1[idx] if idx < len(self.block1) else None

    def run_unit(self, index: int) -> tuple:
        machine, clock = self.machine, self.machine.clock
        phase = self._rng.randrange(clock.cycles(1.0 / self.sender_pps))
        sender = ConstantStream(size=64, rate_pps=self.sender_pps, protocol="broadcast")
        sender.attach(machine, machine.nic, start_at=clock.now + phase)
        noise = PoissonNoise(
            rate_pps=NOISE_PPS, rng=random.Random(f"{self.seed}:scan-noise:{index}")
        )
        noise.attach(machine, machine.nic)
        sequencer = Sequencer(
            self.spy,
            list(self.groups),
            SequencerConfig(n_samples=self.n_samples, wait_cycles=self.wait),
            replacement_provider=self._replacement,
        )
        recovered, _trace = sequencer.recover()
        sender.stop()
        noise.stop()
        truth = true_group_sequence(machine, self.spy, sequencer.groups)
        distance = cyclic_levenshtein(recovered, truth)
        return (
            tuple(int(g) for g in recovered),
            tuple(int(g) for g in truth),
            int(distance),
            clock.now,
        )

    def invariant(self, outputs: tuple) -> str | None:
        recovered, truth, distance, _now = outputs
        if not truth or not 0 <= distance <= max(len(recovered), len(truth)):
            return f"implausible recovery: distance {distance}, truth {len(truth)}"
        return None


class Nginx:
    """Fig. 16 open-loop requests against Nginx under three schemes.

    One operation is one request; a check unit is one ``LoadGenerator``
    batch of ``ops_per_unit`` requests on one scheme, round-robin over baseline
    DDIO, a fully randomized ring and adaptive partitioning.  No spy.
    """

    name = "nginx"
    ops_per_unit = 100
    max_units = 960
    trace_units = 30
    schemes = ("baseline", "full-random", "adaptive")
    streams = len(schemes)
    rate_rps = 140_000.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.servers = []
        for scheme in self.schemes:
            machine = _machine()
            if scheme == "adaptive":
                AdaptivePartition().install(machine)
            zipf = random.Random(f"{self.seed}:zipf:{scheme}")
            server = NginxServer(machine, rng=zipf)
            if scheme == "full-random":
                randomizer = FullRandomizer()
                machine.driver.randomizer = randomizer
                server.randomizer = randomizer
            self.servers.append((machine, server))

    def machines(self) -> list[Machine]:
        return [machine for machine, _server in self.servers]

    def run_unit(self, index: int) -> tuple:
        machine, server = self.servers[index % len(self.servers)]
        report = LoadGenerator(machine, server, self.rate_rps, self.ops_per_unit).run()
        traffic = machine.llc.traffic
        return (
            tuple(int(x) for x in report.latencies_cycles),
            machine.clock.now,
            traffic.reads,
            traffic.writes,
        )

    def invariant(self, outputs: tuple) -> str | None:
        latencies = outputs[0]
        if len(latencies) != self.ops_per_unit or min(latencies) < 0:
            return "implausible latency list"
        return None


WORKLOADS = {cls.name: cls for cls in (Chase, ChaseKeyed, Scan, Nginx)}
