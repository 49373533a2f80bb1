"""The simulated machine: memory + LLC + NIC + driver + processes.

A :class:`Machine` is the top-level object experiments construct.  Exactly
one CPU actor (normally the spy) *drives* simulated time: each of its memory
accesses advances the clock by the access latency, and before every access
the machine fires all pending events (packet arrivals, delayed driver work,
defense adaptation) whose time has come.  Other actors — the NIC, the
driver, victim workloads modelled as events — interleave with the driver of
time at cycle accuracy.

Typical setup::

    machine = Machine()
    machine.install_nic()
    spy = machine.new_process("spy")
    vaddr = spy.mmap_huge(4)
    latency = spy.timed_access(vaddr)
"""

from __future__ import annotations

import random

import numpy as np

from repro.cache.llc import SlicedLLC
from repro.core.clock import SimClock
from repro.core.config import MachineConfig
from repro.core.events import EventQueue
from repro.mem.addrspace import AddressSpace
from repro.mem.physmem import PhysicalMemory
from repro.telemetry.context import Telemetry, current_telemetry


class Process:
    """A CPU process: an address space plus clock-driving memory accesses.

    ``access`` is the only way attacker code touches memory, and it works
    exactly like real code does: issue a load, pay the latency.  The
    returned latency (plus :attr:`TimingParams.measure_overhead` for the
    timed variant) is all the information the spy ever gets.
    """

    def __init__(self, machine: "Machine", name: str) -> None:
        self.machine = machine
        self.name = name
        self.addrspace = AddressSpace(machine.physmem, name)

    # -- mapping ------------------------------------------------------
    def mmap(self, n_pages: int, node: int | None = None) -> int:
        """Map 4 KB pages with (randomised) physical backing."""
        return self.addrspace.mmap(n_pages, node)

    def mmap_huge(self, n_huge_pages: int = 1) -> int:
        """Map 2 MB huge pages (physically contiguous, aligned)."""
        return self.addrspace.mmap_huge(n_huge_pages)

    # -- memory accesses ----------------------------------------------
    def access(self, vaddr: int, write: bool = False) -> int:
        """Perform one memory access; returns its latency in cycles."""
        machine = self.machine
        machine.events.run_due(machine.clock.now)
        paddr = self.addrspace.translate(vaddr)
        _hit, latency = machine.llc.cpu_access(paddr, write=write, now=machine.clock.now)
        machine.clock.advance(latency)
        return latency

    def timed_access(self, vaddr: int, write: bool = False) -> int:
        """Access with timer overhead included — what rdtscp would report.

        Under an active fault plan the measurement carries jitter: extra
        cycles (an interrupt, SMM, a co-scheduled hyperthread) that both
        elapse on the clock and inflate the reported latency, exactly the
        noise a real rdtscp-based spy has to threshold through.
        """
        machine = self.machine
        overhead = machine.llc.timing.measure_overhead
        latency = self.access(vaddr, write)
        if machine.faults is not None:
            overhead += machine.faults.probe_jitter()
        machine.clock.advance(overhead)
        return latency + overhead

    def access_many(
        self, vaddrs, write: bool = False, timed: bool = False
    ) -> np.ndarray:
        """Batched :meth:`access`/:meth:`timed_access` over many addresses.

        Semantically one :meth:`access` (or :meth:`timed_access`) per
        address, in order — pending events still fire at the correct
        simulated instants — but issued as engine-batched chunks whenever
        no event can interrupt the chunk (see
        :meth:`Machine.cpu_access_many`).  Returns the per-access latency
        array the sequential loop would have produced.
        """
        translate = self.addrspace.translate
        paddrs = np.fromiter(
            (translate(int(v)) for v in vaddrs), np.int64, count=len(vaddrs)
        )
        return self.machine.cpu_access_many(paddrs, write=write, timed=timed)

    def flush(self, vaddr: int) -> int:
        """CLFLUSH the line containing ``vaddr``."""
        machine = self.machine
        machine.events.run_due(machine.clock.now)
        latency = machine.llc.flush(self.addrspace.translate(vaddr))
        machine.clock.advance(latency)
        return latency

    def compute(self, cycles: int) -> None:
        """Burn CPU time without touching memory (busy wait / work)."""
        self.machine.idle(cycles)


class Machine:
    """Assembled simulation of the paper's DDIO host."""

    def __init__(
        self,
        config: MachineConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        #: Observability hooks.  Defaults to the ambient telemetry (see
        #: repro.telemetry.context) so experiments need no plumbing; when
        #: ``None`` every hook site short-circuits and the machine behaves
        #: bit-identically to an uninstrumented build.
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.rng = random.Random(cfg.seed)
        self.clock = SimClock(cfg.processor.frequency_hz)
        self.events = EventQueue()
        self.physmem = PhysicalMemory(
            size_bytes=cfg.memory_bytes,
            page_size=cfg.ring.page_size,
            numa_nodes=cfg.numa_nodes,
            rng=random.Random(cfg.seed + 1),
        )
        self.llc = SlicedLLC(
            geometry=cfg.cache,
            ddio=cfg.ddio,
            timing=cfg.timing,
            traffic=self.physmem.traffic,
            backend=cfg.cache_backend,
            seed=cfg.seed,
        )
        self.kernel = AddressSpace(self.physmem, "kernel")
        self.nic = None
        self.driver = None
        self.ring = None
        if self.telemetry is not None:
            self.llc.telemetry = self.telemetry
            self.events.tracer = self.telemetry.tracer
        #: When True (default), the idle/drain event loops may hand a
        #: burst-capable event (``Event.drain``) a whole window of
        #: simulated time — the traffic sources use this to deliver frame
        #: bursts without one heap round-trip per frame.  Set False to
        #: force the scalar per-event path (the differential harness does,
        #: to pin burst-vs-scalar equivalence).
        self.allow_bursts = True
        #: Seeded fault injection (None when cfg.faults is all-zero, in
        #: which case no fault machinery exists and behaviour is
        #: bit-identical to a pre-faults build).
        self.faults = None
        if cfg.faults.active:
            from repro.faults import FaultPlan, NoisyCoRunner

            self.faults = FaultPlan.from_config(
                cfg.faults, cfg.seed, telemetry=self.telemetry, clock=self.clock
            )
            if self.faults.corunner_active:
                NoisyCoRunner(self, self.faults).start()

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def install_nic(
        self,
        shared_page_prob: float = 0.0,
        log_receives: bool = False,
        node: int = 0,
        legacy: bool = False,
    ):
        """Create and wire the rx ring, IGB driver and NIC; returns the NIC.

        ``legacy=True`` installs the frozen scalar datapath from
        :mod:`repro.nic.legacy` instead — reference side of the rx
        differential harness and benchmark only.
        """
        # Imported here to keep core free of a package cycle.
        from repro.nic.ring import RxRing

        if legacy:
            from repro.nic.legacy import LegacyIgbDriver as driver_cls
            from repro.nic.legacy import LegacyNic as nic_cls
        else:
            from repro.nic.driver import IgbDriver as driver_cls
            from repro.nic.nic import Nic as nic_cls

        if self.nic is not None:
            raise RuntimeError("NIC already installed")
        self._nic_legacy = legacy

        def build_ring() -> RxRing:
            return RxRing(
                self.physmem,
                config=self.config.ring,
                node=node,
                rng=random.Random(self.config.seed + 2),
            )

        tele = self.telemetry
        if tele is not None and tele.tracer.enabled:
            # The initial buffer allocation is the driver's
            # igb_alloc_rx_buffers pass — trace it as a refill.
            with tele.tracer.span(
                "driver-refill",
                cat="driver",
                args={
                    "reason": "init",
                    "descriptors": self.config.ring.n_descriptors,
                    "sim_now": self.clock.now,
                },
            ):
                self.ring = build_ring()
        else:
            self.ring = build_ring()
        self.driver = driver_cls(
            self,
            self.ring,
            config=self.config.ring,
            shared_page_prob=shared_page_prob,
            log_receives=log_receives,
            rng=random.Random(self.config.seed + 3),
        )
        self.nic = nic_cls(self, self.ring, self.driver)
        return self.nic

    def restart_networking(self) -> None:
        """Tear down and re-create the ring (fresh buffer placement), as a
        system reboot / networking restart would."""
        if self.nic is None:
            raise RuntimeError("no NIC installed")
        for buffer in self.ring.buffers:
            self.physmem.free_frame(buffer.page_paddr // self.physmem.page_size)
        log = self.driver.log_receives
        shared = self.driver.shared_page_prob
        self.nic = None
        self.install_nic(
            shared_page_prob=shared,
            log_receives=log,
            legacy=getattr(self, "_nic_legacy", False),
        )

    def new_process(self, name: str) -> Process:
        """Create a CPU process on this machine."""
        return Process(self, name)

    # ------------------------------------------------------------------
    # Batched CPU accesses
    # ------------------------------------------------------------------
    def cpu_access_many(
        self,
        paddrs: np.ndarray,
        write: bool = False,
        timed: bool = False,
        decomp: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Issue many CPU accesses with per-access event/clock semantics.

        Equivalent to a loop of ``Process.access`` / ``Process.timed_access``
        over physical addresses, but the loop body is replaced by batched
        :meth:`SlicedLLC.access_many` chunks wherever that is provably
        unobservable:

        * a chunk is only batched when the earliest pending event lies
          beyond a worst-case (all-miss) bound on the chunk's duration, so
          every event still fires before exactly the access it would have
          preceded in the sequential loop;
        * an active partition falls back to the scalar path (its presence
          clocks read the advancing ``clock.now`` on every fill);
        * timed accesses under an active fault plan fall back so
          measurement jitter draws stay per-access and bit-identical.

        ``decomp`` optionally carries the caller's cached ``(flats,
        lines)`` decomposition of ``paddrs`` (see
        :meth:`SlicedLLC.access_many`).

        Returns the int64 latency array the sequential loop would return.
        """
        llc = self.llc
        clock = self.clock
        events = self.events
        overhead = llc.timing.measure_overhead if timed else 0
        n = len(paddrs)
        out = np.empty(n, dtype=np.int64)
        scalar_only = llc.partition is not None or (timed and self.faults is not None)
        worst = llc.timing.llc_miss_latency + overhead
        faults = self.faults
        i = 0
        while i < n:
            events.run_due(clock.now)
            m = 0
            if not scalar_only:
                nxt = events.peek_time()
                if nxt is None:
                    m = n - i
                else:
                    m = min(n - i, (nxt - clock.now) // worst)
            if m <= 0:
                # Event imminent (or exact per-access semantics required):
                # one sequential access, then re-evaluate.
                lat = llc.cpu_access(int(paddrs[i]), write=write, now=clock.now)[1]
                if timed:
                    lat += overhead
                    if faults is not None:
                        lat += faults.probe_jitter()
                clock.advance(lat)
                out[i] = lat
                i += 1
                continue
            chunk_decomp = (
                (decomp[0][i : i + m], decomp[1][i : i + m])
                if decomp is not None
                else None
            )
            _hits, lats = llc.access_many(
                paddrs[i : i + m], write=write, now=clock.now, decomp=chunk_decomp
            )
            if timed:
                lats = lats + overhead
            out[i : i + m] = lats
            clock.advance(int(lats.sum()))
            i += m
        return out

    # ------------------------------------------------------------------
    # Time control
    # ------------------------------------------------------------------
    def _run_pending(self, target: int | None) -> None:
        """Fire all pending events up to ``target`` (``None`` = all of them).

        Burst fast path: when the head event is burst-capable
        (``Event.drain`` set, e.g. a traffic source's next-frame event) and
        nothing else is pending before it would matter, the whole window up
        to the next foreign event is handed to the drain handler in one
        call — the traffic source then delivers frames back-to-back without
        one heap round-trip per frame.  The window stops one cycle short of
        the next pending event so ties and same-cycle orderings are decided
        by the heap exactly as in the scalar path.  With tracing enabled
        (per-event instants are observable) or ``allow_bursts`` off, every
        event takes the scalar ``run_due`` path.
        """
        events = self.events
        clock = self.clock
        tracer = events.tracer
        bursts = self.allow_bursts and (tracer is None or not tracer.enabled)
        while True:
            head = events.peek_head()
            if head is None or (target is not None and head.time > target):
                return
            if bursts and head.drain is not None:
                events.pop_head()
                clock.advance_to(head.time)
                nxt = events.peek_time()
                if nxt is None:
                    limit = target
                elif target is None:
                    limit = nxt - 1
                else:
                    limit = min(target, nxt - 1)
                head.drain(head, limit)
            else:
                clock.advance_to(head.time)
                events.run_due(clock.now)

    def idle(self, cycles: int) -> None:
        """Let simulated time pass (the driving actor waits), firing events."""
        target = self.clock.now + cycles
        self._run_pending(target)
        self.clock.advance_to(target)

    def run_events_until(self, target: int) -> None:
        """Advance to ``target`` firing all events (no CPU actor)."""
        self.idle(max(0, target - self.clock.now))

    def drain_events(self) -> None:
        """Run every remaining event, advancing the clock as needed."""
        self._run_pending(None)
