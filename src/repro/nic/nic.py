"""The NIC's DMA engine: frames land in the LLC (DDIO) or DRAM (no DDIO).

With DDIO (the default on the paper's platform), every cache block of an
incoming frame is written straight into the last-level cache at arrival
time, so header and payload appear simultaneously — the property that lets
the spy read packet *sizes*.  Without DDIO the frame is written to DRAM;
blocks only enter the cache when the driver reads the header (after an
I/O-to-driver latency) and when the stack touches the payload (later
still), which delays and blurs — but does not eliminate — the signal
(Section IV-d of the paper).

The per-frame path (:meth:`Nic.deliver`) DMAs a frame as one
:meth:`~repro.cache.llc.SlicedLLC.io_write` per block.  Frames a traffic
source drains back-to-back go through :meth:`Nic.deliver_burst` instead,
which folds many frames' cache work into one engine call when
:meth:`Nic.can_batch` holds.  Both are pinned bit-identical to the scalar
reference :mod:`repro.nic.legacy` by ``tests/test_rx_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.counters import CounterStats
from repro.net.packet import Frame
from repro.nic.driver import IgbDriver
from repro.nic.ring import RxRing


@dataclass
class NicStats(CounterStats):
    """DMA-side counters.

    ``merge``/``delta``/``snapshot`` come from :class:`CounterStats`, so
    per-shard rx counters reduce the same way :class:`CacheStats` does.
    """

    frames: int = 0
    blocks_written: int = 0
    oversize_dropped: int = 0
    #: Frames lost to injected rx-ring overflow (fault plan only).
    overflow_dropped: int = 0
    #: Receives delayed by an injected descriptor-refill stall.
    refill_stalled: int = 0


class RxTemplates:
    """Per-buffer block decompositions for the cross-frame burst path.

    An rx buffer is a fixed run of consecutive cache lines, so every op
    the burst path folds for a frame — the DMA fills and the driver's
    reads of the buffer — is a slice of one precomputed decomposition of
    ``base + [0, line, 2*line, ...]``.  The template is computed once per
    buffer base address; the cache is bounded because the randomization
    defenses replace buffer pages continuously.
    """

    _MAX_ENTRIES = 4096

    __slots__ = ("llc", "offsets", "_cache")

    def __init__(self, llc, buffer_size: int) -> None:
        self.llc = llc
        line = llc.geometry.line_size
        self.offsets = np.arange(buffer_size // line, dtype=np.int64) * line
        self._cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def decomp(self, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(paddrs, flats, lines)`` arrays for every block of the buffer
        at ``base``; slice before use."""
        entry = self._cache.get(base)
        if entry is None:
            if len(self._cache) >= self._MAX_ENTRIES:
                self._cache.clear()
            paddrs = base + self.offsets
            flats, lines = self.llc.decompose_many(paddrs)
            entry = (paddrs, flats, lines)
            self._cache[base] = entry
        return entry


class Nic:
    """The adapter: accepts frames, DMAs them, and signals the driver."""

    def __init__(self, machine, ring: RxRing, driver: IgbDriver) -> None:
        self.machine = machine
        self.ring = ring
        self.driver = driver
        self.stats = NicStats()
        self._line = machine.llc.geometry.line_size
        self.templates = RxTemplates(machine.llc, ring.config.buffer_size)

    def _dma_fill(self, base: int, n_blocks: int, now: int) -> None:
        """DMA every block of the frame into the cache hierarchy."""
        io_write = self.machine.llc.io_write
        line = self._line
        for addr in range(base, base + n_blocks * line, line):
            io_write(addr, now)

    def deliver(self, frame: Frame) -> None:
        """Receive one frame at the current simulated time."""
        if frame.size > self.ring.config.buffer_size:
            self.stats.oversize_dropped += 1
            return
        machine = self.machine
        faults = machine.faults
        if faults is not None and faults.should_overflow():
            # Injected rx-ring overflow: no free descriptor, the adapter
            # drops the frame on the floor — no DMA, no driver work.
            self.stats.overflow_dropped += 1
            return
        llc = machine.llc
        now = machine.clock.now
        ring_slot = self.ring.head
        buffer = self.ring.advance()
        base = buffer.dma_paddr
        n_blocks = frame.n_blocks(self._line)
        tele = machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "dma-fill",
                cat="nic",
                args={
                    "slot": ring_slot,
                    "size": frame.size,
                    "blocks": n_blocks,
                    "ddio": llc.ddio.enabled,
                    "sim_now": now,
                },
            ):
                self._dma_fill(base, n_blocks, now)
        else:
            self._dma_fill(base, n_blocks, now)
        self.stats.frames += 1
        self.stats.blocks_written += n_blocks
        if tele is not None and tele.metrics.enabled:
            tele.metrics.counter("path.rx.direct").inc()

        # An injected descriptor-refill stall delays the driver's receive
        # processing (softirq starvation / delayed refill), on top of the
        # no-DDIO I/O-to-driver latency when that applies.
        stall = faults.refill_stall() if faults is not None else 0
        if stall:
            self.stats.refill_stalled += 1
        if llc.ddio.enabled and not stall:
            # Interrupt + driver processing happen effectively at arrival
            # (the driver runs on another core; its accesses are immediate).
            self.driver.receive(frame, buffer, ring_slot)
        else:
            # The driver sees the frame only after the I/O-write-to-read
            # latency; schedule the receive on the event queue.
            delay = stall
            if not llc.ddio.enabled:
                delay += machine.llc.timing.io_to_driver_latency
            machine.events.schedule(
                now + delay,
                lambda f=frame, b=buffer, s=ring_slot: self.driver.receive(f, b, s),
                label=f"rx-intr#{frame.frame_id}",
            )

    # ------------------------------------------------------------------
    # Cross-frame burst delivery
    # ------------------------------------------------------------------
    def can_batch(self) -> bool:
        """Whether :meth:`deliver_burst` may batch cache work across frames.

        The burst kernel must model the cache's policy
        (:meth:`~repro.cache.llc.SlicedLLC.rx_burst_decline`), and no fault
        plan may draw per-frame drops or stalls.  Called once per traffic
        drain; with metrics on, a decline counts
        ``path.rx.decline.<reason>``.
        """
        machine = self.machine
        if machine.faults is not None:
            reason = "faults"
        else:
            reason = machine.llc.rx_burst_decline()
        if reason is None:
            return True
        tele = machine.telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.counter(f"path.rx.decline.{reason}").inc()
        return False

    def deliver_burst(self, batch: list[tuple[int, "Frame"]]) -> None:
        """Deliver ``[(arrival_cycle, frame), ...]`` back-to-back.

        Used by a drained traffic source (``TrafficSource._drain``) when
        :meth:`can_batch` holds and nothing can observe the machine
        between the arrivals.  Phase 1 runs every frame's *control flow*
        in arrival order — ring advance, receive stats and log, skb
        cursor, page flips/replacements and their RNG draws, randomizer
        hooks — none of which reads cache state.  Phase 2 then applies
        the concatenated cache-op stream of all frames in one
        :meth:`~repro.cache.llc.SlicedLLC.rx_burst` engine call (a
        round-by-rank kernel, see
        :meth:`~repro.cache.engine.CacheEngine.rx_burst_apply`).  The
        final machine state is bit-identical to a loop of :meth:`deliver`
        — pinned by ``tests/test_rx_equivalence.py``.
        """
        machine = self.machine
        llc = machine.llc
        driver = self.driver
        clock = machine.clock
        ring = self.ring
        buffer_size = ring.config.buffer_size
        stats = self.stats
        line = self._line
        template = driver._burst_template
        skb_flats = driver._skb_flats
        skb_lines = driver._skb_line_ids
        flat_parts: list[np.ndarray] = []
        line_parts: list[np.ndarray] = []
        kind_parts: list[np.ndarray] = []
        off_parts: list[np.ndarray] = []
        bases: list[int] = []
        lens: list[int] = []
        span_total = 0
        folded = 0
        for at, frame in batch:
            clock.advance_to(at)
            if frame.size > buffer_size:
                stats.oversize_dropped += 1
                continue
            ring_slot = ring.head
            buffer = ring.advance()
            entry = self.templates.decomp(buffer.dma_paddr)
            n = frame.n_blocks(line)
            stats.frames += 1
            stats.blocks_written += n
            path, skb_a, skb_b = driver.decide(frame, buffer, ring_slot, at)
            kinds_t, offs_t, span_t, folded_t, buf_ops = template(path, n)
            flat_parts.append(entry[1][:buf_ops])
            line_parts.append(entry[2][:buf_ops])
            for a, b in (skb_a, skb_b):
                if b > a:
                    flat_parts.append(skb_flats[a:b])
                    line_parts.append(skb_lines[a:b])
            kind_parts.append(kinds_t)
            off_parts.append(offs_t)
            bases.append(span_total)
            lens.append(len(offs_t))
            span_total += span_t
            folded += folded_t
        if not lens:
            return
        flats = np.concatenate(flat_parts)
        lines = np.concatenate(line_parts)
        kinds = np.concatenate(kind_parts)
        offs = np.concatenate(off_parts) + np.repeat(
            np.asarray(bases, dtype=np.int64), lens
        )
        llc.rx_burst(flats, lines, kinds, offs, span_total, folded)
        tele = machine.telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.counter("path.rx.burst").inc(len(lens))
