"""Model of the IGB driver's receive path (Figs. 3 and 4 of the paper).

The driver runs on its own core: its memory accesses hit the shared LLC at
the simulated instant they occur but do not advance the global clock (which
is driven by the process under observation, usually the spy).

Receive-path behaviour reproduced here:

* **Header prefetch** — the driver always reads the first two cache blocks
  of the buffer, regardless of frame size.  This is why 1-block packets
  still produce activity on block 1 (Fig. 8's one anomaly).
* **Small frames** (<= ``copy_threshold``): ``igb_add_rx_frag`` memcpys the
  payload into the skb, reading every block of the frame, and reuses the
  buffer as-is — unless the page is on a remote NUMA node, in which case it
  is released and a fresh buffer allocated.
* **Large frames**: the half-page is attached to the skb as a fragment;
  ``igb_can_reuse_rx_page`` flips ``page_offset`` to the other half unless
  the page is remote or still shared with the stack (rare), in which case
  the buffer is replaced.
* **Broadcast/unknown protocol**: discarded right after the header check —
  no skb, no flip — yet the payload already sits in the LLC if DDIO wrote
  it there, which is what makes the covert channel stealthy.

Each received frame runs in two steps: :meth:`IgbDriver.decide` makes
every receive decision (stats, log, skb slab cursor, page flip or
replacement, randomizer) and :meth:`IgbDriver.touch` issues the frame's
cache accesses as plain ``cpu_access`` calls, in the order the scalar
reference :mod:`repro.nic.legacy` issues them.  The cross-frame burst
path (:meth:`repro.nic.nic.Nic.deliver_burst`) shares ``decide`` and
folds the touches into one engine call instead; both are pinned
bit-identical to the reference by ``tests/test_rx_equivalence.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.core.config import RingConfig
from repro.core.counters import CounterStats
from repro.net.packet import Frame
from repro.nic.ring import RxBuffer, RxRing


@dataclass
class DriverStats(CounterStats):
    """Receive-path counters.

    ``merge``/``delta``/``snapshot`` come from :class:`CounterStats`, so
    per-shard rx counters reduce the same way :class:`CacheStats` does.
    """

    frames: int = 0
    discarded: int = 0
    copied: int = 0
    fragged: int = 0
    page_flips: int = 0
    buffers_replaced: int = 0


@dataclass
class ReceiveRecord:
    """Ground-truth log entry for one received frame (experiment use only —
    nothing attacker-visible lives here)."""

    time: int
    ring_slot: int
    page_paddr: int
    dma_paddr: int
    n_blocks: int
    size: int
    symbol: int | None = None


class IgbDriver:
    """The driver half of the receive path."""

    def __init__(
        self,
        machine,
        ring: RxRing,
        config: RingConfig | None = None,
        shared_page_prob: float = 0.0,
        log_receives: bool = False,
        rng: random.Random | None = None,
    ) -> None:
        self.machine = machine
        self.ring = ring
        self.config = config or ring.config
        self.shared_page_prob = shared_page_prob
        self.stats = DriverStats()
        self.rng = rng or random.Random(17)
        self.local_node = ring.node
        self.log_receives = log_receives
        self.receive_log: list[ReceiveRecord] = []
        #: Optional randomization defense (see repro.defense.randomization).
        self.randomizer = None
        self._line = machine.llc.geometry.line_size
        # skb slab: a modest recycled kernel region the copy path writes to.
        # The region is fixed at driver init, so its translation (and, for
        # the burst path, its cache decomposition) is precomputed once and
        # sliced per write.
        self._skb_region = machine.kernel.mmap(16)
        self._skb_cursor = 0
        self._skb_lines = 16 * machine.physmem.page_size // self._line
        translate = machine.kernel.translate
        line = self._line
        region = self._skb_region
        self._skb_paddrs = np.fromiter(
            (translate(region + i * line) for i in range(self._skb_lines)),
            np.int64,
            count=self._skb_lines,
        )
        self._skb_flats, self._skb_line_ids = machine.llc.decompose_many(
            self._skb_paddrs
        )
        # Footprint-op templates for the cross-frame burst path, keyed by
        # (path, n_blocks); see _burst_template.
        self._burst_tmpl: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    _PATH_BCAST, _PATH_COPY, _PATH_FRAG = 0, 1, 2

    def receive(self, frame: Frame, buffer: RxBuffer, ring_slot: int) -> None:
        """Process one frame that the NIC has DMA'd into ``buffer``."""
        tele = self.machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "driver-rx",
                cat="driver",
                args={
                    "slot": ring_slot,
                    "size": frame.size,
                    "blocks": frame.n_blocks(self._line),
                    "sim_now": self.machine.clock.now,
                },
            ):
                self._receive(frame, buffer, ring_slot)
            return
        self._receive(frame, buffer, ring_slot)

    def _receive(self, frame: Frame, buffer: RxBuffer, ring_slot: int) -> None:
        now = self.machine.clock.now
        # Read before deciding: the decision may flip or replace the buffer.
        base = buffer.dma_paddr
        path, skb_a, skb_b = self.decide(frame, buffer, ring_slot, now)
        self.touch(path, base, frame.n_blocks(self._line), skb_a, skb_b, now)

    def decide(
        self, frame: Frame, buffer: RxBuffer, ring_slot: int, now: int
    ) -> tuple[int, tuple[int, int], tuple[int, int]]:
        """The receive path's control flow — stats, log, skb cursor, page
        flip/replace, randomizer — without its cache touches.

        None of these decisions read cache state and no touch reads
        decision state, so both receive paths run the decision first:
        :meth:`receive` then issues :meth:`touch`, the burst path
        (:meth:`repro.nic.nic.Nic.deliver_burst`) defers the touches to
        one engine call.  Returns ``(path, skb_a, skb_b)`` where the skb
        slices are ``(start, stop)`` index ranges into the slab arrays
        (the second non-empty only when the cursor wraps).
        """
        self.stats.frames += 1
        if self.log_receives:
            self.receive_log.append(
                ReceiveRecord(
                    time=now,
                    ring_slot=ring_slot,
                    page_paddr=buffer.page_paddr,
                    dma_paddr=buffer.dma_paddr,
                    n_blocks=frame.n_blocks(self._line),
                    size=frame.size,
                    symbol=frame.symbol,
                )
            )
        if frame.is_broadcast():
            # Unknown protocol: dropped before any skb is built.
            self.stats.discarded += 1
            self._after_packet(buffer)
            return self._PATH_BCAST, (0, 0), (0, 0)
        if frame.size <= self.config.copy_threshold:
            # memcpy path of igb_add_rx_frag: one skb line per frame block.
            path = self._PATH_COPY
            skb_n = frame.n_blocks(self._line)
            self.stats.copied += 1
        else:
            # Fragment path: skb metadata only; payload stays in the page.
            path = self._PATH_FRAG
            skb_n = 2
            self.stats.fragged += 1
        cursor = self._skb_cursor
        wrap = self._skb_lines
        self._skb_cursor = cursor + skb_n
        start = cursor % wrap
        end = start + skb_n
        if end <= wrap:
            skb_a, skb_b = (start, end), (0, 0)
        else:
            skb_a, skb_b = (start, wrap), (0, end - wrap)
        if path == self._PATH_COPY:
            if buffer.node != self.local_node:
                # Remote page: put_page + fresh allocation (cannot be reused).
                self._replace(buffer)
        elif buffer.node != self.local_node or self.rng.random() < self.shared_page_prob:
            self._replace(buffer)
        else:
            buffer.flip(self.config.buffer_size)
            self.stats.page_flips += 1
            tele = self.machine.telemetry
            if tele is not None and tele.tracer.enabled:
                tele.tracer.instant(
                    "page-flip",
                    cat="driver",
                    args={"slot": buffer.index, "offset": buffer.page_offset},
                )
        self._after_packet(buffer)
        return path, skb_a, skb_b

    def touch(
        self,
        path: int,
        base: int,
        n: int,
        skb_a: tuple[int, int],
        skb_b: tuple[int, int],
        now: int,
    ) -> None:
        """Issue one frame's driver accesses, one ``cpu_access`` per line.

        ``base`` is the buffer's DMA address before :meth:`decide` ran,
        ``n`` the frame's block count and ``skb_a``/``skb_b`` the slab
        slices :meth:`decide` returned.  Every path reads the header and
        prefetches block 1; the copy path then reads every frame block
        and writes one skb line each, the fragment path reads the payload
        and writes two skb lines.
        """
        llc = self.machine.llc
        access = llc.cpu_access
        line = self._line
        access(base, False, now)
        access(base + line, False, now)
        if path == self._PATH_BCAST:
            return
        if path == self._PATH_COPY:
            for addr in range(base, base + n * line, line):
                access(addr, False, now)
        elif llc.ddio.enabled:
            # The payload is already cache-resident; the stack reads it now.
            for addr in range(base + 2 * line, base + n * line, line):
                access(addr, False, now)
        else:
            # Without DDIO the stack touches the payload noticeably after
            # the header (Huggahalli et al.: < 20k cycles) — the lag that
            # makes size detection of large packets noisier (Section IV-d).
            clock = self.machine.clock

            def touch_payload() -> None:
                later = clock.now
                for addr in range(base + 2 * line, base + n * line, line):
                    access(addr, False, later)

            self.machine.events.schedule(
                now + llc.timing.payload_touch_delay, touch_payload, label="payload"
            )
        for a, b in (skb_a, skb_b):
            for paddr in self._skb_paddrs[a:b].tolist():
                access(paddr, True, now)

    def _replace(self, buffer: RxBuffer) -> None:
        tele = self.machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "driver-refill",
                cat="driver",
                args={
                    "reason": "replace",
                    "slot": buffer.index,
                    "sim_now": self.machine.clock.now,
                },
            ):
                self.ring.replace_buffer(buffer.index)
        else:
            self.ring.replace_buffer(buffer.index)
        self.stats.buffers_replaced += 1

    def _after_packet(self, buffer: RxBuffer) -> None:
        if self.randomizer is not None:
            self.randomizer.on_packet(self, buffer)

    # ------------------------------------------------------------------
    # Cross-frame burst path (see Nic.deliver_burst)
    # ------------------------------------------------------------------
    def _burst_template(self, path: int, n: int) -> tuple:
        """Footprint-op template for one received frame: ``(kinds,
        final_offs, span, folded_hits, buf_ops)``.

        The frame's sequential cache-op stream is fills of blocks
        ``0..n-1``, the driver's touch sequence, then the skb writes; each
        op is one LRU tick.  Touches of blocks the same frame filled are
        *folded*: they cannot miss, so only the line's last-touch position
        survives, recorded in ``final_offs`` (op-order-parallel: ``buf_ops``
        buffer ops — the fills plus, for one-block frames, the block-1
        prefetch read that was NOT filled — then the skb writes).  ``span``
        is the frame's total tick count and ``folded_hits`` the number of
        folded guaranteed-hit touches.
        """
        key = (path, n)
        tmpl = self._burst_tmpl.get(key)
        if tmpl is not None:
            return tmpl
        if path == self._PATH_BCAST:
            # fills 0..n-1, then reads of blocks 0 and 1.
            if n == 1:
                kinds = np.array([0, 1], dtype=np.uint8)
                offs = np.array([1, 2], dtype=np.int64)
                tmpl = (kinds, offs, 3, 1, 2)
            else:
                kinds = np.zeros(n, dtype=np.uint8)
                offs = np.arange(n, dtype=np.int64)
                offs[0] = n
                offs[1] = n + 1
                tmpl = (kinds, offs, n + 2, 2, n)
        elif path == self._PATH_COPY:
            # fills, reads [0, 1, 0..n-1], skb writes 0..n-1.
            if n == 1:
                kinds = np.array([0, 1, 2], dtype=np.uint8)
                offs = np.array([3, 2, 4], dtype=np.int64)
                tmpl = (kinds, offs, 5, 2, 2)
            else:
                kinds = np.concatenate(
                    [np.zeros(n, dtype=np.uint8), np.full(n, 2, dtype=np.uint8)]
                )
                offs = np.concatenate(
                    [
                        n + 2 + np.arange(n, dtype=np.int64),
                        2 * n + 2 + np.arange(n, dtype=np.int64),
                    ]
                )
                tmpl = (kinds, offs, 3 * n + 2, n + 2, n)
        else:
            # fills, reads 0..n-1, two skb writes.
            kinds = np.concatenate(
                [np.zeros(n, dtype=np.uint8), np.full(2, 2, dtype=np.uint8)]
            )
            offs = np.concatenate(
                [
                    n + np.arange(n, dtype=np.int64),
                    2 * n + np.arange(2, dtype=np.int64),
                ]
            )
            tmpl = (kinds, offs, 2 * n + 2, n, n)
        self._burst_tmpl[key] = tmpl
        return tmpl
