"""The defense-evaluation workloads (Section VII-a of the paper).

Three I/O-heavy workloads, matching the paper's mix:

* :class:`FileCopyWorkload` — ``dd`` copying a file from disk: disk DMA
  streams pages in (through DDIO when enabled), the CPU reads them and
  writes the destination.
* :class:`TcpRecvWorkload` — a process that constantly receives TCP
  packets with 8-byte payloads through the NIC/driver path and reads them.
* :class:`NginxServer` — an Nginx-like request handler: parse a request
  that arrived by NIC, look up a file in a page-cache region (Zipf
  popularity), touch per-request application state, write the response.

All memory goes through a :class:`~repro.perf.agent.MemAgent`, so LLC
pressure, DDIO interference and the partitioning defense all show up in
the measured service times and DRAM traffic.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from repro.net.packet import Frame
from repro.perf.agent import MemAgent


@dataclass
class WorkloadReport:
    """Outcome of a workload run."""

    items: int
    cycles: int
    reads: int
    writes: int
    llc_miss_rate: float

    def items_per_second(self, frequency_hz: float) -> float:
        if self.cycles == 0:
            return 0.0
        return self.items * frequency_hz / self.cycles


class FileCopyWorkload:
    """dd-style copy: disk DMA in, CPU read, CPU write to destination."""

    def __init__(self, machine, total_kb: int = 4096, chunk_kb: int = 4) -> None:
        self.machine = machine
        self.agent = MemAgent(machine, "dd")
        self.total_kb = total_kb
        self.chunk_kb = chunk_kb
        self._line = machine.llc.geometry.line_size
        page_size = machine.physmem.page_size
        chunk_pages = max(1, chunk_kb * 1024 // page_size)
        # Source page-cache pages are refilled by disk DMA; destination is a
        # buffer the process owns.  Both recycled, like real page cache.
        self._src_pages = 32
        self._src = self.agent.mmap(self._src_pages * chunk_pages)
        self._dst = self.agent.mmap(self._src_pages * chunk_pages)
        self._chunk_bytes = chunk_pages * page_size

    def run(self) -> WorkloadReport:
        """Copy the configured volume; returns traffic/miss accounting."""
        machine = self.machine
        llc = machine.llc
        stats0 = llc.stats.snapshot()
        traffic0 = (llc.traffic.reads, llc.traffic.writes)
        start = machine.clock.now
        n_chunks = self.total_kb // self.chunk_kb
        lines_per_chunk = self._chunk_bytes // self._line
        for chunk in range(n_chunks):
            slot = chunk % self._src_pages
            src_base = self._src + slot * self._chunk_bytes
            dst_base = self._dst + slot * self._chunk_bytes
            # Disk DMA fills the source pages (DDIO path when enabled).
            translate = self.agent.process.addrspace.translate
            for i in range(lines_per_chunk):
                llc.io_write(translate(src_base + i * self._line), now=machine.clock.now)
            # CPU copies: read source line, write destination line.
            for i in range(lines_per_chunk):
                self.agent.read(src_base + i * self._line)
                self.agent.write(dst_base + i * self._line)
        cycles = machine.clock.now - start
        return WorkloadReport(
            items=n_chunks,
            cycles=cycles,
            reads=llc.traffic.reads - traffic0[0],
            writes=llc.traffic.writes - traffic0[1],
            llc_miss_rate=llc.stats.delta(stats0).miss_rate,
        )


class TcpRecvWorkload:
    """Constant receipt of 8-byte-payload TCP packets, read by the app."""

    def __init__(self, machine, n_packets: int = 2000) -> None:
        if machine.nic is None:
            raise RuntimeError("TcpRecvWorkload needs an installed NIC")
        self.machine = machine
        self.agent = MemAgent(machine, "tcp-recv")
        self.n_packets = n_packets
        self._line = machine.llc.geometry.line_size
        # App-level receive buffer + connection state.
        self._app_buf = self.agent.mmap(4)
        self._state = self.agent.mmap(4)

    def run(self) -> WorkloadReport:
        machine = self.machine
        llc = machine.llc
        stats0 = llc.stats.snapshot()
        traffic0 = (llc.traffic.reads, llc.traffic.writes)
        start = machine.clock.now
        frame = None
        page_size = machine.physmem.page_size
        state_lines = 4 * page_size // self._line
        for i in range(self.n_packets):
            # 8-byte payload -> one-block frame (64 B on the wire).
            frame = Frame(size=64, protocol="tcp")
            machine.nic.deliver(frame)
            # Application epoll wakeup: read the payload (skb points into
            # the rx buffer line) and update connection state.
            ring = machine.ring
            rx_buffer = ring.buffers[(ring.head - 1) % len(ring.buffers)]
            self.agent.read_kernel(rx_buffer.dma_paddr)
            self.agent.read(self._app_buf + (i % 64) * self._line)
            self.agent.write(self._state + (i % state_lines) * self._line)
            self.agent.compute(120)
        cycles = machine.clock.now - start
        return WorkloadReport(
            items=self.n_packets,
            cycles=cycles,
            reads=llc.traffic.reads - traffic0[0],
            writes=llc.traffic.writes - traffic0[1],
            llc_miss_rate=llc.stats.delta(stats0).miss_rate,
        )


class NginxServer:
    """An Nginx-like static-file server handling one request at a time.

    Per request: the request frame arrives via the NIC, the server parses
    it, picks a file by Zipf popularity, reads the file's lines from the
    page-cache region, touches per-connection state, and writes the
    response headers.  Service time is whatever the memory system makes it.
    """

    def __init__(
        self,
        machine,
        n_files: int = 64,
        file_kb: int = 16,
        hot_state_kb: int = 256,
        zipf_s: float = 1.1,
        rng: random.Random | None = None,
    ) -> None:
        if machine.nic is None:
            raise RuntimeError("NginxServer needs an installed NIC")
        self.machine = machine
        self.agent = MemAgent(machine, "nginx")
        self.rng = rng or random.Random(5)
        self._line = machine.llc.geometry.line_size
        page_size = machine.physmem.page_size
        self.file_lines = file_kb * 1024 // self._line
        file_pages = max(1, file_kb * 1024 // page_size)
        self._files = [self.agent.mmap(file_pages) for _ in range(n_files)]
        self._state = self.agent.mmap(max(1, hot_state_kb * 1024 // page_size))
        self._state_lines = hot_state_kb * 1024 // self._line
        self._resp = self.agent.mmap(4)
        # Zipf-ish popularity weights.
        weights = [1.0 / (rank + 1) ** zipf_s for rank in range(n_files)]
        total = sum(weights)
        self._cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self.requests_served = 0
        #: Optional randomization defense whose pending overhead the server
        #: (driver, really) pays on the request path.
        self.randomizer = None

    def _pick_file(self) -> int:
        u = self.rng.random()
        return min(bisect.bisect_left(self._cum, u), len(self._cum) - 1)

    def handle_request(self, request_frame: Frame | None = None) -> int:
        """Serve one request; returns service cycles."""
        machine = self.machine
        start = machine.clock.now
        frame = request_frame or Frame(size=256, protocol="tcp")
        machine.nic.deliver(frame)
        # Read the request bytes out of the rx buffer: cache-resident under
        # DDIO, a trip to DRAM without it — the service-time half of DDIO's
        # benefit.
        ring = machine.ring
        rx_buffer = ring.buffers[(ring.head - 1) % len(ring.buffers)]
        self.agent.read_kernel(rx_buffer.dma_paddr, lines=frame.n_blocks(self._line))
        if self.randomizer is not None:
            pending = self.randomizer.drain_pending()
            if pending:
                self.agent.compute(pending)
        # Parse request: read 4 lines of connection state, as one run up
        # to the end of the state region and one more after the wrap.
        first = (self.requests_served * 7) % self._state_lines
        left = 4
        while left:
            n = min(left, self._state_lines - first)
            self.agent.read(self._state + first * self._line, lines=n)
            left -= n
            first = 0
        # Read the file body from page cache.
        self.agent.read(self._files[self._pick_file()], lines=self.file_lines)
        # Build response headers + log entry.
        self.agent.write(self._resp, lines=8)
        self.agent.compute(400)
        self.requests_served += 1
        return machine.clock.now - start

    def serve_closed_loop(self, n_requests: int) -> WorkloadReport:
        """Back-to-back service (saturation throughput, Fig. 14)."""
        machine = self.machine
        llc = machine.llc
        stats0 = llc.stats.snapshot()
        traffic0 = (llc.traffic.reads, llc.traffic.writes)
        start = machine.clock.now
        for _ in range(n_requests):
            self.handle_request()
        return WorkloadReport(
            items=n_requests,
            cycles=machine.clock.now - start,
            reads=llc.traffic.reads - traffic0[0],
            writes=llc.traffic.writes - traffic0[1],
            llc_miss_rate=llc.stats.delta(stats0).miss_rate,
        )
