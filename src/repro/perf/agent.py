"""A workload's memory agent: process + private L1 over the shared LLC."""

from __future__ import annotations

from repro.cache.hierarchy import CacheHierarchy, L1Cache


class MemAgent:
    """Issues loads/stores for a victim workload through L1 + LLC.

    Unlike the spy (which deliberately works at LLC granularity), victim
    workloads have the normal locality structure, so an L1 in front of the
    LLC matters for realistic traffic: hot lines filter out, and only the
    L1 miss stream reaches the shared cache.
    """

    def __init__(self, machine, name: str, l1_kb: int = 32, l1_ways: int = 8) -> None:
        self.machine = machine
        self.process = machine.new_process(name)
        self.hierarchy = CacheHierarchy(
            machine.llc,
            l1=L1Cache(size_kb=l1_kb, ways=l1_ways, line_size=machine.llc.geometry.line_size),
        )
        self.cycles_spent = 0
        self._line = machine.llc.geometry.line_size
        self._page_size = self.process.addrspace.page_size

    # ------------------------------------------------------------------
    # Mapping (delegates to the process address space)
    # ------------------------------------------------------------------
    def mmap(self, n_pages: int) -> int:
        return self.process.mmap(n_pages)

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def read(self, vaddr: int, lines: int = 1) -> int:
        """Timed load of ``lines`` consecutive lines from ``vaddr``;
        advances the machine clock, returns the total latency."""
        return self._run(vaddr, lines, False, self.process.addrspace)

    def write(self, vaddr: int, lines: int = 1) -> int:
        """Timed store of ``lines`` consecutive lines from ``vaddr``;
        advances the machine clock, returns the total latency."""
        return self._run(vaddr, lines, True, self.process.addrspace)

    def read_kernel(self, paddr: int, lines: int = 1) -> int:
        """Timed load of ``lines`` consecutive lines of kernel physical
        memory (skb data, rx pages); returns the total latency."""
        return self._run(paddr, lines, False, None)

    def _run(self, addr: int, lines: int, write: bool, addrspace) -> int:
        """Issue ``lines`` accesses at ``addr``, ``addr + line``, ... exactly
        as one access at a time would, with events firing in between.

        Each segment reads the event horizon first: due events fire (as
        the per-access loop fires them before an access), and the next
        pending event bounds the segment, so an event always fires before
        the first access that starts at or after its time.  A virtual run
        translates each page when it first enters it, after the events due
        at that access, so an unmapped page faults at the same access.
        """
        machine = self.machine
        clock = machine.clock
        events = machine.events
        step = self._line
        end = addr + lines * step
        base = addr
        # The address at which the next translation is due.
        page_end = addr if addrspace is not None else end
        total = splits = 0
        while addr < end:
            now = clock.now
            until = events.peek_time()
            if until is not None and until <= now:
                events.run_due(now)
                until = events.peek_time()
            if addr >= page_end:
                base = addrspace.translate(addr)
                page_end = addr - addr % self._page_size + self._page_size
            stop = end if end < page_end else page_end
            done, cycles = self.hierarchy.access_run(
                range(base, base + stop - addr, step), write, now, until
            )
            clock.advance(cycles)
            self.cycles_spent += cycles
            total += cycles
            addr += done * step
            base += done * step
            splits += addr < stop
        if lines > 1:
            tele = machine.telemetry
            if tele is not None and tele.metrics.enabled:
                metrics = tele.metrics
                metrics.counter("path.mem_run.runs").inc()
                metrics.counter("path.mem_run.lines").inc(lines)
                metrics.counter("path.mem_run.event_splits").inc(splits)
        return total

    def compute(self, cycles: int) -> None:
        """Non-memory work."""
        self.machine.idle(cycles)
        self.cycles_spent += cycles
