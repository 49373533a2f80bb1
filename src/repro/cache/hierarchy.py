"""Private L1 cache and a two-level hierarchy used by the CPU-side model.

The side-channel experiments run the spy directly against the LLC (its
eviction sets exceed L1 associativity, so L1 contributes nothing but a
constant offset), but the performance model for the defense evaluation
(Figs. 14-16) routes victim workloads through a private L1 so that hot
working sets filter out of the LLC traffic realistically.

The hierarchy is inclusive, like the Intel parts the paper targets: an LLC
eviction back-invalidates the L1 copy.  Victim workloads issue runs of
lines through one kernel, :meth:`CacheHierarchy.access_run`; a single
access is a run of one.
"""

from __future__ import annotations

from repro.cache.cacheset import CacheSet, LINE_DIRTY
from repro.cache.llc import SlicedLLC
from repro.cache.stats import CacheStats
from repro.core.config import TimingParams

#: ``until`` of a run no pending event bounds.
_NEVER = float("inf")


class L1Cache:
    """A small private physically-indexed cache (32 KB / 8-way by default)."""

    def __init__(self, size_kb: int = 32, ways: int = 8, line_size: int = 64) -> None:
        n_lines = size_kb * 1024 // line_size
        if n_lines % ways:
            raise ValueError("cache size not divisible into whole sets")
        self.n_sets = n_lines // ways
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(f"L1 set count must be a power of two, got {self.n_sets}")
        self.ways = ways
        self.line_size = line_size
        self._offset_bits = line_size.bit_length() - 1
        self._set_mask = self.n_sets - 1
        self.sets = [CacheSet(ways) for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def set_of(self, paddr: int) -> CacheSet:
        return self.sets[(paddr >> self._offset_bits) & self._set_mask]

    def access(self, paddr: int, write: bool = False) -> bool:
        """Look up ``paddr``; True on hit."""
        hit = self.set_of(paddr).touch(paddr >> self._offset_bits, set_dirty=write)
        if hit:
            self.stats.cpu_hits += 1
        else:
            self.stats.cpu_misses += 1
        return hit

    def fill(self, paddr: int, write: bool) -> tuple[int, int] | None:
        """Install the line for ``paddr``; return evicted (line, flags)."""
        flags = LINE_DIRTY if write else 0
        return self.set_of(paddr).insert(paddr >> self._offset_bits, flags)

    def invalidate_line(self, line_addr: int) -> int | None:
        """Back-invalidate on LLC eviction (inclusive hierarchy)."""
        paddr = line_addr << self._offset_bits
        return self.set_of(paddr).invalidate(line_addr)


class CacheHierarchy:
    """L1 + shared LLC with inclusive back-invalidation.

    One instance per simulated core/process in the performance model; all
    instances share the same :class:`SlicedLLC`.
    """

    def __init__(
        self,
        llc: SlicedLLC,
        timing: TimingParams | None = None,
        l1: L1Cache | None = None,
    ) -> None:
        self.llc = llc
        self.timing = timing or llc.timing
        self.l1 = l1 = l1 or L1Cache()
        #: What :meth:`access_run` reads of the L1 on every call: each
        #: set's LRU-ordered line dict, the index shift and mask, the
        #: associativity and the hit latency.
        self._l1_shape = (
            [s.lines for s in l1.sets],
            l1._offset_bits,
            l1._set_mask,
            l1.ways,
            self.timing.l1_hit_latency,
        )
        # Register for back-invalidation so inclusion holds.  Multiple
        # hierarchies chain their hooks.
        previous_hook = llc.evict_hook

        def _back_invalidate(line_addr: int) -> None:
            self.l1.invalidate_line(line_addr)
            if previous_hook is not None:
                previous_hook(line_addr)

        llc.evict_hook = _back_invalidate

    def access(self, paddr: int, write: bool = False, now: int = 0) -> tuple[bool, int]:
        """Access through L1 then LLC; returns (l1_hit, total_latency)."""
        hits = self.l1.stats.cpu_hits
        _done, latency = self.access_run((paddr,), write, now)
        return self.l1.stats.cpu_hits != hits, latency

    def access_run(
        self, paddrs, write: bool = False, now: int = 0, until: int | None = None
    ) -> tuple[int, int]:
        """Access each address of ``paddrs`` in order, the first at cycle
        ``now``; returns ``(accesses_done, total_latency)``.

        Each access starts when the previous one's latency has elapsed.
        The run stops before the first access that would start at or after
        ``until`` (the earliest pending event), so the caller can fire it
        and resume exactly where the per-access loop would.  An L1 miss
        goes through :meth:`SlicedLLC.cpu_access` with its own start cycle.
        """
        set_lines, shift, mask, ways, l1_latency = self._l1_shape
        llc = self.llc
        cpu_access = llc.cpu_access
        if until is None:
            until = _NEVER
        t = now
        done = hits = 0
        try:
            for paddr in paddrs:
                if t >= until:
                    break
                done += 1
                line = paddr >> shift
                lines = set_lines[line & mask]
                flags = lines.get(line)
                if flags is not None:
                    hits += 1
                    lines.move_to_end(line)
                    if write and not flags & LINE_DIRTY:
                        lines[line] = flags | LINE_DIRTY
                    t += l1_latency
                    continue
                _llc_hit, llc_latency = cpu_access(paddr, write, t)
                # Fill only now: the LLC fill's eviction may have
                # back-invalidated a line of this very set.
                victim = lines.popitem(last=False) if len(lines) >= ways else None
                lines[line] = LINE_DIRTY if write else 0
                if victim is not None and victim[1] & LINE_DIRTY:
                    # Dirty L1 writeback lands in the (inclusive) LLC copy.
                    victim_line = victim[0]
                    victim_paddr = victim_line << llc.geometry.offset_bits
                    llc_set = llc.sets[llc.flat_set_of(victim_paddr)]
                    llc_set.touch(victim_line, set_dirty=True)
                t += l1_latency + llc_latency
        finally:
            stats = self.l1.stats
            stats.cpu_hits += hits
            stats.cpu_misses += done - hits
        return done, t - now
