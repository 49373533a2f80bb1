"""Eviction-set construction — the attacker's basic instrument.

An *eviction set* for a cache set is ``ways`` attacker-owned addresses that
all map to it; traversing the set replaces every other line there.  The spy
allocates **huge pages**, so it knows set-index bits of its own addresses
(bits 6..16 lie inside the 2 MB page), but the slice each address lands in
is decided by the undocumented hash — that part must be resolved by timing.

:class:`EvictionSetBuilder` does it the way real attacks do:

* ``reduce`` — group-testing reduction (Vila et al. style): shrink a pool
  that evicts a victim address down to a minimal ``ways``-element core.
* ``cluster_index`` — repeatedly reduce + classify-conflicts to split all
  candidate addresses of one set index into its per-slice conflict groups,
  giving one eviction set per (set index, slice).

Page-aligned buffers can only start in ``sets_per_slice / 64`` indices per
slice (the low 6 index bits are zero — Fig. 2 of the paper), i.e. 256 cache
sets total on the paper's machine: :func:`page_aligned_set_indices`.

:class:`OracleEvictionSetBuilder` produces identical grouping using
simulator introspection at zero simulated cost — used by experiments whose
subject is *not* eviction-set construction (e.g. channel capacity sweeps),
as recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.attack.timing import LatencyThreshold
from repro.telemetry.quality import (
    quality_registry,
    record_evset_report,
    record_probe_latencies,
)


def page_aligned_set_indices(geometry, page_size: int = 4096) -> list[int]:
    """Set indices a page-aligned address can map to (multiples of 64)."""
    step = page_size // geometry.line_size
    if step >= geometry.sets_per_slice:
        return [0]
    return list(range(0, geometry.sets_per_slice, step))


class EvictionSet:
    """A probe-ready set of attacker addresses mapping to one cache set.

    ``probe`` traverses the addresses in the reverse of the previous
    traversal (the classic zig-zag), which both measures interference since
    the last probe and re-primes the set for the next one.
    """

    def __init__(
        self,
        process,
        addrs: list[int],
        threshold: LatencyThreshold,
        set_index: int | None = None,
        label: str = "",
    ) -> None:
        if not addrs:
            raise ValueError("eviction set needs at least one address")
        self.process = process
        self.addrs = list(addrs)
        self.threshold = threshold
        self.set_index = set_index
        self.label = label
        self._telemetry = process.machine.telemetry
        #: Physical addresses aligned with :attr:`addrs`, resolved lazily
        #: (translation is deterministic and the pages stay mapped).  One
        #: probe traversal then costs one batched machine call instead of
        #: one Python call per line.  The slice/set decomposition is
        #: cached alongside so the complex hash runs once per set ever.
        self._paddrs: np.ndarray | None = None
        self._flats: np.ndarray | None = None
        self._lines: np.ndarray | None = None
        #: Bumped on every zig-zag flip; lets sweep-level callers cache
        #: concatenated traversal arrays keyed by orientation.
        self.version = 0

    def __len__(self) -> int:
        return len(self.addrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvictionSet({self.label or self.set_index}, n={len(self.addrs)})"

    def paddrs(self) -> np.ndarray:
        """Physical addresses in current traversal order (cached)."""
        if self._paddrs is None:
            translate = self.process.addrspace.translate
            self._paddrs = np.fromiter(
                (translate(addr) for addr in self.addrs),
                np.int64,
                count=len(self.addrs),
            )
            self._flats, self._lines = self.process.machine.llc.decompose_many(
                self._paddrs
            )
        return self._paddrs

    def decomp(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(flats, lines)`` decomposition, traversal-order aligned."""
        self.paddrs()
        return self._flats, self._lines

    def probe_order_paddrs(self) -> np.ndarray:
        """The reverse-of-last-traversal order the next probe will use."""
        return self.paddrs()[::-1]

    def flip(self, times: int = 1) -> None:
        """Record ``times`` zig-zag traversals (reverse the stored order
        when ``times`` is odd)."""
        self.version += times
        if not times & 1:
            return
        self.addrs.reverse()
        if self._paddrs is not None:
            self._paddrs = self._paddrs[::-1]
            self._flats = self._flats[::-1]
            self._lines = self._lines[::-1]

    def prime(self) -> None:
        """Fill the cache set with our lines (untimed traversal)."""
        self.process.machine.cpu_access_many(self.paddrs(), decomp=self.decomp())

    def probe(self) -> int:
        """Timed zig-zag traversal; returns the number of misses seen.

        One batched machine call covers the whole traversal — the classic
        per-line loop collapsed into :meth:`Machine.cpu_access_many`.
        """
        flats, lines = self.decomp()
        lats = self.process.machine.cpu_access_many(
            self.probe_order_paddrs(),
            timed=True,
            decomp=(flats[::-1], lines[::-1]),
        )
        self.flip()
        misses = int((lats > self.threshold.threshold).sum())
        tele = self._telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.histogram("probe.latency_cycles").observe_many(lats)
            tele.metrics.counter("probe.accesses").inc(len(self.addrs))
            if misses:
                tele.metrics.counter("probe.misses").inc(misses)
            registry = quality_registry(tele)
            if registry is not None:
                record_probe_latencies(registry, lats, self.threshold.threshold)
        return misses

    def probe_fast(self) -> int:
        """Probe without per-access timer overhead (one fence per set).

        Models an attacker timing the whole traversal instead of each load;
        returns misses inferred from aggregate latency.
        """
        machine = self.process.machine
        timing = machine.llc.timing
        flats, lines = self.decomp()
        lats = machine.cpu_access_many(
            self.probe_order_paddrs(), decomp=(flats[::-1], lines[::-1])
        )
        self.flip()
        total = int(lats.sum())
        machine.clock.advance(timing.measure_overhead)
        baseline = timing.llc_hit_latency * len(self.addrs)
        return max(
            0,
            round((total - baseline) / (timing.llc_miss_latency - timing.llc_hit_latency)),
        )


@dataclass
class ClusterReport:
    """Outcome of clustering one set index, with degradation accounting.

    Under injected noise, group-testing reductions can fail spuriously;
    rather than silently returning fewer groups, the builder reports how
    many of the expected per-slice groups it found (``confidence``) and how
    many reduction retries the noise cost, so consumers can decide whether
    a partial monitor list is good enough to attack with.
    """

    set_index: int
    groups: list["EvictionSet"] = field(default_factory=list)
    expected: int = 0
    retries: int = 0
    failed_reductions: int = 0

    @property
    def confidence(self) -> float:
        """Fraction of expected conflict groups actually resolved."""
        if self.expected <= 0:
            return 1.0
        return min(1.0, len(self.groups) / self.expected)


class EvictionSetBuilder:
    """Timing-only construction of eviction sets from huge-page memory.

    ``reduce_attempts`` bounds retry-with-backoff around failed group-test
    reductions.  ``None`` (the default) resolves to 1 on a quiet machine —
    the historical single-shot behaviour, bit-identical to older builds —
    and to 3 when the machine carries an active fault plan, where spurious
    reduction failures are expected and worth retrying.
    """

    #: Base idle-cycles backoff before a reduction retry (doubles per retry).
    RETRY_BACKOFF_CYCLES = 50_000

    def __init__(
        self,
        process,
        threshold: LatencyThreshold,
        huge_pages: int = 16,
        ways: int | None = None,
        reduce_attempts: int | None = None,
    ) -> None:
        self.process = process
        machine = process.machine
        self.geometry = machine.llc.geometry
        self.ways = ways or self.geometry.ways
        self.threshold = threshold
        self.huge_page_bytes = 2 * 1024 * 1024
        self.n_huge_pages = huge_pages
        self.base = process.mmap_huge(huge_pages)
        self._line = self.geometry.line_size
        self._index_span = self.geometry.sets_per_slice * self._line
        if reduce_attempts is None:
            reduce_attempts = 3 if getattr(machine, "faults", None) is not None else 1
        if reduce_attempts < 1:
            raise ValueError(f"reduce_attempts must be >= 1, got {reduce_attempts}")
        self.reduce_attempts = reduce_attempts

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def candidates(self, set_index: int, limit: int | None = None) -> list[int]:
        """All addresses in our huge pages with the given set index."""
        if not 0 <= set_index < self.geometry.sets_per_slice:
            raise ValueError(f"set_index {set_index} out of range")
        total = self.n_huge_pages * self.huge_page_bytes
        out = []
        offset = set_index * self._line
        while offset < total:
            out.append(self.base + offset)
            offset += self._index_span
            if limit is not None and len(out) >= limit:
                break
        return out

    # ------------------------------------------------------------------
    # Timing primitives
    # ------------------------------------------------------------------
    def evicts(self, addrs: list[int], victim: int) -> bool:
        """Does traversing ``addrs`` evict ``victim``?  (access, traverse,
        time the re-access).

        The traversal goes through one batched machine call — semantically
        one :meth:`Process.access` per address, in order — because group
        testing issues O(pool log pool) of these and the per-call Python
        overhead dominated construction cost.
        """
        process = self.process
        process.access(victim)
        if addrs:
            process.access_many(
                np.fromiter(addrs, np.int64, count=len(addrs))
            )
        return self.threshold.is_miss(process.timed_access(victim))

    def reduce(self, pool: list[int], victim: int) -> list[int] | None:
        """Group-testing reduction to a minimal eviction set for ``victim``.

        Returns ``ways`` addresses that conflict with ``victim``, or None if
        the pool doesn't contain enough same-set addresses.
        """
        working = list(pool)
        if not self.evicts(working, victim):
            return None
        while len(working) > self.ways:
            n_chunks = self.ways + 1
            chunk_size = -(-len(working) // n_chunks)
            for start in range(0, len(working), chunk_size):
                trial = working[:start] + working[start + chunk_size:]
                if trial and self.evicts(trial, victim):
                    working = trial
                    break
            else:
                # No chunk removable: pool has barely more than `ways`
                # same-set members spread across every chunk.  Fall back to
                # one-at-a-time removal.
                reduced = False
                for i in range(len(working)):
                    trial = working[:i] + working[i + 1:]
                    if trial and self.evicts(trial, victim):
                        working = trial
                        reduced = True
                        break
                if not reduced:
                    return None
        return working if self.evicts(working, victim) else None

    def reduce_with_retry(
        self, pool: list[int], victim: int
    ) -> tuple[list[int] | None, int]:
        """:meth:`reduce` with bounded retry-with-backoff.

        A reduction that fails under noise (a jittered measurement
        misclassifying one eviction test) often succeeds on a quieter
        retry; each retry first idles exponentially longer to let
        in-flight interference drain.  Returns ``(core, retries_used)``.
        """
        retries = 0
        for attempt in range(self.reduce_attempts):
            if attempt:
                self.process.compute(self.RETRY_BACKOFF_CYCLES << (attempt - 1))
                retries += 1
            core = self.reduce(list(pool), victim)
            if core is not None:
                return core, retries
        return None, retries

    def conflicts(self, es: EvictionSet, addr: int) -> bool:
        """Does ``addr`` map to the same cache set as ``es``?"""
        es.prime()
        self.process.access(addr)
        return es.probe() > 0

    # ------------------------------------------------------------------
    # Clustering
    # ------------------------------------------------------------------
    def cluster_index(
        self, set_index: int, n_groups: int | None = None
    ) -> list[EvictionSet]:
        """Split one set index's candidates into per-slice conflict groups.

        Returns up to ``n_groups`` (default: slice count) eviction sets.
        Group order is arbitrary — the attacker cannot name slices, only
        distinguish them.
        """
        return self.cluster_index_report(set_index, n_groups).groups

    def cluster_index_report(
        self, set_index: int, n_groups: int | None = None
    ) -> ClusterReport:
        """:meth:`cluster_index` with partial-result accounting.

        The returned report carries whatever groups were resolved plus a
        confidence score (groups found / groups expected) and retry
        counts, so a noisy run degrades to a smaller monitor list instead
        of an exception.

        Under a randomized index backend (``keyed``/``skewed`` — see
        :mod:`repro.cache.backends`) the huge-page set-index bits no
        longer predict placement, so a "set index" pool scatters over
        many cache sets and most reductions fail: the same accounting
        then reports the attacker's *degraded* reality (low confidence,
        high ``failed_reductions``) rather than raising — exactly what
        the ``randomized-cache`` experiment measures.
        """
        n_groups = n_groups or self.geometry.n_slices
        report = ClusterReport(set_index=set_index, expected=n_groups)
        remaining = self.candidates(set_index)
        groups = report.groups
        while remaining and len(groups) < n_groups:
            victim = remaining.pop(0)
            core, retries = self.reduce_with_retry(remaining, victim)
            report.retries += retries
            if core is None:
                report.failed_reductions += 1
                continue
            es = EvictionSet(
                self.process,
                core,
                self.threshold,
                set_index=set_index,
                label=f"idx{set_index}.g{len(groups)}",
            )
            core_set = set(core)
            keep = []
            for addr in remaining:
                if addr in core_set:
                    continue
                if not self.conflicts(es, addr):
                    keep.append(addr)
            remaining = keep
            groups.append(es)
        registry = quality_registry(self.process.machine.telemetry)
        if registry is not None:
            record_evset_report(registry, report)
        return report

    def build_page_aligned_groups(
        self, block: int = 0, page_size: int = 4096
    ) -> list[EvictionSet]:
        """Eviction sets for every (page-aligned set index + block, slice).

        ``block`` shifts the target from buffer block 0 to block ``k`` (the
        paper constructs these to read packet *sizes*).
        """
        groups: list[EvictionSet] = []
        for index in page_aligned_set_indices(self.geometry, page_size):
            target = (index + block) % self.geometry.sets_per_slice
            groups.extend(self.cluster_index(target))
        return groups


class OracleEvictionSetBuilder:
    """Eviction sets grouped by simulator ground truth (zero probe cost).

    The returned sets are *real* attacker addresses in the simulated cache —
    only the grouping labour is skipped.  ``label`` encodes the true
    (slice, set) for experiment bookkeeping.
    """

    def __init__(
        self,
        process,
        threshold: LatencyThreshold,
        huge_pages: int = 16,
        ways: int | None = None,
    ) -> None:
        self.process = process
        machine = process.machine
        self.llc = machine.llc
        self.geometry = machine.llc.geometry
        self.ways = ways or self.geometry.ways
        self.threshold = threshold
        self.huge_page_bytes = 2 * 1024 * 1024
        self.n_huge_pages = huge_pages
        self.base = process.mmap_huge(huge_pages)
        self._line = self.geometry.line_size
        self._index_span = self.geometry.sets_per_slice * self._line
        #: vaddrs of every huge-page line bucketed by true flat set id,
        #: rebuilt when the LLC's mapping epoch changes (a re-key moves
        #: every line to a new set).
        self._flat_groups_cache: dict[int, list[int]] | None = None
        self._flat_groups_epoch = -1

    def groups_for_index(self, set_index: int) -> dict[int, EvictionSet]:
        """slice id -> eviction set, for one set index.

        The candidates (every huge-page line with this set index, in
        address order) are translated per huge page — each is physically
        contiguous — and hashed in one vectorised slice-hash pass.
        """
        offsets = np.arange(
            set_index * self._line,
            self.n_huge_pages * self.huge_page_bytes,
            self._index_span,
            dtype=np.int64,
        )
        paddrs = self._page_paddrs()[offsets // self.huge_page_bytes] + (
            offsets % self.huge_page_bytes
        )
        slices = self.llc.slice_hash.slice_of_many(paddrs)
        vaddrs = self.base + offsets
        out: dict[int, EvictionSet] = {}
        for slice_id in np.unique(slices).tolist():
            addrs = vaddrs[slices == slice_id]
            if len(addrs) < self.ways:
                continue
            out[slice_id] = EvictionSet(
                self.process,
                addrs[: self.ways].tolist(),
                self.threshold,
                set_index=set_index,
                label=f"idx{set_index}.s{slice_id}",
            )
        return out

    def _page_paddrs(self) -> np.ndarray:
        """Physical base address of each mapped huge page."""
        translate = self.process.addrspace.translate
        return np.fromiter(
            (
                translate(self.base + page * self.huge_page_bytes)
                for page in range(self.n_huge_pages)
            ),
            np.int64,
            count=self.n_huge_pages,
        )

    def group_for(self, set_index: int, slice_id: int) -> EvictionSet:
        """The eviction set covering one exact (set index, slice)."""
        groups = self.groups_for_index(set_index)
        try:
            return groups[slice_id]
        except KeyError:
            raise RuntimeError(
                f"not enough huge-page candidates for idx {set_index} "
                f"slice {slice_id}; map more huge pages"
            ) from None

    # ------------------------------------------------------------------
    # Flat-set grouping (index-backend agnostic)
    # ------------------------------------------------------------------
    def _flat_groups(self) -> dict[int, list[int]]:
        """vaddr buckets keyed by true flat set id over all huge pages.

        :meth:`groups_for_index` assumes the modulo index function (set
        bits of the address pick the set); under a randomized backend
        that shortcut is wrong, so this path asks the mapping itself via
        :meth:`~repro.cache.llc.SlicedLLC.decompose_many`.  The scan is
        vectorised per huge page (physically contiguous) and cached
        until the mapping's epoch changes.
        """
        epoch = self.llc.mapping_epoch
        if self._flat_groups_cache is not None and self._flat_groups_epoch == epoch:
            return self._flat_groups_cache
        lines_per_page = self.huge_page_bytes // self._line
        offsets = np.arange(lines_per_page, dtype=np.int64) * self._line
        by_flat: dict[int, list[int]] = defaultdict(list)
        for page, page_paddr in enumerate(self._page_paddrs().tolist()):
            page_vaddr = self.base + page * self.huge_page_bytes
            flats, _lines = self.llc.decompose_many(page_paddr + offsets)
            for off, flat in zip(offsets.tolist(), flats.tolist()):
                by_flat[flat].append(page_vaddr + off)
        self._flat_groups_cache = by_flat
        self._flat_groups_epoch = epoch
        return by_flat

    def group_for_flat(self, flat: int, label: str = "") -> EvictionSet:
        """The eviction set covering one flat set id, however it's mapped.

        Works for every index backend — the grouping consults the live
        mapping, not address bits — and is the monitor-placement oracle
        the ``randomized-cache`` experiment uses for its sequence and
        covert legs (construction *cost* is measured separately by the
        timing-based builder).
        """
        addrs = self._flat_groups().get(flat, [])
        if len(addrs) < self.ways:
            raise RuntimeError(
                f"not enough huge-page candidates for flat set {flat} "
                f"({len(addrs)} < {self.ways}); map more huge pages"
            )
        return EvictionSet(
            self.process,
            addrs[: self.ways],
            self.threshold,
            set_index=None,
            label=label or f"flat{flat}",
        )

    def build_page_aligned_groups(
        self, block: int = 0, page_size: int = 4096
    ) -> list[EvictionSet]:
        """Oracle-grouped counterpart of the timing-based bulk builder."""
        groups: list[EvictionSet] = []
        for index in page_aligned_set_indices(self.geometry, page_size):
            target = (index + block) % self.geometry.sets_per_slice
            groups.extend(self.groups_for_index(target).values())
        return groups
