"""PRIME+PROBE monitoring over a list of eviction sets.

This is the Mastik-equivalent layer: given eviction sets for the cache sets
of interest, ``sample`` runs the PRIME - IDLE - PROBE loop and returns an
activity matrix (samples x sets of miss counts).  The probe *rate* — how
long the idle step waits — is the paper's central tuning knob: it must be
long enough that one packet's activity lands in one sample, and short
enough not to lose the temporal order of consecutive packets (Table I's
parameters: 8000 probes/s against 0.2 M packets/s).

Since the engine refactor a timed probe sweep is a *single* batched
machine call over the concatenation of every monitored set's traversal:
:meth:`Machine.cpu_access_many` preserves per-access event and clock
semantics, so the combined sweep is cycle-identical to the historical
per-line Python loop while running an order of magnitude faster.

The trace itself is **columnar**: :class:`SampleTrace` holds one packed
``(n_samples, n_sets)`` int64 matrix plus an int64 times vector, filled
in place by the sweep loop (no per-sweep Python lists), and every
downstream consumer — sequencer graph build, discovery co-occurrence,
covert decode, activity summaries — operates on it with array kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attack.evictionset import EvictionSet, timed_probe
from repro.telemetry.quality import ProbeSweepAccumulator, quality_registry


@dataclass
class SampleTrace:
    """Result of a monitoring session, stored columnar.

    ``samples`` is a packed ``(n_samples, n_sets)`` int64 matrix —
    ``samples[i, j]`` = misses observed in probe i on monitored set j —
    and ``times`` an int64 vector of sweep-start times.  The constructor
    still accepts plain (possibly nested) lists and packs them once;
    activity summaries are computed once and cached.
    """

    #: samples[i, j] = misses observed in probe i on monitored set j.
    samples: np.ndarray
    #: Simulated time at the start of each probe sweep.
    times: np.ndarray
    set_labels: list[str]
    _counts: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _fractions: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.int64)
        if samples.ndim != 2:
            if samples.size:
                raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
            samples = samples.reshape(0, len(self.set_labels))
        self.samples = samples
        self.times = np.asarray(self.times, dtype=np.int64)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_sets(self) -> int:
        return len(self.set_labels)

    def activity_counts(self) -> list[int]:
        """Per-set count of samples with at least one miss (cached)."""
        if self._counts is None:
            if self.samples.shape[0]:
                self._counts = (self.samples > 0).sum(axis=0, dtype=np.int64)
            else:
                self._counts = np.zeros(self.n_sets, dtype=np.int64)
        return [int(c) for c in self._counts]

    def activity_fraction(self) -> list[float]:
        """Per-set fraction of active samples (cached)."""
        if self._fractions is None:
            counts = self.activity_counts()
            n = self.samples.shape[0] if self.samples is not None else 0
            if not n:
                self._fractions = [0.0] * self.n_sets
            else:
                self._fractions = [c / n for c in counts]
        return self._fractions


class SetSweep:
    """One batched timed probe over a fixed list of eviction sets.

    The concatenation of every set's zig-zag traversal goes out through
    one :func:`~repro.attack.evictionset.timed_probe` call — access
    order, event timing and the clock are identical to probing the sets
    one after another — and the probe telemetry is recorded once for the
    batch.  Each set's threshold is read on the first probe and kept: a
    consumer whose thresholds change (a recalibration) builds a new
    sweep.  Used by :class:`ProbeMonitor`, the covert receiver and the
    packet chaser.
    """

    def __init__(self, process, sets: list[EvictionSet]) -> None:
        if not sets:
            raise ValueError("sweep over an empty set list")
        self.process = process
        self.sets = list(sets)
        self._n_accesses = sum(len(es) for es in self.sets)
        #: Concatenated traversal arrays per orientation signature.  A
        #: zig-zag sweep alternates between two signatures, so this holds
        #: two entries in steady state; interleaved per-set probes just
        #: miss the cache and rebuild.
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._offsets: np.ndarray | None = None
        self._thresholds: np.ndarray | None = None
        self._batcher: ProbeSweepAccumulator | None = None

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = bytes(es.version & 1 for es in self.sets)
        cached = self._cache.get(key)
        if cached is None:
            decomps = [es.decomp() for es in self.sets]
            cached = (
                np.concatenate([es.probe_order_paddrs() for es in self.sets]),
                np.concatenate([f[::-1] for f, _l in decomps]),
                np.concatenate([l[::-1] for _f, l in decomps]),
            )
            if len(self._cache) >= 4:
                self._cache.clear()
            self._cache[key] = cached
        if self._offsets is None:
            lens = np.fromiter(
                (len(es) for es in self.sets), np.int64, count=len(self.sets)
            )
            self._offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
            self._thresholds = np.repeat(
                np.fromiter(
                    (es.threshold.threshold for es in self.sets),
                    np.float64,
                    count=len(self.sets),
                ),
                lens,
            )
            self._batcher = ProbeSweepAccumulator(self._thresholds, self._offsets)
        return cached

    def probe(self) -> np.ndarray:
        """Timed zig-zag sweep; returns per-set miss counts (int64)."""
        combined, flats, lines = self._arrays()
        counts = timed_probe(
            self.process.machine,
            combined,
            (flats, lines),
            self._thresholds,
            self._offsets,
            self._batcher,
        )
        for es in self.sets:
            es.flip()
        return counts

    def skip_quiet_polls(
        self, poll_start: int, next_event: int | None, deadline: int, poll_wait: int
    ) -> int:
        """Fast-forward the identical polls that follow a quiet poll.

        Called by the spy's clock-poll loop right after one real
        :meth:`probe` that started at ``poll_start`` (when the earliest
        pending event was ``next_event``) and its ``poll_wait`` idle.
        That poll was *quiet* if it cost exactly n·(hit + timer overhead)
        + ``poll_wait`` — every access hit — and no event was due before
        the wait ended.  From a quiet poll ending at ``now``, the next k
        polls of period P are identical all-hit traversals as long as
        they start before ``deadline``, ``now + k·P`` precedes the next
        event and, on an epochal backend, their k·n accesses come before
        the re-key.  The first k−1 are applied at once — clock, hit and
        tick credits, zig-zag parity, probe telemetry — and poll k is left
        to the caller to run for real: it restamps every line, so LRU
        stamps end exactly as the per-poll loop leaves them.

        Fault plans (per-access jitter draws) and the partition defense
        (it reads the clock on fills) keep the per-poll loop.  Returns
        the number of polls skipped.
        """
        machine = self.process.machine
        llc = machine.llc
        tele = machine.telemetry
        metrics = tele.metrics if tele is not None and tele.metrics.enabled else None
        if machine.faults is not None or llc.partition is not None:
            if metrics is not None:
                reason = "faults" if machine.faults is not None else "partition"
                metrics.counter(f"path.chase_poll.decline.{reason}").inc()
            return 0
        n = self._n_accesses
        lat = llc.timing.llc_hit_latency + llc.timing.measure_overhead
        period = n * lat + poll_wait
        now = machine.clock.now
        if now - poll_start != period:
            return 0  # a miss in the poll
        k = -(-(deadline - now) // period)  # polls that start before the deadline
        if next_event is not None:
            # Also declines (k <= 0) when an event fired during the poll
            # or its wait: it may have evicted a line already probed.
            k = min(k, (next_event - now - 1) // period)
        if llc.mapping.epoch_period:
            k = min(k, llc.accesses_until_rekey() // n)
        skipped = k - 1
        if skipped < 1:
            return 0
        machine.clock.advance(skipped * period)
        llc.credit_resident_hits(skipped * n)
        for es in self.sets:
            es.flip(skipped)
        if metrics is not None:
            lats = np.full(n, lat, dtype=np.int64)
            metrics.histogram("probe.latency_cycles").observe_many(lats, skipped)
            metrics.counter("probe.accesses").inc(skipped * n)
            registry = quality_registry(tele)
            if registry is not None:
                self._batcher.add_copies(registry, lats, skipped)
            metrics.counter("path.chase_poll.skipped").inc(skipped)
            metrics.counter("path.chase_poll.skipped_cycles").inc(skipped * period)
        return skipped


class ProbeMonitor:
    """Prime+probe driver over a fixed monitor list.

    Every sweep is one :class:`SetSweep` probe over the whole list; the
    sweep is rebuilt on each recovery, so healed sets and recalibrated
    thresholds take effect from the next sweep on.
    """

    def __init__(
        self, process, eviction_sets: list[EvictionSet], supervisor=None
    ) -> None:
        if not eviction_sets:
            raise ValueError("monitor list is empty")
        self.process = process
        self.sets = list(eviction_sets)
        self._sweep = SetSweep(process, self.sets)
        #: Optional :class:`~repro.attack.adaptive.AdaptiveSupervisor`.
        #: When absent (the default) no adaptive machinery runs and the
        #: sample loop is bit-identical to pre-adaptive builds.
        self.supervisor = supervisor
        if supervisor is not None:
            supervisor.track(*self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def _apply_recovery(self, event) -> None:
        """Swap in healed sets / refreshed thresholds, then re-prime."""
        if event.kind == "heal" and event.payload:
            self.sets = list(event.payload)
            self.supervisor.untrack_all()
            self.supervisor.track(*self.sets)
        self._sweep = SetSweep(self.process, self.sets)
        self.prime()

    def prime(self) -> None:
        """Initial fill of every monitored set."""
        tele = self.process.machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "prime",
                cat="attack",
                args={
                    "sets": len(self.sets),
                    "sim_now": self.process.machine.clock.now,
                },
            ):
                for es in self.sets:
                    es.prime()
            return
        for es in self.sets:
            es.prime()

    def probe_once(self) -> list[int]:
        """One sweep over all monitored sets; returns per-set miss counts."""
        return [int(v) for v in self._sweep.probe()]

    def sample(self, n_samples: int, wait_cycles: int = 0) -> SampleTrace:
        """Run the PRIME - IDLE(wait_cycles) - PROBE loop ``n_samples`` times.

        The trace matrix is preallocated and each sweep's miss-count row
        is written in place — no per-sweep Python lists anywhere on the
        path from probe to analysis.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        machine = self.process.machine
        tele = machine.telemetry
        traced = tele is not None and tele.tracer.enabled
        self.prime()
        samples = np.empty((n_samples, len(self.sets)), dtype=np.int64)
        times = np.empty(n_samples, dtype=np.int64)
        for i in range(n_samples):
            if wait_cycles:
                machine.idle(wait_cycles)
            times[i] = machine.clock.now
            if traced:
                with tele.tracer.span(
                    "probe",
                    cat="attack",
                    args={"sample": i, "sim_now": machine.clock.now},
                ):
                    row = self._sweep.probe()
                tele.tracer.counter(
                    "probe.misses", {"misses": int(row.sum())}, cat="attack"
                )
            else:
                row = self._sweep.probe()
            samples[i] = row
            if self.supervisor is not None:
                event = self.supervisor.observe(int((row > 0).sum()), row.size)
                if event is not None:
                    self._apply_recovery(event)
        if tele is not None and tele.metrics.enabled:
            tele.metrics.counter("probe.sweeps").inc(n_samples)
        return SampleTrace(
            samples=samples,
            times=times,
            set_labels=[es.label or str(es.set_index) for es in self.sets],
        )
