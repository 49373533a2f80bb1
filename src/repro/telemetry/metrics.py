"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the numerical half of telemetry (the tracer is the
temporal half): component hook sites increment counters and observe
latencies, experiments snapshot the registry per phase, and the runner
merges per-shard snapshots back into the parent registry so ``--jobs N``
loses nothing.

Histograms use *fixed* buckets so that snapshots from different shards
merge by element-wise addition — the same trick Prometheus uses — and the
default bucket edges are chosen for probe latencies in cycles (an LLC hit
is ~40 cycles, a miss ~90+ on the simulated timing model).
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Default bucket upper edges (inclusive) for probe-latency histograms, in
#: CPU cycles.  Spans the hit/miss split of the simulated timing model.
PROBE_LATENCY_BUCKETS = (25, 50, 75, 100, 150, 200, 300, 500, 1000, 2000)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are upper edges; one overflow bucket is implicit.  Two
    histograms with identical edges merge by adding their bucket counts.
    """

    __slots__ = ("buckets", "_edges", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = PROBE_LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"bucket edges must be non-empty and ascending: {buckets}")
        self.buckets = tuple(buckets)
        self._edges = np.asarray(buckets, dtype=np.float64)
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values, repeat: int = 1) -> None:
        """Batched :meth:`observe` — same final state, one numpy pass.

        ``value <= edge`` bucketing matches the scalar loop exactly:
        ``searchsorted(side="left")`` returns the first edge >= value, and
        index ``len(buckets)`` is the implicit overflow bucket.
        ``repeat`` observes ``values`` that many times over (counts, min
        and max exact; the sum is one multiplication, so it matches
        repeated addition exactly for integer-valued data).
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        idx = np.searchsorted(self._edges, arr, side="left")
        binned = np.bincount(idx, minlength=len(self.buckets) + 1)
        for i, n in enumerate(binned):
            if n:
                self.counts[i] += int(n) * repeat
        self.sum += float(arr.sum()) * repeat
        self.count += arr.size * repeat
        lo = float(arr.min())
        hi = float(arr.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated percentile estimate, ``q`` in [0, 100].

        The target rank comes from the shared rule in
        :func:`repro.analysis.stats.percentile_rank` (the same one the
        discrete nearest-rank ``stats.percentile`` realises); here the
        samples are gone, so ranks are interpolated linearly inside the
        bucket that contains the target rank.  The first bucket's lower
        edge is the observed minimum and the overflow bucket's upper edge
        is the observed maximum, so estimates never leave the observed
        value range.
        """
        from repro.analysis.stats import percentile_rank

        target = percentile_rank(self.count, q)
        if self.count == 0 or self.min is None or self.max is None:
            return 0.0
        cumulative = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            lo = self.buckets[i - 1] if i > 0 else self.min
            hi = self.buckets[i] if i < len(self.buckets) else self.max
            lo = max(float(lo), self.min)
            hi = min(float(hi), self.max)
            if cumulative + n >= target:
                fraction = (target - cumulative) / n
                value = lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
                return float(min(max(value, self.min), self.max))
            cumulative += n
        return float(self.max)

    def percentiles(
        self, qs: tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> dict[str, float]:
        """``{"p50": ..., ...}`` via :meth:`percentile` (snapshot-friendly)."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            # Derived, ignored by merge_dict (which folds raw counts and
            # recomputes): here so JSON snapshots carry p50/p95/p99.
            "percentiles": self.percentiles(),
        }

    def merge_dict(self, snap: dict) -> None:
        if list(snap["buckets"]) != list(self.buckets):
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{snap['buckets']} != {list(self.buckets)}"
            )
        for i, c in enumerate(snap["counts"]):
            self.counts[i] += c
        self.sum += snap["sum"]
        self.count += snap["count"]
        for bound, pick in (("min", min), ("max", max)):
            other = snap.get(bound)
            ours = getattr(self, bound)
            if other is not None:
                setattr(self, bound, other if ours is None else pick(ours, other))


class MetricsRegistry:
    """Named metrics with snapshot / merge / per-phase delta support."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: phase name -> counter/histogram-count deltas captured between
        #: begin_phase/end_phase (repeated phases accumulate).
        self.phases: dict[str, dict[str, Any]] = {}
        self._phase_stack: list[tuple[str, dict]] = []

    # -- get-or-create ------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, buckets: tuple[float, ...] = PROBE_LATENCY_BUCKETS
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(buckets)
        return h

    # -- snapshots ----------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict state of every metric (picklable, mergeable)."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {k: h.to_dict() for k, h in self._histograms.items()},
            "phases": {k: dict(v) for k, v in self.phases.items()},
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot into this one (shard merge)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hsnap in snap.get("histograms", {}).items():
            self.histogram(name, tuple(hsnap["buckets"])).merge_dict(hsnap)
        for phase, delta in snap.get("phases", {}).items():
            mine = self.phases.setdefault(phase, {})
            for key, value in delta.items():
                mine[key] = mine.get(key, 0) + value

    # -- phases -------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Start capturing counter/histogram-count deltas under ``name``."""
        base = {
            "counters": {k: c.value for k, c in self._counters.items()},
            "hist_counts": {k: h.count for k, h in self._histograms.items()},
        }
        self._phase_stack.append((name, base))

    def end_phase(self) -> dict[str, Any]:
        """Close the innermost phase; returns (and stores) its deltas."""
        if not self._phase_stack:
            raise RuntimeError("end_phase() without begin_phase()")
        name, base = self._phase_stack.pop()
        delta: dict[str, Any] = {}
        for key, counter in self._counters.items():
            d = counter.value - base["counters"].get(key, 0)
            if d:
                delta[key] = d
        for key, hist in self._histograms.items():
            d = hist.count - base["hist_counts"].get(key, 0)
            if d:
                delta[f"{key}.observations"] = d
        stored = self.phases.setdefault(name, {})
        for key, value in delta.items():
            stored[key] = stored.get(key, 0) + value
        return delta

    class _Phase:
        __slots__ = ("_registry", "_name")

        def __init__(self, registry: "MetricsRegistry", name: str) -> None:
            self._registry = registry
            self._name = name

        def __enter__(self):
            self._registry.begin_phase(self._name)
            return self._registry

        def __exit__(self, *exc_info) -> None:
            self._registry.end_phase()

    def phase(self, name: str) -> "MetricsRegistry._Phase":
        """Context-manager form of begin_phase/end_phase."""
        return MetricsRegistry._Phase(self, name)
