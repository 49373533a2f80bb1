"""Channel-quality estimators for the attack/analysis hook sites.

The paper's claims are signal-quality claims — probe-latency separation,
threshold placement, ring-order recovery fidelity, covert bit error rate —
so this module turns the raw numbers those layers already compute into
named metrics on the ambient :class:`~repro.telemetry.metrics.MetricsRegistry`:

====================================  =======================================
``quality.calibration.*``             SNR / threshold margin / drift between
                                      successive calibrations
``quality.probe.*``                   tightest per-set latency-vs-threshold
                                      margin and hit/miss separation
``quality.evset.*``                   eviction-set construction health
                                      (retries, failed reductions, cluster
                                      confidence)
``quality.sequencer.*``               recovery graph size, replaced noisy
                                      sets, per-set activity fractions
``quality.chase.*``                   packet-chasing sync health
``quality.covert.*``                  substitution/insertion/deletion error
                                      breakdown and realized capacity
``quality.fingerprint.*``             confusion-matrix cells
====================================  =======================================

Every estimator is *read-only* over values the hot path already produced
(no RNG draws, no clock advances), and every hook site guards on
``telemetry.metrics.enabled``, so with telemetry off the instruction
stream is bit-identical — the property the telemetry test suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.telemetry.metrics import MetricsRegistry

#: Bucket edges for d'-style SNR values (dimensionless).
SNR_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
#: Bucket edges for normalized threshold margins (1.0 = perfectly centred).
MARGIN_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0)
#: Bucket edges for [0, 1] fractions (confidence, activity, error rates).
FRACTION_BUCKETS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
#: Bucket edges for per-probe |latency - threshold| margins, in cycles.
MARGIN_CYCLES_BUCKETS = (5, 10, 20, 40, 80, 160, 320, 640)

#: Escape hatch used only by scripts/check_telemetry_overhead.py to isolate
#: the estimators' cost inside an *enabled* metrics session.  Not a user
#: knob; every record_* helper below no-ops while this is False.
_HOOKS_ENABLED = True


def set_hooks_enabled(value: bool) -> bool:
    """Flip the overhead-measurement switch; returns the previous value."""
    global _HOOKS_ENABLED
    previous = _HOOKS_ENABLED
    _HOOKS_ENABLED = bool(value)
    return previous


def quality_registry(telemetry) -> MetricsRegistry | None:
    """The registry to record quality metrics on, or ``None`` when off."""
    if (
        not _HOOKS_ENABLED
        or telemetry is None
        or not telemetry.metrics.enabled
    ):
        return None
    return telemetry.metrics


# ---------------------------------------------------------------------------
# pure estimators
# ---------------------------------------------------------------------------


def snr(
    hit_mean: float, miss_mean: float, hit_std: float, miss_std: float
) -> float:
    """d'-style separation: (miss - hit) mean gap over pooled spread.

    The pooled standard deviation is floored at one cycle so the noiseless
    simulated timing model (zero spread) yields a finite, JSON-safe value.
    """
    pooled = math.sqrt((hit_std**2 + miss_std**2) / 2.0)
    return (miss_mean - hit_mean) / max(pooled, 1.0)


def threshold_margin(hit_mean: float, miss_mean: float, threshold: float) -> float:
    """How centred the threshold sits between the class means.

    1.0 means exactly midway, 0.0 means touching one mean, negative means
    the threshold fell outside the [hit_mean, miss_mean] gap entirely.
    """
    gap = miss_mean - hit_mean
    if gap <= 0:
        return 0.0
    return 2.0 * min(threshold - hit_mean, miss_mean - threshold) / gap


@dataclass(frozen=True)
class DivergenceReport:
    """Windowed ground-truth-vs-recovered divergence for ring sequences."""

    #: normalized cyclic edit distance over the whole sequences
    overall: float
    #: normalized (plain) edit distance per aligned window
    per_window: tuple[float, ...]
    window: int

    @property
    def worst(self) -> float:
        return max(self.per_window) if self.per_window else self.overall

    @property
    def mean_windowed(self) -> float:
        if not self.per_window:
            return self.overall
        return sum(self.per_window) / len(self.per_window)


def windowed_divergence(
    recovered: Sequence[int], truth: Sequence[int], window: int = 16
) -> DivergenceReport:
    """Divergence of ``recovered`` from ``truth``, overall and per window.

    The truth is rotated to its best cyclic alignment first (ring order has
    no distinguished origin), then compared window-by-window so a locally
    garbled stretch shows up as a hot window instead of vanishing into the
    sequence-wide average.
    """
    from repro.analysis.levenshtein import (
        best_rotation,
        cyclic_levenshtein,
        levenshtein,
    )

    recovered = list(recovered)
    truth = list(truth)
    if not truth:
        return DivergenceReport(
            overall=1.0 if recovered else 0.0, per_window=(), window=window
        )
    overall = cyclic_levenshtein(recovered, truth) / len(truth)
    aligned = list(best_rotation(recovered, truth))
    per: list[float] = []
    span = max(len(aligned), len(recovered))
    for start in range(0, span, window):
        t_win = aligned[start : start + window]
        r_win = recovered[start : start + window]
        denominator = max(len(t_win), len(r_win), 1)
        per.append(levenshtein(r_win, t_win) / denominator)
    return DivergenceReport(overall=overall, per_window=tuple(per), window=window)


# ---------------------------------------------------------------------------
# metric orientation (used by `repro report` regression gating)
# ---------------------------------------------------------------------------

#: Substrings marking a metric where *smaller* is better.
_LOWER_TOKENS = (
    "error",
    "divergence",
    "distance",
    "mismatch",
    "drift",
    "out_of_sync",
    "failed",
    "retries",
    "loss",
    "overhead",
    "noise",
    "_ms",
    "seconds",
)
#: Metrics that are descriptive (reported, never gated): shape/scale facts
#: whose "better" direction is closeness to the paper, not a monotone axis.
_INFO_TOKENS = (
    "empty_set_fraction",
    "sets_per_instance",
    "max_buffers_on_one_set",
    "truth_len",
    "rekeys",
)


def metric_orientation(name: str) -> str:
    """``"lower"``, ``"higher"`` or ``"info"`` for a headline-metric name."""
    lowered = name.lower()
    for token in _INFO_TOKENS:
        if token in lowered:
            return "info"
    # profiling/wall seconds are costs, but *_seconds inside info names
    # were already handled above
    for token in _LOWER_TOKENS:
        if token in lowered:
            return "lower"
    return "higher"


# ---------------------------------------------------------------------------
# registry recorders (one per hook site)
# ---------------------------------------------------------------------------


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def record_calibration(
    registry: MetricsRegistry,
    hits: Sequence[float],
    misses: Sequence[float],
    threshold: float,
    attempts: int,
) -> None:
    """Calibration health: SNR, threshold margin, drift vs previous run."""
    hit_mean, hit_std = _mean_std(hits)
    miss_mean, miss_std = _mean_std(misses)
    value = snr(hit_mean, miss_mean, hit_std, miss_std)
    margin = threshold_margin(hit_mean, miss_mean, threshold)
    runs = registry.counter("quality.calibration.runs")
    previous = registry.gauge("quality.calibration.threshold")
    if runs.value:
        registry.gauge("quality.calibration.drift").set(
            abs(threshold - previous.value)
        )
    runs.inc()
    registry.counter("quality.calibration.attempts").inc(attempts)
    previous.set(float(threshold))
    registry.gauge("quality.calibration.hit_mean").set(hit_mean)
    registry.gauge("quality.calibration.miss_mean").set(miss_mean)
    registry.gauge("quality.calibration.snr_last").set(value)
    registry.gauge("quality.calibration.margin_last").set(margin)
    registry.histogram("quality.calibration.snr", SNR_BUCKETS).observe(value)
    registry.histogram("quality.calibration.margin", MARGIN_BUCKETS).observe(margin)


def _sweep_snr(lats: np.ndarray, miss_mask: np.ndarray, n_miss: int) -> float:
    """d'-style SNR of one mixed-class sweep.

    Hit-class statistics come from whole-sweep sums minus the miss-class
    sums (one fancy index and four reductions total), so the probe hot
    path never pays for two masked ``mean``/``std`` pairs.
    """
    n_hit = lats.size - n_miss
    miss_lats = lats[miss_mask]
    sum_all = float(lats.sum())
    sumsq_all = float(np.dot(lats, lats))
    sum_miss = float(miss_lats.sum())
    sumsq_miss = float(np.dot(miss_lats, miss_lats))
    hit_mean = (sum_all - sum_miss) / n_hit
    miss_mean = sum_miss / n_miss
    hit_var = max((sumsq_all - sumsq_miss) / n_hit - hit_mean**2, 0.0)
    miss_var = max(sumsq_miss / n_miss - miss_mean**2, 0.0)
    return snr(hit_mean, miss_mean, math.sqrt(hit_var), math.sqrt(miss_var))


class ProbeSweepAccumulator:
    """Batches ``quality.probe`` observations across probe sweeps.

    Per (sweep, monitored set) the recorded margin is the *tightest*
    per-line ``|latency - threshold|`` in cycles — the decision closest to
    flipping, i.e. how near that set's hit/miss classification came to the
    threshold.  Fixed-bucket histograms are order-independent, so these
    margins are computed and observed in one vectorized pass per
    ``flush_every`` sweeps; the steady-state per-sweep hook cost is a list
    append and two integer comparisons — the sweep's latency array is
    referenced, not copied (``cpu_access_many`` allocates a fresh array
    per sweep and the probe path never mutates it).  The SNR estimate
    still records per mixed-class sweep (that per-sweep separation *is*
    the quantity being measured), which is rare in quiet probe windows.

    The owner must call :meth:`flush` when its probing loop ends —
    ``ProbeMonitor`` does so at the end of ``sample()``/``probe_once()``.
    """

    __slots__ = ("registry", "flush_every", "_pending", "_thresholds", "_offsets")

    def __init__(
        self,
        registry: MetricsRegistry,
        thresholds: np.ndarray,
        offsets: np.ndarray,
        flush_every: int = 64,
    ) -> None:
        self.registry = registry
        #: per-access threshold vector / per-set start offsets into a sweep
        self._thresholds = thresholds
        self._offsets = offsets
        self.flush_every = flush_every
        self._pending: list[np.ndarray] = []

    def add(self, lats, miss_mask, n_miss: int) -> None:
        pending = self._pending
        pending.append(lats)
        if 0 < n_miss < lats.size:
            value = _sweep_snr(lats, miss_mask, n_miss)
            self.registry.gauge("quality.probe.snr_last").set(value)
            self.registry.histogram("quality.probe.snr", SNR_BUCKETS).observe(value)
        if len(pending) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        k = len(self._pending)
        block = self._pending[0] if k == 1 else np.concatenate(self._pending)
        margins = block.reshape(k, -1) - self._thresholds
        np.abs(margins, out=margins)
        per_set = np.minimum.reduceat(margins, self._offsets, axis=1)
        self.registry.histogram(
            "quality.probe.margin_cycles", MARGIN_CYCLES_BUCKETS
        ).observe_many(per_set.ravel())
        self._pending.clear()


def record_probe_latencies(
    registry: MetricsRegistry, lats, threshold, repeat: int = 1
) -> None:
    """Margin-only variant for single probes and batched set sweeps.

    ``threshold`` is a scalar (one set's probe) or a per-access float
    vector aligned with ``lats`` (a :class:`~repro.attack.primeprobe.SetSweep`
    over sets with differing thresholds); the recorded margins are
    identical either way.  ``repeat`` records ``repeat`` identical probes
    at once (fast-forwarded polls).
    """
    margins = np.abs(
        np.asarray(lats, dtype=np.float64) - np.asarray(threshold, dtype=np.float64)
    )
    registry.histogram(
        "quality.probe.margin_cycles", MARGIN_CYCLES_BUCKETS
    ).observe_many(margins, repeat)


def record_evset_report(registry: MetricsRegistry, report) -> None:
    """Eviction-set construction health from a ``ClusterReport``."""
    registry.counter("quality.evset.reports").inc()
    registry.counter("quality.evset.groups").inc(len(report.groups))
    registry.counter("quality.evset.expected_groups").inc(report.expected)
    registry.counter("quality.evset.retries").inc(report.retries)
    registry.counter("quality.evset.failed_reductions").inc(
        report.failed_reductions
    )
    registry.gauge("quality.evset.confidence_last").set(report.confidence)
    registry.histogram("quality.evset.confidence", FRACTION_BUCKETS).observe(
        report.confidence
    )


def record_sequence_recovery(
    registry: MetricsRegistry,
    n_sets: int,
    graph_edges: int,
    sequence_len: int,
    activity: Sequence[float],
    replaced_sets: int = 0,
) -> None:
    """Sequencer health: graph connectivity and per-set activity spread."""
    registry.counter("quality.sequencer.recoveries").inc()
    registry.counter("quality.sequencer.replaced_sets").inc(replaced_sets)
    registry.gauge("quality.sequencer.monitored_sets").set(float(n_sets))
    registry.gauge("quality.sequencer.graph_edges").set(float(graph_edges))
    registry.gauge("quality.sequencer.sequence_len").set(float(sequence_len))
    if len(activity):
        registry.histogram(
            "quality.sequencer.active_fraction", FRACTION_BUCKETS
        ).observe_many(np.asarray(activity, dtype=np.float64))


def record_divergence(registry: MetricsRegistry, report: DivergenceReport) -> None:
    """Ground-truth divergence of one recovered ring sequence."""
    registry.gauge("quality.sequencer.divergence").set(report.overall)
    registry.gauge("quality.sequencer.divergence_worst_window").set(report.worst)
    if report.per_window:
        registry.histogram(
            "quality.sequencer.window_divergence", FRACTION_BUCKETS
        ).observe_many(np.asarray(report.per_window, dtype=np.float64))


def record_chase(registry: MetricsRegistry, result) -> None:
    """Packet-chasing sync health from a ``ChaseResult``."""
    registry.counter("quality.chase.packets").inc(len(result.sizes))
    registry.counter("quality.chase.misses").inc(result.misses)
    registry.counter("quality.chase.resyncs").inc(result.resyncs)
    registry.gauge("quality.chase.out_of_sync_rate").set(result.out_of_sync_rate)


def record_channel_report(registry: MetricsRegistry, report) -> None:
    """Covert-channel BER breakdown and realized capacity."""
    registry.counter("quality.covert.symbols_sent").inc(report.symbols_sent)
    registry.counter("quality.covert.symbols_received").inc(
        report.symbols_received
    )
    registry.counter("quality.covert.substitutions").inc(report.substitutions)
    registry.counter("quality.covert.insertions").inc(report.insertions)
    registry.counter("quality.covert.deletions").inc(report.deletions)
    registry.gauge("quality.covert.error_rate_last").set(report.error_rate)
    registry.gauge("quality.covert.bandwidth_bps_last").set(report.bandwidth_bps)
    registry.gauge("quality.covert.effective_bps_last").set(
        report.effective_bandwidth_bps
    )
    registry.histogram("quality.covert.error_rate", FRACTION_BUCKETS).observe(
        min(report.error_rate, 1.0)
    )


def record_confusion(
    registry: MetricsRegistry, confusion: dict, suffix: str
) -> None:
    """Fingerprint confusion-matrix cells as counters.

    ``confusion`` maps ``(true_site, predicted_site)`` to a count; each
    cell becomes ``quality.fingerprint.<suffix>.confusion.<true>-><pred>``
    so shard merges add cell-wise and the report can rebuild the matrix.
    """
    total = 0
    correct = 0
    for (true_site, predicted), count in sorted(confusion.items()):
        registry.counter(
            f"quality.fingerprint.{suffix}.confusion.{true_site}->{predicted}"
        ).inc(count)
        total += count
        if true_site == predicted:
            correct += count
    registry.counter(f"quality.fingerprint.{suffix}.trials").inc(total)
    registry.counter(f"quality.fingerprint.{suffix}.correct").inc(correct)
