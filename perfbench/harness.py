"""Timing, drift correction, output checks and the two kinds of run.

Host time is wall time corrected for host-speed drift.  A fixed
pure-Python plus NumPy reference kernel is timed in the same process every
``PERIOD_S`` while the workload runs: a timer signal interrupts the
workload between bytecodes, which cannot change a simulated result.  Each
piece of work is scaled by ``REF_S`` over the mean reference time sampled
during it, after the samples' own time is taken out.  Corrected seconds
therefore read as seconds on a host where the kernel takes ``REF_S``.
On a 2-vCPU cloud VM the host speed jumps between two levels about 2x
apart several times a second; samples taken only between operations miss
much of what the operations see.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import signal
import statistics
import time
import traceback
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LayerTracer

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
OUT_DIR = HERE / "out"

#: Nominal reference-kernel time (seconds) that corrected times refer to.
REF_S = 0.001
#: Sampling period of the reference kernel while work runs.
PERIOD_S = 0.05
#: Work shorter than this many periods also uses the nearest samples.
MIN_SAMPLES = 5
#: Set-up is repeated until both bounds hold (or ``SETUP_MAX_REPS``).
SETUP_MIN_REPS = 5
SETUP_MIN_RAW_S = 2.0
SETUP_MAX_REPS = 25


def reference_kernel() -> int:
    """Fixed host work shaped like the simulator: dict-heavy Python plus
    small-array NumPy dispatch."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1400):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + 1
        acc ^= key
    vec = np.arange(64, dtype=np.int64)
    for _ in range(80):
        vec = (vec * 5 + acc) & 0xFFF
        acc += int(vec.argmax())
    return acc


class DriftMeter:
    """Reference-kernel samples, taken every ``PERIOD_S`` inside ``with``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        #: Called with each sample's duration (the tracer excludes it).
        self.listener = None
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        duration = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(duration)
        if self.listener is not None:
            self.listener(duration)

    def __enter__(self) -> "DriftMeter":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, t0: float, t1: float) -> float:
        """Corrected seconds of the work timed from ``t0`` to ``t1``."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        work = (t1 - t0) - sum(self.samples[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(0, lo - 1), min(len(self.samples), hi + 1)
        return work * REF_S / statistics.mean(self.samples[lo:hi])

    def summary(self) -> dict:
        s = self.samples
        q1, med, q3 = statistics.quantiles(s, n=4) if len(s) > 1 else (s[0],) * 3
        return {
            "n": len(s),
            "median_ms": med * 1e3,
            "q1_ms": q1 * 1e3,
            "q3_ms": q3 * 1e3,
            "correction": REF_S / statistics.mean(s),
        }


def digest(outputs) -> str:
    return hashlib.blake2b(repr(outputs).encode(), digest_size=8).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@dataclass
class OutputCheck:
    """Compares each unit's output digest with the pinned one.

    Pins exist for the pinned seed only; for any other seed the digests are
    recorded (and only the seed-independent invariants are checked), so a
    parent and a change can be compared on a held-out seed.
    """

    workload: object
    expected: list[str] | None
    digests: list[str] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: operations of units that ran to the end (mismatched or not)
    completed: int = 0

    @classmethod
    def for_seed(cls, workload, seed: int, pins: dict) -> "OutputCheck":
        expected = None
        if seed == pins.get("seed"):
            expected = pins["digests"].get(workload.name, [])
        return cls(workload, expected)

    def check(self, index: int, outputs, error: str | None) -> None:
        ops = self.workload.ops_per_unit
        self.attempted += ops
        problem = error
        if problem is None:
            self.completed += ops
            self.digests.append(digest(outputs))
            problem = self.workload.invariant(outputs)
        if problem is None and self.expected is not None:
            if index >= len(self.expected):
                problem = "no pinned digest for this unit"
            elif self.digests[-1] != self.expected[index]:
                problem = f"digest {self.digests[-1]} != pinned {self.expected[index]}"
        if problem is not None:
            self.failures.append((index, problem))
            self.failed += ops

    @property
    def mode(self) -> str:
        return "recorded" if self.expected is None else "checked"


def _run_unit(workload, index: int, check: OutputCheck) -> bool:
    """Run and check one unit; False when it raised."""
    try:
        outputs, error = workload.run_unit(index), None
    except Exception:  # an operation failure is counted, not fatal
        outputs, error = None, traceback.format_exc(limit=4)
    check.check(index, outputs, error)
    return error is None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    check: OutputCheck
    metrics: dict[str, tuple[float, str]]
    drift: dict
    extra: dict = field(default_factory=dict)


def typical_rate(unit_s: list[float], workload) -> float:
    """Operations per corrected host second of a typical round.

    Units interleave ``workload.streams`` rigs or schemes of different
    cost.  Per stream the median unit time is taken, so a rare sync-loss
    capture cannot swing the figure, and a round costs the sum of them.
    """
    streams = workload.streams
    medians = [
        statistics.median(unit_s[k::streams])
        for k in range(streams)
        if unit_s[k::streams]
    ]
    if not medians:
        return 0.0
    return workload.ops_per_unit * len(medians) / sum(medians)


def timed_run(cls, seed: int, seconds: float, pins: dict, max_units=None) -> RunResult:
    """The untraced run: repeated set-up, then units until ``seconds``."""
    meter = DriftMeter()
    setups = []
    units = []
    with meter:
        while True:
            workload = None  # free the previous repetition's machines
            gc.collect()
            t0 = time.perf_counter()
            workload = cls(seed)
            workload.setup()
            setups.append((t0, time.perf_counter()))
            n = len(setups)
            raw_total = sum(t1 - t0 for t0, t1 in setups)
            enough = n >= SETUP_MIN_REPS and raw_total >= SETUP_MIN_RAW_S
            if enough or n >= SETUP_MAX_REPS:
                break

        check = OutputCheck.for_seed(workload, seed, pins)
        limit = workload.max_units if max_units is None else max_units
        start = time.perf_counter()
        index = 0
        ok = True
        while index < limit and time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            ok = _run_unit(workload, index, check)
            units.append((t0, time.perf_counter()))
            index += 1
            if not ok:
                break  # the machine state after an exception is undefined
        wall_s = time.perf_counter() - start

    setup_s = statistics.median(meter.corrected(t0, t1) for t0, t1 in setups)
    unit_s = [meter.corrected(t0, t1) for t0, t1 in units]
    if not ok:
        unit_s.pop()  # the unit that raised completed no operations
    metrics = {
        "ops_per_s": (typical_rate(unit_s, workload), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "units": len(units),
        "setup_each_s": [meter.corrected(t0, t1) for t0, t1 in setups],
        "measured_s": sum(unit_s),
        "wall_s": wall_s,
        "unit_s": unit_s,
        "unit_raw_s": [t1 - t0 for t0, t1 in units],
        "ref_ms": [x * 1e3 for x in meter.samples],
    }
    return RunResult(check, metrics, meter.summary(), extra)


def _fixed_pass(cls, seed: int, check: OutputCheck) -> object:
    workload = cls(seed)
    workload.setup()
    for index in range(workload.trace_units):
        if not _run_unit(workload, index, check):
            break
    return workload


def traced_run(cls, seed: int, pins: dict) -> RunResult:
    """The traced run: a fixed number of units after set-up, once untraced
    and once traced, so every count repeats exactly and the traced wall
    time can be set against the untraced one.  Reference samples taken
    during the traced pass are excluded from every layer's time."""
    meter = DriftMeter()
    plain = OutputCheck.for_seed(cls(seed), seed, pins)
    with meter:
        t0 = time.perf_counter()
        _fixed_pass(cls, seed, plain)
        untraced_s = meter.corrected(t0, time.perf_counter())
    gc.collect()

    traced = OutputCheck.for_seed(cls(seed), seed, pins)
    tracer = LayerTracer()
    meter.listener = tracer.exclude
    with meter:
        t0 = time.perf_counter()
        tracer.install()
        try:
            workload = _fixed_pass(cls, seed, traced)
        finally:
            tracer.uninstall()
            traced_s = meter.corrected(t0, time.perf_counter())
    correction = traced_s / tracer.wall_s

    check = OutputCheck(workload, traced.expected)
    for source in (plain, traced):
        check.attempted += source.attempted
        check.failed += source.failed
        check.failures += source.failures
    check.digests = traced.digests
    if plain.digests != traced.digests:
        check.failures.append((-1, "traced outputs differ from untraced outputs"))
        check.failed += traced.attempted
    metrics = layer_metrics(tracer, workload, correction, untraced_s, traced_s)
    extra = {
        "units": workload.trace_units,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "missing_entry_points": tracer.missing,
        "entries": [
            {
                "layer": e.layer,
                "name": e.name,
                "calls": e.calls,
                "work": e.work,
                "self_s": e.self_s * correction,
            }
            for e in tracer.entries
        ],
    }
    return RunResult(check, metrics, meter.summary(), extra)


def _share(part: int, other: int) -> float:
    return part / (part + other) if part + other else 0.0


def layer_metrics(tracer, workload, correction, untraced_s, traced_s) -> dict:
    e = tracer.entry
    machines = workload.machines()

    def llc_sum(attr: str) -> int:
        return sum(getattr(mach.llc.stats, attr) for mach in machines)

    def map_sum(attr: str) -> int:
        return sum(getattr(mach.llc.mapping.stats, attr) for mach in machines)

    m: dict[str, tuple[float, str]] = {}
    for layer, seconds in tracer.layer_self_s().items():
        m[f"{layer}.self_s"] = (seconds * correction, "s")

    access = e("Process.access").calls
    many = e("Machine.cpu_access_many")
    events = e("EventQueue.run_due").work
    m["core.cpu_access_calls"] = (access + many.calls, "count")
    m["core.accesses"] = (access + many.work, "count")
    m["core.events_fired"] = (events, "count")
    m["core.sim_cycles"] = (sum(mach.clock.now for mach in machines), "count")
    m["core.host_us_per_event"] = (untraced_s * 1e6 / events if events else 0.0, "us")

    batched = e("SlicedLLC.access_many").work
    scalar = e("SlicedLLC.cpu_access").calls
    m["cache.batched_accesses"] = (batched, "count")
    m["cache.scalar_accesses"] = (scalar, "count")
    m["cache.batched_share"] = (_share(batched, scalar), "ratio")
    m["cache.l1_accesses"] = (e("CacheHierarchy.access").calls, "count")
    m["cache.cpu_misses"] = (llc_sum("cpu_misses"), "count")
    m["cache.io_fills"] = (llc_sum("io_fills"), "count")
    m["cache.rekeys"] = (map_sum("epochs"), "count")
    m["cache.lines_remapped"] = (map_sum("lines_remapped"), "count")

    burst = e("Nic.deliver_burst").work
    direct = e("Nic.deliver").calls
    m["nic.frames_burst"] = (burst, "count")
    m["nic.frames_direct"] = (direct, "count")
    m["nic.burst_share"] = (_share(burst, direct), "ratio")

    polls = e("BufferMonitor.clock_active")
    m["attack.polls"] = (polls.calls, "count")
    m["attack.fills"] = (polls.work, "count")
    m["attack.poll_yield"] = (polls.work / polls.calls if polls.calls else 0.0, "ratio")
    m["attack.sweeps"] = (e("ProbeMonitor.sample").work, "count")
    m["attack.evset_s"] = (tracer.evset_s * correction, "s")

    def layer_calls(layer: str) -> int:
        return sum(x.calls for x in tracer.entries if x.layer == layer)

    m["analysis.calls"] = (layer_calls("analysis"), "count")
    m["perf.requests"] = (e("NginxServer.handle_request").calls, "count")
    m["perf.mem_ops"] = (
        sum(e(f"MemAgent.{op}").calls for op in ("read", "write", "read_kernel")),
        "count",
    )
    m["defense.calls"] = (layer_calls("defense"), "count")
    m["unattributed_s"] = (tracer.unattributed_s * correction, "s")
    m["trace_overhead"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
    return m
