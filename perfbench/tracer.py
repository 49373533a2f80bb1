"""Per-layer tracing from outside the program.

The layers are the ``repro`` subpackages.  :class:`LayerTracer` wraps the
public entry points listed in :data:`ENTRY_POINTS` — methods on their
defining class, module functions in every module that imported them —
and restores the originals on :meth:`LayerTracer.uninstall`.

Time is charged by transitions: whenever a call crosses from one layer into
another (or returns), the host time since the previous transition goes to
the entry point that was running.  An entry point's self time is therefore
its span time minus the time of child spans into other layers; a call into
the *same* layer only bumps counters, which keeps the overhead of the hot
per-access entry points low.  Time outside every span is ``unattributed``.
Spans are kept in memory as per-entry-point aggregates (calls, self time).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from types import ModuleType

#: Count extractors: (args, result) -> amount added to the entry's work.
_LEN_ARG1 = "len(arg1)"
_RESULT = "result"
_ROWS = "rows"

#: layer -> [(module, qualified name, work extractor or None)].  Methods are
#: wrapped on the class that defines them.  ``mem`` is only mapping and
#: allocation: ``translate`` is charged to its caller.
ENTRY_POINTS: dict[str, list[tuple[str, str, str | None]]] = {
    "core": [
        ("repro.core.machine", "Machine.__init__", None),
        ("repro.core.machine", "Machine.install_nic", None),
        ("repro.core.machine", "Machine.cpu_access_many", _LEN_ARG1),
        ("repro.core.machine", "Machine.idle", None),
        ("repro.core.machine", "Machine.drain_events", None),
        ("repro.core.machine", "Process.access", None),
        ("repro.core.machine", "Process.timed_access", None),
        ("repro.core.machine", "Process.access_many", None),
        ("repro.core.machine", "Process.flush", None),
        ("repro.core.machine", "Process.mmap", None),
        ("repro.core.machine", "Process.mmap_huge", None),
        ("repro.core.events", "EventQueue.run_due", _RESULT),
        ("repro.core.events", "EventQueue.schedule", None),
    ],
    "cache": [
        ("repro.cache.llc", "SlicedLLC.__init__", None),
        ("repro.cache.llc", "SlicedLLC.cpu_access", None),
        ("repro.cache.llc", "SlicedLLC.access_many", _LEN_ARG1),
        ("repro.cache.llc", "SlicedLLC.io_write", None),
        ("repro.cache.llc", "SlicedLLC.io_write_many", None),
        ("repro.cache.llc", "SlicedLLC.rx_burst", None),
        ("repro.cache.llc", "SlicedLLC.flush", None),
        ("repro.cache.llc", "SlicedLLC.decompose_many", None),
        ("repro.cache.llc", "SlicedLLC.flat_set_of", None),
        ("repro.cache.hierarchy", "CacheHierarchy.access", None),
    ],
    "nic": [
        ("repro.nic.nic", "Nic.deliver", None),
        ("repro.nic.nic", "Nic.deliver_burst", _LEN_ARG1),
        ("repro.nic.driver", "IgbDriver.receive", None),
        ("repro.nic.ring", "RxRing.__init__", None),
    ],
    "net": [
        ("repro.net.traffic", "TrafficSource.attach", None),
        ("repro.net.traffic", "TrafficSource.stop", None),
        # Event-loop entry points: frame generation and burst hand-off.
        ("repro.net.traffic", "TrafficSource._fire", None),
        ("repro.net.traffic", "TrafficSource._drain", None),
        ("repro.net.websites", "WebsiteProfile.sample", None),
    ],
    "mem": [
        ("repro.mem.addrspace", "AddressSpace.mmap", None),
        ("repro.mem.addrspace", "AddressSpace.mmap_huge", None),
        ("repro.mem.physmem", "PhysicalMemory.__init__", None),
        ("repro.mem.physmem", "PhysicalMemory.alloc_frame", None),
        ("repro.mem.physmem", "PhysicalMemory.alloc_frames", None),
        ("repro.mem.physmem", "PhysicalMemory.alloc_contiguous", None),
    ],
    "attack": [
        ("repro.attack.timing", "calibrate_threshold", None),
        ("repro.attack.evictionset", "OracleEvictionSetBuilder.__init__", None),
        ("repro.attack.evictionset", "OracleEvictionSetBuilder.groups_for_index", None),
        ("repro.attack.evictionset", "OracleEvictionSetBuilder.group_for", None),
        ("repro.attack.evictionset", "OracleEvictionSetBuilder.group_for_flat", None),
        (
            "repro.attack.evictionset",
            "OracleEvictionSetBuilder.build_page_aligned_groups",
            None,
        ),
        ("repro.attack.evictionset", "EvictionSet.prime", None),
        ("repro.attack.evictionset", "EvictionSet.probe", None),
        ("repro.attack.setup", "MonitorFactory.__init__", None),
        ("repro.attack.setup", "MonitorFactory.buffer_monitor", None),
        ("repro.attack.setup", "MonitorFactory.full_ring_chaser", None),
        ("repro.attack.chase", "BufferMonitor.clock_active", _RESULT),
        ("repro.attack.chase", "BufferMonitor.read_size", None),
        ("repro.attack.chase", "BufferMonitor.prime", None),
        ("repro.attack.chase", "PacketChaser.chase", None),
        ("repro.attack.chase", "PacketChaser.wait_for_fill", None),
        ("repro.attack.primeprobe", "SetSweep.probe", None),
        ("repro.attack.primeprobe", "ProbeMonitor.prime", None),
        ("repro.attack.primeprobe", "ProbeMonitor.sample", _ROWS),
        ("repro.attack.sequencer", "Sequencer.recover", None),
        ("repro.attack.groundtruth", "true_group_sequence", None),
    ],
    "analysis": [
        ("repro.analysis.correlation", "CorrelationClassifier.fit", None),
        ("repro.analysis.correlation", "CorrelationClassifier.classify", None),
        ("repro.analysis.correlation", "CorrelationClassifier.classify_many", None),
        ("repro.analysis.levenshtein", "levenshtein", None),
        ("repro.analysis.levenshtein", "cyclic_levenshtein", None),
        ("repro.analysis.levenshtein", "best_rotation", None),
    ],
    "perf": [
        ("repro.perf.wrk", "LoadGenerator.run", None),
        ("repro.perf.workloads", "NginxServer.__init__", None),
        ("repro.perf.workloads", "NginxServer.handle_request", None),
        ("repro.perf.agent", "MemAgent.read", None),
        ("repro.perf.agent", "MemAgent.write", None),
        ("repro.perf.agent", "MemAgent.read_kernel", None),
        ("repro.perf.agent", "MemAgent.compute", None),
    ],
    "defense": [
        ("repro.defense.partitioning", "AdaptivePartition.install", None),
        ("repro.defense.partitioning", "AdaptivePartition.victim_for_io_fill", None),
        ("repro.defense.partitioning", "AdaptivePartition.victim_for_cpu_fill", None),
        ("repro.defense.partitioning", "AdaptivePartition.after_fill", None),
        ("repro.defense.partitioning", "AdaptivePartition.adapt", None),
        ("repro.defense.randomization", "FullRandomizer.on_packet", None),
        ("repro.defense.randomization", "_RandomizerBase.drain_pending", None),
    ],
}

LAYERS = tuple(ENTRY_POINTS)

#: Entry points whose *inclusive* time is eviction-set construction.
EVSET_CLASSES = ("OracleEvictionSetBuilder.", "MonitorFactory.")

_MARK = "_perfbench_wrapped"


@dataclass
class Entry:
    layer: str
    name: str
    calls: int = 0
    work: int = 0
    self_s: float = 0.0


def _work_of(kind: str | None):
    if kind == _LEN_ARG1:
        return lambda args, result: len(args[1])
    if kind == _RESULT:
        return lambda args, result: int(result)
    if kind == _ROWS:
        return lambda args, result: result.n_samples
    return None


class LayerTracer:
    """Installs span wrappers around every entry point, then removes them."""

    def __init__(self) -> None:
        self.entries: list[Entry] = [Entry("unattributed", "(outside any span)")]
        self.missing: list[str] = []
        self.evset_s = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._by_name: dict[str, Entry] = {}
        # [current entry index, time of the last transition]
        self._state = [0, 0.0]
        # Nesting depth inside eviction-set construction entry points.
        self._evset_depth = [0]
        self._t_start = 0.0
        self._excluded = 0.0
        self.wall_s = 0.0

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for layer, points in ENTRY_POINTS.items():
            for module_name, qualname, work in points:
                self._install_one(layer, module_name, qualname, work)
        self._state[0] = 0
        self._excluded = 0.0
        self._state[1] = self._t_start = time.perf_counter()

    def _install_one(self, layer, module_name, qualname, work) -> None:
        owner, attr = resolve(module_name, qualname)
        original = None if owner is None else vars(owner).get(attr)
        if not callable(original) or isinstance(original, type):
            self.missing.append(f"{module_name}:{qualname}")
            return
        entry = Entry(layer, qualname)
        self.entries.append(entry)
        self._by_name[qualname] = entry
        wrapper = self._wrap(original, len(self.entries) - 1, work)
        if qualname.startswith(EVSET_CLASSES):
            wrapper = self._inclusive(wrapper)
        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patch(owner, attr, original, wrapper)
        if isinstance(owner, ModuleType):
            # Module functions: also patch every module that imported the
            # function by name.
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if mod is owner or not isinstance(namespace, dict):
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        now = time.perf_counter()
        state = self._state
        self.entries[state[0]].self_s += now - state[1]
        self.wall_s = now - self._t_start - self._excluded
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def exclude(self, seconds: float) -> None:
        """Charge the last ``seconds`` (outside work, such as a drift
        sample) to no entry point."""
        self._state[1] += seconds
        self._excluded += seconds

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, index: int, work_kind: str | None):
        entries = self.entries
        entry = entries[index]
        layer = entry.layer
        state = self._state
        clock = time.perf_counter
        work_of = _work_of(work_kind)

        def wrapper(*args, **kwargs):
            entry.calls += 1
            current = state[0]
            if entries[current].layer == layer:
                result = fn(*args, **kwargs)
            else:
                now = clock()
                entries[current].self_s += now - state[1]
                state[0] = index
                state[1] = now
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    entry.self_s += now - state[1]
                    state[0] = current
                    state[1] = now
            if work_of is not None:
                entry.work += work_of(args, result)
            return result

        return wrapper

    def _inclusive(self, inner):
        depth = self._evset_depth
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if depth[0]:
                return inner(*args, **kwargs)
            depth[0] = 1
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.evset_s += clock() - t0
                depth[0] = 0

        return wrapper

    # -- results -------------------------------------------------------
    def entry(self, qualname: str) -> Entry:
        """The aggregate for one entry point (zeros when it was missing)."""
        return self._by_name.get(qualname) or Entry("", qualname)

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for entry in self.entries[1:]:
            totals[entry.layer] += entry.self_s
        return totals

    @property
    def unattributed_s(self) -> float:
        return self.entries[0].self_s


def resolve(module_name: str, qualname: str):
    """``(owner, attribute)`` of an entry point; owner is None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, qualname
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner, attr


def installed_wrappers() -> list[str]:
    """Entry points currently replaced by a tracer wrapper (for tests)."""
    found = []
    for points in ENTRY_POINTS.values():
        for module_name, qualname, _work in points:
            owner, attr = resolve(module_name, qualname)
            if owner is not None and getattr(vars(owner).get(attr), _MARK, False):
                found.append(f"{module_name}:{qualname}")
    return found
