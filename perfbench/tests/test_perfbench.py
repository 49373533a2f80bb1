"""The benchmark's own tests.  Run: python3 -m pytest perfbench/tests"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracer
from workloads import WORKLOADS, Chase, Nginx

BENCH = Path(__file__).resolve().parents[1]
PINS = harness.load_pins()
SEED = PINS["seed"]


def _entry_functions() -> dict[str, object]:
    found = {}
    for points in tracer.ENTRY_POINTS.values():
        for module_name, qualname, _work in points:
            owner, attr = tracer.resolve(module_name, qualname)
            found[f"{module_name}:{qualname}"] = vars(owner)[attr]
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_one_unit_of_each_workload(name):
    cls = WORKLOADS[name]
    result = harness.timed_run(cls, SEED, seconds=60.0, pins=PINS, max_units=1)
    assert result.check.mode == "checked"
    assert result.check.attempted == cls.ops_per_unit
    assert result.check.failed == 0, result.check.failures
    for key in ("ops_per_s", "setup_s", "peak_rss_mb"):
        assert result.metrics[key][0] > 0


def test_every_entry_point_resolves():
    assert len(_entry_functions()) == sum(map(len, tracer.ENTRY_POINTS.values()))


class _Probe(Nginx):
    trace_units = 2
    seen: list = []

    def run_unit(self, index):
        type(self).seen.append(tracer.installed_wrappers())
        return super().run_unit(index)


def test_untraced_run_installs_no_wrappers():
    _Probe.seen = []
    harness.timed_run(_Probe, SEED, seconds=60.0, pins=PINS, max_units=2)
    assert _Probe.seen == [[], []]


def test_traced_run_restores_every_wrapped_function():
    before = _entry_functions()
    _Probe.seen = []
    result = harness.traced_run(_Probe, SEED, PINS)
    assert result.check.failed == 0, result.check.failures
    # the untraced pass saw no wrappers, the traced pass saw all of them
    assert _Probe.seen[:2] == [[], []]
    assert sorted(_Probe.seen[2]) == sorted(before)
    after = _entry_functions()
    assert all(after[key] is before[key] for key in before)
    assert tracer.installed_wrappers() == []


class _AlteredChase(Chase):
    def run_unit(self, index):
        sizes, *rest = super().run_unit(index)
        first = 1 if sizes[0] != 1 else 3
        return ((first, *sizes[1:]), *rest)


def test_hash_check_fails_when_one_size_is_altered():
    result = harness.timed_run(
        _AlteredChase, SEED, seconds=60.0, pins=PINS, max_units=1
    )
    assert result.check.failed == 1
    assert "digest" in result.check.failures[0][1]


def test_other_seeds_record_digests_instead_of_checking():
    result = harness.timed_run(Nginx, SEED + 1, seconds=60.0, pins=PINS, max_units=1)
    assert result.check.mode == "recorded"
    assert result.check.failed == 0 and len(result.check.digests) == 1


class _ShortChase(Chase):
    trace_units = 4


class _ShortNginx(Nginx):
    trace_units = 3


@pytest.mark.parametrize("cls", [_ShortChase, _ShortNginx])
def test_count_metrics_repeat_across_traced_runs(cls):
    first = harness.traced_run(cls, SEED, PINS)
    second = harness.traced_run(cls, SEED, PINS)
    counts = {k for k, (_v, unit) in first.metrics.items() if unit == "count"}
    assert counts
    assert all(first.metrics[k] == second.metrics[k] for k in counts)
    assert first.check.failed == second.check.failed == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chase", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
