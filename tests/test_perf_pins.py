"""Pinned outputs of the performance model (Figs. 14-16 and the workloads).

Each case runs a small-scale version of a defense-evaluation experiment
and hashes everything it returns.  The digests were recorded before the
victim's memory traffic moved onto multi-line runs, so any change to how
``MemAgent`` issues accesses that moves a single cycle, a DRAM transfer
or a miss shows up here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.config import CacheGeometry, DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.experiments.defense_eval import run_fig14, run_fig15, run_fig16
from repro.perf.workloads import FileCopyWorkload, NginxServer, TcpRecvWorkload
from repro.perf.wrk import LoadGenerator


def _digest(obj) -> str:
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    return hashlib.blake2b(repr(obj).encode(), digest_size=12).hexdigest()


def _machine(ddio: bool = True, partition: bool = False, backend: str = "modulo"):
    cfg = MachineConfig().scaled_down()
    cfg.ddio = DDIOConfig(enabled=ddio)
    cfg.cache_backend = backend
    machine = Machine(cfg)
    machine.install_nic()
    if partition:
        AdaptivePartition().install(machine)
    return machine


def _machine_state(machine) -> tuple:
    llc = machine.llc
    return (
        machine.clock.now,
        dataclasses.asdict(llc.stats),
        (llc.traffic.reads, llc.traffic.writes),
    )


def _fig14():
    geometry = CacheGeometry(n_slices=8, sets_per_slice=128, ways=8)
    return run_fig14(geometries=[("8MB~", geometry)], n_requests=40)


def _fig15():
    return run_fig15(copy_kb=64, tcp_packets=120, nginx_requests=30)


def _fig16():
    return run_fig16(n_requests=60, partial_intervals=(20, 50))


def _nginx_keyed():
    # Epochal re-keys back-invalidate the L1 mid-run; the partition defense
    # cannot combine with them, so this case runs the open-loop server alone.
    machine = _machine(backend="keyed:epoch=500")
    report = LoadGenerator(machine, NginxServer(machine), 140_000.0, 60).run()
    return dataclasses.asdict(report), _machine_state(machine)


def _filecopy():
    outcome = []
    for ddio, partition in ((False, False), (True, False), (True, True)):
        machine = _machine(ddio=ddio, partition=partition)
        report = FileCopyWorkload(machine, total_kb=48, chunk_kb=4).run()
        outcome.append((dataclasses.asdict(report), _machine_state(machine)))
    return outcome


def _tcprecv():
    outcome = []
    for ddio, partition in ((False, False), (True, False), (True, True)):
        machine = _machine(ddio=ddio, partition=partition)
        report = TcpRecvWorkload(machine, n_packets=150).run()
        outcome.append((dataclasses.asdict(report), _machine_state(machine)))
    return outcome


PINS = {
    "fig14": (_fig14, "a9d7c1aaa389e3184d35e9eb"),
    "fig15": (_fig15, "ff8f50e4f495bff6c74da7c0"),
    "fig16": (_fig16, "bf28a0ae4333f841bbed20e9"),
    "nginx-keyed": (_nginx_keyed, "5fbf2db279bef2365fa205c1"),
    "filecopy": (_filecopy, "fcb1f7e421842d4fec9dc259"),
    "tcprecv": (_tcprecv, "88dcd4ec85ed62cd05c25bfc"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_perf_model_output_pinned(name):
    run, expected = PINS[name]
    assert _digest(run()) == expected


if __name__ == "__main__":  # print the current digests
    for name in sorted(PINS):
        print(f'"{name}": {_digest(PINS[name][0]())!r}')
