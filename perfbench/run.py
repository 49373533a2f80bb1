"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload chase --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer split of a fixed-size traced run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, the output-check results and the
drift-correction samples.  A full record (digests, per-entry-point trace)
is written to ``perfbench/out/``.

``--write-pins`` regenerates the pinned output digests of one workload at
the pinned seed (see README.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    return parser.parse_args(argv)


def _print_report(name, seed, trace, result) -> None:
    check = result.check
    print(f"workload {name}  seed {seed}  trace {trace}")
    for key, (value, unit) in result.metrics.items():
        print(f"  {key:28s} {value:>16.6g} {unit}")
    drift = result.drift
    print(
        f"  drift reference: median {drift['median_ms']:.3f} ms "
        f"(q1 {drift['q1_ms']:.3f}, q3 {drift['q3_ms']:.3f}, n {drift['n']}), "
        f"correction x{drift['correction']:.4f}"
    )
    print(
        f"  output check ({check.mode}): {check.attempted} ops attempted, "
        f"{check.failed} failed, {len(check.digests)} unit digests"
    )
    for index, problem in check.failures[:5]:
        print(f"    unit {index}: {problem.strip().splitlines()[-1]}")


def _write_record(name, seed, trace, result, out: Path) -> None:
    out.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "drift": result.drift,
        "check": {
            "mode": result.check.mode,
            "attempted": result.check.attempted,
            "failed": result.check.failed,
            "failures": result.check.failures,
            "digests": result.check.digests,
        },
        **result.extra,
    }
    path = out / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def _write_pins(cls, harness) -> None:
    pins = harness.load_pins()
    workload = cls(pins["seed"])
    workload.setup()
    digests = []
    for index in range(workload.max_units):
        digests.append(harness.digest(workload.run_unit(index)))
    pins["digests"][cls.name] = digests
    harness.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {len(digests)} unit digests for {cls.name} at seed {pins['seed']}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.write_pins:
        _write_pins(cls, harness)
        return 0
    pins = harness.load_pins()
    if args.trace:
        result = harness.traced_run(cls, args.seed, pins)
    else:
        result = harness.timed_run(cls, args.seed, args.seconds, pins)
    _print_report(args.workload, args.seed, args.trace, result)
    _write_record(args.workload, args.seed, args.trace, result, harness.OUT_DIR)
    check = result.check
    line = {
        "correct": check.failed == 0 and not check.failures,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
