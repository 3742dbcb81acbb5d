"""Host-clock benchmark of the sharpening pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload stream_512 --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference host speed (see ``hostspeed``); ``--trace 1`` prints the
per-layer metrics of a traced run (see ``workloads.measure``).  The
metric names and units are those ``BENCHMARK.json`` declares.  Every metric is
printed as ``<workload> <name> <value> <unit>``, followed by the host
description and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output matched its reference.

The workloads, and why each was chosen, are listed in ``BENCHMARK.json``
at the repository root.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, so the engine's worker threads are the only
# parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = pathlib.Path(__file__).resolve().parent / "_out"


def l3_size() -> str:
    """The L3 size the kernel reports for CPU 0, or ``unknown``."""
    cache = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3": l3_size(),
        "threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_lines(report) -> list[str]:
    """Every metric by name, value and unit, then the check summary."""
    tally = report.tally
    lines = [f"{report.workload} {name} {value:.6g} {unit}"
             for name, (value, unit) in report.metrics.items()]
    lines.append(f"{report.workload} failed_frac "
                 f"{tally.failed / max(tally.attempted, 1):.6g} ratio "
                 f"({tally.failed} of {tally.attempted} frames)")
    lines += [f"{report.workload} {note}"
              for note in report.notes + tally.problems]
    return lines


def result_record(report) -> dict:
    """The last output line: checks and metrics."""
    return {
        "correct": report.correct,
        "attempted": report.tally.attempted,
        "failed": report.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2

    work_dir = OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    try:
        report = workloads.measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if report.recorder is not None:
        report.recorder.dump(
            OUT / f"{args.workload}-seed{args.seed}.spans.json")

    for line in report_lines(report):
        print(line)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result_record(report)))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
