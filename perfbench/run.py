"""Benchmark of served cluster queries: one command, one JSON line.

    python3 perfbench/run.py --workload wire-steady-n200 --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the server is
``repro-bcc serve`` in its own process and the end-to-end metrics are
printed; with ``--trace 1`` the server runs in this process, traced,
and the per-layer metrics are printed.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_to_one_cpu() -> None:
    """Run this process and the server it starts on one CPU.

    Client and server then hand the CPU to each other at every round
    trip instead of migrating between cores, which is what makes the
    batch round trip repeat (see the README).
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if not (_SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {_SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(_SRC))
    from workload import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    _pin_to_one_cpu()
    # A terminated run still stops its server (the sessions' finally
    # blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if args.trace:
        from layers import run_traced

        report = run_traced(workload, args.seed, args.seconds)
    else:
        report = run_untraced(workload, args.seed, args.seconds)
    for line in report.lines:
        print(line)
    for error in report.errors[:20]:
        print(f"CHECK FAILED: {error}")
    print(f"wall time {time.perf_counter() - started:.1f} s")
    # An operation that fails raises and aborts the run before this
    # line, so a printed result has no failed operations.
    print(json.dumps({
        "correct": not report.errors,
        "attempted": report.attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0 if not report.errors else 1


def run_untraced(workload, seed: int, seconds: float):
    """End-to-end metrics against ``repro-bcc serve`` in its own process."""
    from report import Report, end_checks, end_to_end
    from session import Session, SubprocessServer
    from workload import bandwidth_classes, build_overlay

    classes = bandwidth_classes()
    server = SubprocessServer(_SRC, workload)
    # The twin is built before the server starts so that building it
    # never competes with the server's own set-up.
    twin = build_overlay(workload.n)
    session = Session(workload, classes, seed, seconds, twin)
    samples = session.run(server)
    end_checks(session)
    report = Report(attempted=samples.attempted, errors=samples.errors)
    end_to_end(report, samples)
    return report


if __name__ == "__main__":
    sys.exit(main())
