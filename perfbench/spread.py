"""Run each workload repeatedly and print the spread of every metric.

    python3 perfbench/spread.py --runs 10 --first-seed 1
    python3 perfbench/spread.py --workload wire-churn-n1000 --runs 5

Run from the repository root.  Each run is ``run.py`` with its own seed
and the run length from ``BENCHMARK.json``.  For every metric the
command prints the median and the interquartile range (IQR, from
``statistics.quantiles(values, n=4)``) as a share of the median, and
flags a spread wider than the metric's bound.  ``setup_s`` is flagged
too, though its bound applies to the median, not to the spread.  Each
run's JSON line is kept in ``perfbench/results/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent


def _run(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [
        sys.executable if part == "python3" else part
        for part in config["command"]
    ] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(
        argv, cwd=_ROOT, capture_output=True, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-3000:]}{done.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, IQR / median)`` of *values*."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((_ROOT / "BENCHMARK.json").read_text())
    metrics = config["end_to_end"] if not args.trace else config["per_layer"]
    names = args.workload or [w["name"] for w in config["workloads"]]
    flagged = 0
    out = _HERE / "results"
    out.mkdir(exist_ok=True)
    for workload in names:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = _run(config, workload, seed, args.trace)
            results.append(result)
            with open(out / f"{workload}.jsonl", "a") as log:
                log.write(json.dumps({"seed": seed, "trace": args.trace,
                                      **result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':<30} {'median':>14} {'IQR/median':>11}  bound")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median, share = spread(values)
            bound = metric.get("bound")
            flag = ""
            if bound is not None and share > bound:
                flag = "  WIDER THAN BOUND"
                flagged += metric["name"] != "setup_s"
            elif bound is not None and share > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {metric['name']:<30} {median:>14.6g} {share:>11.4f}"
                  f"  {bound if bound is not None else '-'}{flag}")
        print(flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
