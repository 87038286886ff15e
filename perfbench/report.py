"""Metrics from a session's samples, and the checks made after it ends."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from checks import cold_build_mismatches, oracle_mismatches
from session import Samples, Session
from workload import N_CUT


@dataclass
class Report:
    """What ``run.py`` prints: metrics, diagnostics and failed checks."""

    attempted: int
    errors: list[str]
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Record metric *name* and a human-readable line for it."""
        self.metrics[name] = (value, unit)
        self.lines.append(
            f"{name:<32} {value:>14.6g} {unit:<10} {note}".rstrip()
        )


def end_checks(session: Session) -> None:
    """The whole-generation comparisons, run after the server stopped.

    A read-only workload's grid answers (generation 0) are compared with
    the kernel-free round protocol; a churn workload's final-generation
    answers with a cold build of the twin after the same events.
    """
    samples = session.samples
    if samples.errors:
        return
    if session.workload.churn:
        samples.errors.extend(cold_build_mismatches(
            samples.final_key, session.twin, session.classes, N_CUT
        ))
    else:
        assert session.grid_twin is not None
        samples.errors.extend(oracle_mismatches(
            samples.grid_key, session.grid_twin, session.classes, N_CUT
        ))


def end_to_end(report: Report, samples: Samples) -> None:
    """The end-to-end metrics, each with its sample count."""
    batches = len(samples.batch_s)
    events = len(samples.membership_s)
    report.add("setup_s", samples.setup_s, "s", "server start to first ping")
    report.add("cold_batch_s", samples.cold_batch_s, "s",
               "one query per class")
    report.add("qps", samples.qps, "queries/s",
               f"{samples.timed_queries} queries in {samples.timed_s:.2f} s"
               f" ({samples.rounds} rounds)")
    report.add("batch_p50_ms", statistics.median(samples.batch_s) * 1e3,
               "ms", f"n={batches}")
    report.add("membership_p50_ms",
               statistics.median(samples.membership_s) * 1e3, "ms",
               f"n={events}, {samples.restructures} restructuring, "
               f"{samples.rejoined} hosts re-joined")
    report.add("hops_per_query", samples.hops_per_query, "hops",
               "mean over the (k, class) grid")
    report.add("peak_rss_mb", samples.peak_rss_mb, "MB", "server process")
    report.lines.append(
        f"{'batch_p99_ms':<32} "
        f"{statistics.quantiles(samples.batch_s, n=100)[98] * 1e3:>14.6g}"
        " ms         "
        f"n={batches} (not gated; see README)"
    )
    report.lines.extend(samples.cycle_log)
    report.lines.append(
        f"{'cache_misses':<32} {samples.cache_misses:>14d}"
        " count      read-only phase"
    )
