"""The traced run: per-layer self time, busy time and counts.

The server runs in this process (``serve_in_background``) twice over
the same overlay: once untraced, once with a :class:`repro.obs.Tracer`
whose store is :class:`SpanStats`.  Each phase gets half the run's
seconds.  The program's own spans are read as they are; public calls
that have no span get one from :class:`Timers` for the traced phase
only.  Durations are medians per call over the whole traced phase;
counts are per timed round.
"""

from __future__ import annotations

import copy
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.net.client as net_client
import repro.net.server as net_server
from report import Report, end_checks
from repro.kernels.answers import AnswerTable
from repro.net.framing import FrameDecoder
from repro.obs import Span, Trace, TraceStore, Tracer
from repro.predtree.framework import BandwidthPredictionFramework
from repro.predtree.tree import PredictionTree
from repro.service import AdmissionController
from session import InProcessServer, Samples, Session
from workload import Workload, bandwidth_classes, build_overlay

#: Layer of each span-name prefix (first match wins).  ``service.route``
#: is the Algorithm 4 walk of the per-query path, so it is core work.
_LAYERS = (
    ("service.route", "core"),
    ("net.", "net"),
    ("client.", "net"),
    ("service.", "service"),
    ("batch.", "service"),
    ("admission.", "service"),
    ("memo.", "service"),
    ("answer.", "kernels"),
    ("kernel.", "kernels"),
    ("churn.", "kernels"),
    ("substrate.", "core"),
    ("crt.", "core"),
    ("node_info", "core"),
    ("predtree.", "predtree"),
)
LAYERS = ("net", "service", "kernels", "core", "predtree")


def layer_of(name: str) -> str:
    """The repository layer a span belongs to."""
    for prefix, layer in _LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class SpanStats(TraceStore):
    """A trace store that folds each finished trace into statistics.

    Nothing is kept per trace, so a long run costs no memory.  Spans
    closed while :meth:`mark` is on are also counted as timed-phase
    spans.
    """

    def __init__(self) -> None:
        super().__init__(capacity=1)
        self._lock = threading.Lock()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.latencies: list[float] = []
        self.timed_counts: dict[str, int] = defaultdict(int)
        self.timed_self: dict[str, float] = defaultdict(float)
        self.timed_busy: dict[str, float] = defaultdict(float)
        self._timed = False

    def mark(self, timed: bool) -> None:
        """Whether spans closed from now on count as timed-phase spans."""
        self._timed = timed

    def record(self, root: Span) -> None:
        with self._lock:
            self._fold(root, "")

    def _fold(self, span: Span, parent: str) -> None:
        duration = span.duration_s
        self.durations[span.name].append(duration)
        if span.name == "predtree.add_host" and parent != (
            "predtree.remove_host"
        ):
            # A join of its own, not one of a departure's re-joins.
            self.durations["predtree.add_host.outer"].append(duration)
        if span.name == "net.request" and (
            span.attributes.get("request") == "SubmitBatchRequest"
        ):
            self.latencies.append(float(span.attributes["latency_s"]))
        layer = layer_of(span.name)
        if self._timed:
            children = sum(child.duration_s for child in span.children)
            self.timed_counts[span.name] += 1
            self.timed_self[layer] += max(duration - children, 0.0)
            if layer != layer_of(parent):
                self.timed_busy[layer] += duration
        for child in list(span.children):
            self._fold(child, span.name)

    def median(self, name: str) -> float:
        """Median duration (s) of spans called *name*; 0 when none."""
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0

    # The store interface ``stats()`` reads: nothing is retained.
    def traces(self) -> list[Trace]:
        return []

    def slowest_trace_id(self) -> str | None:
        return None


class Timers:
    """Spans around public calls that the program does not trace.

    *server_side* calls are traced only off the main thread (the
    benchmark's client and twin overlay run on the main thread);
    *client_side* calls only on it.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._main = threading.main_thread()
        self.response_bytes: list[int] = []

    def _wrap(
        self, fn: Callable[..., Any], name: str, on_main: bool
    ) -> Callable[..., Any]:
        tracer = self._tracer
        main = self._main

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if (threading.current_thread() is main) != on_main:
                return fn(*args, **kwargs)
            with tracer.start_span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _sized(self, fn: Callable[..., bytes]) -> Callable[..., bytes]:
        def wrapper(*args: Any, **kwargs: Any) -> bytes:
            frame = fn(*args, **kwargs)
            self.response_bytes.append(len(frame))
            return frame

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch the timers in for the duration of the block."""
        patches: list[tuple[object, str, Callable[..., Any]]] = [
            (net_client, "encode_request",
             self._wrap(net_client.encode_request, "client.encode_request",
                        True)),
            (net_client, "encode_frame",
             self._wrap(net_client.encode_frame, "client.encode_frame",
                        True)),
            (net_client, "decode_response",
             self._wrap(net_client.decode_response,
                        "client.decode_response", True)),
            (FrameDecoder, "feed",
             self._wrap(FrameDecoder.feed, "client.frame_feed", True)),
            (net_server, "encode_frame", self._sized(net_server.encode_frame)),
            (AdmissionController, "admit",
             self._wrap(AdmissionController.admit, "service.admit", False)),
            (AnswerTable, "patched",
             self._wrap(AnswerTable.patched, "answer.patch", False)),
            (BandwidthPredictionFramework, "add_host",
             self._wrap(BandwidthPredictionFramework.add_host,
                        "predtree.add_host", False)),
            (BandwidthPredictionFramework, "remove_host",
             self._wrap(BandwidthPredictionFramework.remove_host,
                        "predtree.remove_host", False)),
            (PredictionTree, "distance_matrix",
             self._wrap(PredictionTree.distance_matrix,
                        "predtree.distance_matrix", False)),
        ]
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def run_traced(workload: Workload, seed: int, seconds: float) -> Report:
    """Per-layer metrics: an untraced and a traced in-process phase."""
    classes = bandwidth_classes()
    base = build_overlay(workload.n)
    half = seconds / 2.0

    plain = Session(workload, classes, seed, half, copy.deepcopy(base))
    untraced = plain.run(InProcessServer(copy.deepcopy(base), classes))

    stats = SpanStats()
    tracer = Tracer(store=stats)
    server = InProcessServer(copy.deepcopy(base), classes, tracer=tracer)
    marks: dict[bool, Any] = {}

    def on_timed(start: bool) -> None:
        assert server.service is not None
        marks[start] = server.service.telemetry.snapshot()
        stats.mark(start)

    traced_session = Session(workload, classes, seed, half, base,
                             on_timed=on_timed)
    timers = Timers(tracer)
    with timers.installed():
        traced = traced_session.run(server)
    end_checks(traced_session)
    errors = untraced.errors + traced.errors
    if untraced.grid_key != traced.grid_key:
        errors.append("untraced and traced phases served different grids")
    report = Report(
        attempted=untraced.attempted + traced.attempted,
        errors=errors,
    )
    _per_layer(report, stats, timers, traced, untraced,
               marks[True], marks[False])
    return report


def _per_layer(
    report: Report,
    stats: SpanStats,
    timers: Timers,
    traced: Samples,
    untraced: Samples,
    before: Any,
    after: Any,
) -> None:
    rounds = traced.rounds
    count = stats.timed_counts

    def per_round(value: float) -> float:
        return value / rounds

    def us(name: str) -> float:
        return stats.median(name) * 1e6

    def ms(name: str) -> float:
        return stats.median(name) * 1e3

    def delta(field: str) -> int:
        return int(getattr(after, field)) - int(getattr(before, field))

    add = report.add
    add("net.request_encode_us",
        us("client.encode_request") + us("client.encode_frame"), "us")
    add("net.response_decode_us",
        us("client.frame_feed") + us("client.decode_response"), "us")
    add("net.response_bytes",
        statistics.median(timers.response_bytes), "bytes")
    server_self = (
        statistics.median(stats.latencies) - stats.median(
            "service.submit_batch")
        if stats.latencies else 0.0
    )
    add("net.server_self_us", server_self * 1e6, "us")
    add("net.stale_refreshes", per_round(traced.stale_refreshes), "1/round")

    add("service.submit_batch_us", us("service.submit_batch"), "us")
    add("service.admission_us", us("service.admit"), "us")
    batches = count["service.submit_batch"]
    add("service.class_groups",
        count["batch.group"] / batches if batches else 0.0, "1/batch")
    hits = delta("cache_hits")
    lookups = hits + delta("cache_misses")
    add("service.cache_hit_ratio", hits / lookups if lookups else 0.0,
        "ratio")

    add("kernels.gather_us", us("answer.gather"), "us")
    add("kernels.gathers", per_round(count["answer.gather"]), "1/round")
    add("kernels.table_build_ms", ms("answer.build"), "ms")
    add("kernels.table_builds", per_round(count["answer.build"]), "1/round")
    add("kernels.compile_ms", ms("kernel.compile"), "ms")
    add("kernels.sweep_ms", ms("kernel.sweep"), "ms")
    add("kernels.table_patch_ms", ms("answer.patch"), "ms")
    add("kernels.table_patches",
        per_round(delta("answer_table_patches")), "1/round")
    add("kernels.csr_patch_ms", ms("churn.patch"), "ms")
    add("kernels.resweep_ms", ms("churn.resweep"), "ms")
    add("kernels.patch_fallbacks",
        per_round(delta("patch_fallbacks")), "1/round")

    add("core.substrate_build_ms", ms("substrate.build"), "ms")
    add("core.substrate_builds",
        per_round(count["substrate.build"]), "1/round")
    add("core.crt_pass_ms", ms("crt.pass"), "ms")
    add("core.crt_passes", per_round(count["crt.pass"]), "1/round")
    add("core.per_query_answers",
        per_round(count["service.route"]), "1/round")

    add("predtree.distance_matrix_ms", ms("predtree.distance_matrix"), "ms")
    membership = [
        *stats.durations.get("predtree.remove_host", []),
        *stats.durations.get("predtree.add_host.outer", []),
    ]
    add("predtree.membership_ms",
        statistics.median(membership) * 1e3 if membership else 0.0, "ms")
    add("predtree.rejoined_hosts", per_round(traced.rejoined), "1/round")

    add("obs.traced_qps", traced.qps, "queries/s")
    add("obs.untraced_qps", untraced.qps, "queries/s")
    add("obs.traced_over_untraced", traced.qps / untraced.qps, "ratio")

    for layer in LAYERS:
        add(f"{layer}.self_ms", per_round(stats.timed_self[layer] * 1e3),
            "ms/round")
        add(f"{layer}.busy_ms", per_round(stats.timed_busy[layer] * 1e3),
            "ms/round")
        spans = sum(n for name, n in count.items() if layer_of(name) == layer)
        add(f"{layer}.spans", per_round(spans), "1/round")
