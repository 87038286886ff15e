"""One benchmark session: a server, one blocking client, and its phases.

A session starts a server (``repro-bcc serve`` in its own process, or
``serve_in_background`` in this process for a traced run), then drives
it from one :class:`~repro.net.ClusterClient` in a closed loop:

1. the cold batch (one query per bandwidth class);
2. the grid warm-up (every ``(k, class)`` once; gives ``hops_per_query``);
3. the timed phase, in whole rounds until ``seconds`` of operation
   time have accumulated;
4. for a read-only workload, a membership probe of leaf leave/join
   cycles.

Only client round trips are timed.  Checks, and the twin overlay that
follows the server's membership events, run between operations while
the server is idle.
"""

from __future__ import annotations

import copy
import os
import re
import resource
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import AnswerKey, OverlayState, record_answers
from repro.core.query import BandwidthClasses, ClusterQuery
from repro.net import ClusterClient, serve_in_background
from repro.obs import TracerLike
from repro.predtree.framework import BandwidthPredictionFramework
from repro.service import ClusterQueryService, ServiceResult
from workload import (
    CHURN_PATTERN,
    N_CUT,
    PROBE_SEED,
    PROBE_STRATA,
    Workload,
    cold_batch,
    grid_batches,
    pick_victim,
    random_batch,
    serve_argv,
    victim_positions,
)

#: Seconds a server may take to print its address.
_START_TIMEOUT_S = 150.0
#: Per-request client timeout; a restructuring departure at n=1000
#: re-joins hundreds of hosts and takes seconds.
_REQUEST_TIMEOUT_S = 60.0
_ADDRESS = re.compile(r" on ([0-9.]+):([0-9]+) ")


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


@dataclass
class Samples:
    """What one session measured and found wrong."""

    setup_s: float = 0.0
    cold_batch_s: float = 0.0
    hops_per_query: float = 0.0
    batch_s: list[float] = field(default_factory=list)
    membership_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    timed_queries: int = 0
    rounds: int = 0
    attempted: int = 0
    restructures: int = 0
    rejoined: int = 0
    cache_misses: int = 0
    stale_refreshes: int = 0
    peak_rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: One line per timed churn cycle: stratum, victim and timings.
    cycle_log: list[str] = field(default_factory=list)
    #: Distinct answers of the grid (generation 0) and of the final
    #: generation, for the oracle and cold-build comparisons.
    grid_key: AnswerKey = field(default_factory=dict)
    final_key: AnswerKey = field(default_factory=dict)

    @property
    def qps(self) -> float:
        """Answered queries per second of timed operation."""
        return self.timed_queries / self.timed_s


def _repo_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    # A fixed hash seed makes the server's set and dict orders, and the
    # work that follows them, the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


class SubprocessServer:
    """``repro-bcc serve`` in its own process; yields a connected client.

    ``setup_s`` runs from just before the process starts to the first
    answered ping.  Peak RSS is read from the reaped child's rusage.
    """

    def __init__(self, src: Path, workload: Workload) -> None:
        self._src = src
        self._workload = workload
        self._proc: subprocess.Popen[str] | None = None
        self.peak_rss_mb = 0.0

    def start(self) -> tuple[ClusterClient, float]:
        began = time.perf_counter()
        # The safety stop bounds the server's life if this process dies.
        argv = [sys.executable, "-m", "repro.cli",
                *serve_argv(self._workload.n), "--max-seconds", "175"]
        self._proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=_repo_env(self._src),
            text=True,
        )
        line = self._read_address_line()
        match = _ADDRESS.search(line)
        if match is None:
            raise BenchmarkError(f"unexpected server banner: {line!r}")
        client = ClusterClient(
            match.group(1), int(match.group(2)),
            request_timeout=_REQUEST_TIMEOUT_S, retries=0,
        )
        client.ping()
        return client, time.perf_counter() - began

    def _read_address_line(self) -> str:
        proc = self._proc
        assert proc is not None and proc.stdout is not None
        deadline = time.monotonic() + _START_TIMEOUT_S
        seen: list[str] = []
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not selector.select(timeout=left):
                    raise BenchmarkError("server did not start in time")
                line = proc.stdout.readline()
                if not line:
                    raise BenchmarkError(
                        "server exited before serving: "
                        + "".join(seen)[-2000:]
                    )
                if line.startswith("serving "):
                    return line
                seen.append(line)

    def stop(self) -> None:
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        # The only child this process reaps is the server.
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


class InProcessServer:
    """``serve_in_background`` over a service built in this process."""

    #: Not measured: the process also holds the client and the twin.
    peak_rss_mb = 0.0

    def __init__(
        self,
        framework: BandwidthPredictionFramework,
        classes: BandwidthClasses,
        tracer: TracerLike | None = None,
    ) -> None:
        self._framework = framework
        self._classes = classes
        self._tracer = tracer
        self._handle = None
        self.service: ClusterQueryService | None = None

    def start(self) -> tuple[ClusterClient, float]:
        began = time.perf_counter()
        self.service = ClusterQueryService(
            self._framework, self._classes, n_cut=N_CUT,
            tracer=self._tracer,
        )
        self._handle = serve_in_background(self.service, tracer=self._tracer)
        host, port = self._handle.address
        client = ClusterClient(
            host, port, request_timeout=_REQUEST_TIMEOUT_S, retries=0
        )
        client.ping()
        return client, time.perf_counter() - began

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.stop()
            self._handle = None


class Session:
    """Drives one server through the phases of one workload.

    *twin* is an overlay built from the same seeds as the server's; it
    replays every membership event the server sees, so that answers
    can be checked against the generation they were served at.
    *on_timed* is called with ``True`` just before the timed phase and
    with ``False`` just after it.
    """

    def __init__(
        self,
        workload: Workload,
        classes: BandwidthClasses,
        seed: int,
        seconds: float,
        twin: BandwidthPredictionFramework,
        on_timed: Callable[[bool], None] | None = None,
    ) -> None:
        self.workload = workload
        self.classes = classes
        self.seconds = seconds
        self.twin = twin
        self.grid_twin: BandwidthPredictionFramework | None = None
        self.samples = Samples()
        self._queries = np.random.default_rng([seed, 0])
        self._positions = victim_positions(
            np.random.default_rng([seed, 1])
        )
        self._on_timed = on_timed
        self._state = OverlayState.of(twin, classes)

    def run(self, server: SubprocessServer | InProcessServer) -> Samples:
        """All phases against *server*; stops it before returning."""
        samples = self.samples
        try:
            client, samples.setup_s = server.start()
            with client:
                self._cold(client)
                self._grid(client)
                if self._on_timed is not None:
                    self._on_timed(True)
                self._timed(client)
                if self._on_timed is not None:
                    self._on_timed(False)
                samples.stale_refreshes = client.stale_refreshes
                # The probe is seed-free, like the grid: at n=200 its
                # median moved ~50% with the victims a seed drew.
                self._queries = np.random.default_rng([PROBE_SEED, 0])
                self._positions = victim_positions(
                    np.random.default_rng([PROBE_SEED, 1])
                )
                for _ in range(self.workload.probe_rounds):
                    positions = next(self._positions)
                    for stratum in PROBE_STRATA:
                        self._cycle(client, stratum, positions[stratum],
                                    batches=1, timed=False)
        finally:
            server.stop()
        samples.peak_rss_mb = server.peak_rss_mb
        return samples

    # -- phases --------------------------------------------------------------

    def _cold(self, client: ClusterClient) -> None:
        queries = cold_batch(self.classes)
        began = time.perf_counter()
        results = client.submit_batch(queries)
        self.samples.cold_batch_s = time.perf_counter() - began
        self._check(queries, results, {})

    def _grid(self, client: ClusterClient) -> None:
        key = self.samples.grid_key
        hops = []
        for queries in grid_batches(self.classes):
            results = client.submit_batch(queries)
            self._check(queries, results, key)
            hops.extend(result.hops for result in results)
        self.samples.hops_per_query = sum(hops) / len(hops)
        if not self.workload.churn:
            # The oracle replays generation 0; the probe moves the twin.
            self.grid_twin = copy.deepcopy(self.twin)

    def _timed(self, client: ClusterClient) -> None:
        samples = self.samples
        while samples.timed_s < self.seconds:
            if self.workload.churn:
                # One round draws one victim from every stratum, so
                # every run has the same mix of departures.
                positions = next(self._positions)
                for stratum in CHURN_PATTERN:
                    self._cycle(client, stratum, positions[stratum],
                                self.workload.batches_per_cycle, timed=True)
            else:
                self._steady_round(client)
            samples.rounds += 1

    def _steady_round(self, client: ClusterClient) -> None:
        samples = self.samples
        served = []
        for _ in range(self.workload.batches_per_round):
            queries = random_batch(self._queries)
            samples.attempted += 1
            began = time.perf_counter()
            results = client.submit_batch(queries)
            elapsed = time.perf_counter() - began
            samples.batch_s.append(elapsed)
            samples.timed_s += elapsed
            samples.timed_queries += len(results)
            served.append((queries, results))
        # After the grid every (k, class) is cached: each answer must be
        # the checked grid answer, at generation 0.
        for queries, results in served:
            self._check(queries, results, samples.grid_key, fresh=False)

    def _cycle(
        self,
        client: ClusterClient,
        stratum: str,
        position: float,
        batches: int,
        timed: bool,
    ) -> None:
        """``remove_host``, *batches*, ``add_host`` (same host), *batches*."""
        samples = self.samples
        victim = pick_victim(self.twin, stratum, position)
        spent = {True: 0.0, False: 0.0}
        displaced: tuple[int, ...] = ()
        for leave in (True, False):
            if timed:
                samples.attempted += 1
            began = time.perf_counter()
            if leave:
                generation, displaced = client.remove_host(victim)
            else:
                generation = client.add_host(victim)
            elapsed = time.perf_counter() - began
            samples.membership_s.append(elapsed)
            spent[leave] += elapsed
            if timed:
                samples.timed_s += elapsed
            if leave:
                rejoined = tuple(self.twin.remove_host(victim))
                samples.restructures += bool(displaced)
                samples.rejoined += len(displaced)
                if rejoined != displaced:
                    raise BenchmarkError(
                        f"twin overlay diverged: removing {victim} "
                        f"re-joined {displaced} on the server, "
                        f"{rejoined} on the twin"
                    )
            else:
                self.twin.add_host(victim)
            if generation != self.twin.generation:
                raise BenchmarkError(
                    f"twin overlay diverged: server at generation "
                    f"{generation}, twin at {self.twin.generation}"
                )
            self._state = OverlayState.of(self.twin, self.classes)
            key: AnswerKey = {}
            for _ in range(batches):
                queries = random_batch(self._queries)
                began = time.perf_counter()
                results = client.submit_batch(queries)
                elapsed = time.perf_counter() - began
                spent[leave] += elapsed
                if timed:
                    samples.attempted += 1
                    samples.batch_s.append(elapsed)
                    samples.timed_s += elapsed
                    samples.timed_queries += len(results)
                self._check(queries, results, key)
            self.samples.final_key = key
        if timed:
            samples.cycle_log.append(
                f"cycle {len(samples.cycle_log)} {stratum:<11} victim "
                f"{victim:>4} re-joined {len(displaced):>3}: leave "
                f"{spent[True]:.3f} s, join {spent[False]:.3f} s "
                "(each with its batches)"
            )

    # -- checks --------------------------------------------------------------

    def _check(
        self,
        queries: list[ClusterQuery],
        results: list[ServiceResult],
        key: AnswerKey,
        fresh: bool = True,
    ) -> None:
        """Validate one batch and fold it into *key*.

        With ``fresh=False`` *key* is a checked reference and the batch
        must repeat it exactly, so only cache misses are counted.
        """
        errors = self.samples.errors
        if fresh:
            for query, result in zip(queries, results):
                errors.extend(self._state.problems(query, result))
        else:
            self.samples.cache_misses += sum(
                not result.cached for result in results
            )
            for query, result in zip(queries, results):
                if result.generation != self._state.generation:
                    errors.append(
                        f"generation {result.generation} in a read-only "
                        f"stream at {self._state.generation}"
                    )
        errors.extend(record_answers(key, queries, results, self.classes))
