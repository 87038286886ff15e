"""Correctness checks on served answers, made outside the timed phase.

Three independent references:

* :class:`OverlayState` recomputes predicted distances from the
  prediction tree's edge list (not through the framework's distance
  matrix) and checks every cluster against the method's own
  properties: exactly ``k`` distinct live hosts, every pair's
  predicted bandwidth at least the snapped ``b``;
* :func:`oracle_mismatches` replays each distinct ``(k, class)``
  through the kernel-free round protocol (Algorithms 2-4 under
  ``REPRO_KERNELS=python``) on a twin overlay, hops included;
* :func:`cold_build_mismatches` asks a freshly built service over a
  twin that saw the same membership events.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.decentralized import DecentralizedClusterSearch
from repro.core.query import BandwidthClasses, ClusterQuery
from repro.kernels import BACKEND_ENV
from repro.predtree.framework import BandwidthPredictionFramework
from repro.predtree.tree import PredictionTree
from repro.service import ClusterQueryService, ServiceResult

#: Relative slack for comparing independently summed tree distances.
_RTOL = 1e-9

#: ``(k, snapped_b)`` → ``(cluster, hops, start)``: one generation's
#: distinct answers.
AnswerKey = dict[tuple[int, float], tuple[tuple[int, ...], int, int]]


def tree_distances(tree: PredictionTree, hosts: list[int]) -> np.ndarray:
    """All-pairs ``d_T`` over *hosts*, from the tree's edges alone.

    Vertices are numbered in DFS preorder from the first host's
    vertex, so each subtree is one index range.  The root's row is the
    depth of every vertex; a child's row is its parent's row plus the
    edge weight, minus twice that weight inside its own subtree.
    """
    adjacency: dict[int, list[tuple[int, float]]] = defaultdict(list)
    for u, v, weight, _owner in tree.edges():
        adjacency[u].append((v, weight))
        adjacency[v].append((u, weight))
    root = tree.vertex_of_host(hosts[0])
    order: list[int] = []
    parent: dict[int, tuple[int, float]] = {}
    stack = [root]
    seen = {root}
    while stack:
        vertex = stack.pop()
        order.append(vertex)
        for neighbor, weight in adjacency[vertex]:
            if neighbor not in seen:
                seen.add(neighbor)
                parent[neighbor] = (vertex, weight)
                stack.append(neighbor)
    index = {vertex: i for i, vertex in enumerate(order)}
    end = list(range(1, len(order) + 1))
    for vertex in reversed(order[1:]):
        up = index[parent[vertex][0]]
        end[up] = max(end[up], end[index[vertex]])
    size = len(order)
    matrix = np.zeros((size, size))
    for i, vertex in enumerate(order[1:], start=1):
        up, weight = parent[vertex]
        matrix[0, i] = matrix[0, index[up]] + weight
    for i, vertex in enumerate(order[1:], start=1):
        up, weight = parent[vertex]
        row = matrix[index[up]] + weight
        row[i:end[i]] -= 2.0 * weight
        matrix[i] = row
    picks = [index[tree.vertex_of_host(host)] for host in hosts]
    return matrix[np.ix_(picks, picks)]


@dataclass
class OverlayState:
    """One overlay generation, as the checks see it."""

    generation: int
    hosts: list[int]
    index: dict[int, int]
    distances: np.ndarray
    classes: BandwidthClasses

    @classmethod
    def of(
        cls,
        framework: BandwidthPredictionFramework,
        classes: BandwidthClasses,
    ) -> "OverlayState":
        """Capture *framework*'s current generation."""
        hosts = sorted(framework.hosts)
        return cls(
            generation=framework.generation,
            hosts=hosts,
            index={host: i for i, host in enumerate(hosts)},
            distances=tree_distances(framework.tree, hosts),
            classes=classes,
        )

    def problems(
        self, query: ClusterQuery, result: ServiceResult
    ) -> list[str]:
        """Why *result* is not a valid answer to *query* (empty: valid)."""
        label = f"(k={query.k}, b={query.b:.4f})"
        errors: list[str] = []
        snapped = self.classes.snap_bandwidth(query.b)
        if result.generation != self.generation:
            errors.append(
                f"{label}: generation {result.generation}, overlay is "
                f"at {self.generation}"
            )
        if result.snapped_b != snapped:
            errors.append(
                f"{label}: snapped to {result.snapped_b}, not {snapped}"
            )
        if result.hops < 0:
            errors.append(f"{label}: negative hop count {result.hops}")
        cluster = result.cluster
        if not cluster:
            return errors
        if len(cluster) != query.k or len(set(cluster)) != query.k:
            errors.append(
                f"{label}: {len(cluster)} hosts "
                f"({len(set(cluster))} distinct), expected {query.k}"
            )
        departed = [host for host in cluster if host not in self.index]
        if departed:
            errors.append(f"{label}: hosts {departed} are not live")
            return errors
        rows = [self.index[host] for host in cluster]
        worst = float(self.distances[np.ix_(rows, rows)].max())
        if worst > 0.0:
            bandwidth = self.classes.transform.to_bandwidth(worst)
            if bandwidth < snapped * (1.0 - _RTOL):
                errors.append(
                    f"{label}: a pair's predicted bandwidth is "
                    f"{bandwidth:.4f} < {snapped}"
                )
        return errors


def record_answers(
    key: AnswerKey,
    queries: list[ClusterQuery],
    results: list[ServiceResult],
    classes: BandwidthClasses,
) -> list[str]:
    """Fold one batch into its generation's distinct answers.

    Two answers to the same ``(k, class)`` within one generation must
    agree: the result cache makes them one answer.
    """
    errors: list[str] = []
    if len(results) != len(queries):
        return [f"{len(results)} result(s) for {len(queries)} queries"]
    for query, result in zip(queries, results):
        slot = (query.k, classes.snap_bandwidth(query.b))
        answer = (result.cluster, result.hops, result.start)
        held = key.setdefault(slot, answer)
        if held != answer:
            errors.append(
                f"(k={slot[0]}, class={slot[1]}): answered both "
                f"{held} and {answer} in one generation"
            )
    return errors


def _mismatches(
    key: AnswerKey,
    reference: dict[tuple[int, float], tuple[tuple[int, ...], int]],
    name: str,
) -> list[str]:
    errors = []
    for slot, (cluster, hops, start) in sorted(key.items()):
        want = reference[slot]
        if (cluster, hops) != want:
            errors.append(
                f"(k={slot[0]}, class={slot[1]}, start={start}): served "
                f"{cluster} in {hops} hop(s), {name} gives {want[0]} in "
                f"{want[1]} hop(s)"
            )
    return errors


def oracle_mismatches(
    key: AnswerKey,
    framework: BandwidthPredictionFramework,
    classes: BandwidthClasses,
    n_cut: int,
) -> list[str]:
    """Compare *key* with the kernel-free round protocol on *framework*."""
    saved = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = "python"
    try:
        search = DecentralizedClusterSearch(framework, classes, n_cut=n_cut)
        search.run_aggregation()
        reference = {}
        for (k, snapped), (_cluster, _hops, start) in key.items():
            outcome = search.process_query(k, snapped, start=start)
            reference[(k, snapped)] = (tuple(outcome.cluster), outcome.hops)
    finally:
        if saved is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = saved
    return _mismatches(key, reference, "the round-protocol oracle")


def cold_build_mismatches(
    key: AnswerKey,
    framework: BandwidthPredictionFramework,
    classes: BandwidthClasses,
    n_cut: int,
) -> list[str]:
    """Compare *key* with a freshly built service over *framework*."""
    service = ClusterQueryService(framework, classes, n_cut=n_cut)
    reference = {}
    for (k, snapped), (_cluster, _hops, start) in key.items():
        result = service.submit(ClusterQuery(k=k, b=snapped), start=start)
        reference[(k, snapped)] = (result.cluster, result.hops)
    return _mismatches(key, reference, "a cold build")
