"""The benchmark's checks accept served answers and reject doctored ones.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from checks import (
    OverlayState,
    cold_build_mismatches,
    oracle_mismatches,
    record_answers,
    tree_distances,
)
from repro.core.query import ClusterQuery
from repro.service import ClusterQueryService
from workload import (
    CHURN_PATTERN,
    N_CUT,
    PROBE_STRATA,
    bandwidth_classes,
    build_overlay,
    grid_batches,
    pick_victim,
    victim_positions,
)

N = 40


@pytest.fixture(scope="module")
def served():
    """A small overlay, its twin, and every grid answer it serves."""
    classes = bandwidth_classes()
    twin = build_overlay(N)
    service = ClusterQueryService(build_overlay(N), classes, n_cut=N_CUT)
    pairs = []
    for queries in grid_batches(classes):
        pairs.extend(zip(queries, service.submit_batch(queries)))
    return classes, twin, pairs


def _found(pairs, k_min=3):
    """A served pair whose cluster is non-empty with at least *k_min*."""
    return next(
        (query, result) for query, result in pairs
        if result.found and query.k >= k_min
    )


def _key(pairs, classes):
    key = {}
    queries = [query for query, _ in pairs]
    results = [result for _, result in pairs]
    assert record_answers(key, queries, results, classes) == []
    return key


def test_tree_distances_match_the_framework():
    framework = build_overlay(N)
    hosts = sorted(framework.hosts)
    ours = tree_distances(framework.tree, hosts)
    theirs = framework.predicted_distance_matrix().values
    assert np.allclose(ours, theirs[np.ix_(hosts, hosts)], rtol=1e-12)


def test_served_answers_pass(served):
    classes, twin, pairs = served
    state = OverlayState.of(twin, classes)
    assert any(result.found for _, result in pairs)
    for query, result in pairs:
        assert state.problems(query, result) == []


def test_pair_below_b_fails(served):
    classes, twin, pairs = served
    state = OverlayState.of(twin, classes)
    query, result = _found(pairs)
    snapped = classes.snap_bandwidth(query.b)
    limit = classes.transform.distance_constraint(snapped)
    member = result.cluster[0]
    far = next(
        host for host in state.hosts
        if host not in result.cluster
        and state.distances[state.index[member], state.index[host]] > limit
    )
    doctored = replace(
        result, cluster=tuple(sorted((*result.cluster[:-1], far)))
    )
    errors = state.problems(query, doctored)
    assert any("predicted bandwidth" in error for error in errors)


def test_wrong_size_fails(served):
    classes, twin, pairs = served
    state = OverlayState.of(twin, classes)
    query, result = _found(pairs)
    short = replace(result, cluster=result.cluster[1:])
    repeated = replace(
        result, cluster=(result.cluster[0], *result.cluster[:-1])
    )
    assert any("expected" in e for e in state.problems(query, short))
    assert any("distinct" in e for e in state.problems(query, repeated))


def test_departed_host_fails(served):
    classes, twin, pairs = served
    query, result = next(
        (query, result) for query, result in pairs
        if result.found
        and twin.anchor_tree.root not in result.cluster
        and any(
            not twin.anchor_tree.children(host) for host in result.cluster
        )
    )
    framework = copy.deepcopy(twin)
    leaf = next(
        host for host in result.cluster
        if not framework.anchor_tree.children(host)
    )
    framework.remove_host(leaf)
    state = OverlayState.of(framework, classes)
    moved = replace(result, generation=framework.generation)
    errors = state.problems(query, moved)
    assert any("not live" in error for error in errors)


def test_stale_generation_fails(served):
    classes, twin, pairs = served
    state = OverlayState.of(twin, classes)
    query, result = pairs[0]
    errors = state.problems(query, replace(result, generation=7))
    assert any("generation" in error for error in errors)


def test_conflicting_answers_in_one_generation_fail(served):
    classes, _twin, pairs = served
    key = _key(pairs, classes)
    query, result = _found(pairs)
    doctored = replace(result, hops=result.hops + 1)
    errors = record_answers(key, [query], [doctored], classes)
    assert len(errors) == 1


def test_oracle_agrees_and_catches_a_changed_hop_count(served):
    classes, twin, pairs = served
    key = _key(pairs, classes)
    assert oracle_mismatches(key, twin, classes, N_CUT) == []
    slot, (cluster, hops, start) = next(iter(sorted(key.items())))
    key[slot] = (cluster, hops + 1, start)
    errors = oracle_mismatches(key, twin, classes, N_CUT)
    assert len(errors) == 1 and "hop" in errors[0]


def test_cold_build_agrees_and_catches_a_changed_cluster(served):
    classes, twin, pairs = served
    key = _key(pairs, classes)
    assert cold_build_mismatches(
        key, copy.deepcopy(twin), classes, N_CUT
    ) == []
    query, result = _found(pairs)
    slot = (query.k, classes.snap_bandwidth(query.b))
    key[slot] = (result.cluster[1:], result.hops, result.start)
    errors = cold_build_mismatches(key, copy.deepcopy(twin), classes, N_CUT)
    assert len(errors) == 1


def test_cold_build_catches_answers_after_unseen_churn(served):
    classes, twin, pairs = served
    key = _key(pairs, classes)
    framework = copy.deepcopy(twin)
    root = framework.anchor_tree.root
    leaf = next(
        host for host in sorted(framework.hosts)
        if host != root and not framework.anchor_tree.children(host)
        and any(host in cluster for cluster, _h, _s in key.values())
    )
    framework.remove_host(leaf)
    assert cold_build_mismatches(key, framework, classes, N_CUT) != []


def test_grid_covers_every_k_and_class():
    classes = bandwidth_classes()
    slots = {
        (query.k, query.b)
        for batch in grid_batches(classes) for query in batch
    }
    assert len(slots) == 89 * len(classes)
    assert ClusterQuery(k=2, b=classes.bandwidths[0]) in [
        query for batch in grid_batches(classes) for query in batch
    ]


def test_leaf_strata_partition_the_leaves():
    framework = build_overlay(N)
    anchor = framework.anchor_tree
    leaves = {
        host for host in framework.hosts
        if host != anchor.root and not anchor.children(host)
    }
    drawn = {
        stratum: {
            pick_victim(framework, stratum, i / 1000) for i in range(1000)
        }
        for stratum in PROBE_STRATA
    }
    assert set().union(*drawn.values()) == leaves
    assert sum(len(hosts) for hosts in drawn.values()) == len(leaves)
    for stratum in ("hub/0", "hub/1"):
        assert len({anchor.parent(host) for host in drawn[stratum]}) == 1
    assert len(drawn["hub/0"]) >= len(drawn["hub/1"])
    restructure = {
        pick_victim(framework, "restructure", i / 1000) for i in range(1000)
    }
    assert restructure == {
        host for host in framework.hosts
        if host != anchor.root and anchor.children(host)
    }


def test_victim_positions_spread_over_each_stratum():
    for seed in range(20):
        rounds = victim_positions(np.random.default_rng([seed, 1]))
        first = [next(rounds) for _ in range(3)]
        for stratum in CHURN_PATTERN:
            positions = sorted(step[stratum] for step in first)
            gaps = [b - a for a, b in zip(positions, positions[1:])]
            gaps.append(1.0 + positions[0] - positions[-1])
            assert all(0.0 <= x < 1.0 for x in positions)
            assert min(gaps) > 0.2
