"""Workload definitions: the overlay, the query mix and the churn schedule.

The overlay is fixed (HP-like PlanetLab dataset and framework, both from
``OVERLAY_SEED``); the benchmark's ``--seed`` drives only what the
server is asked: the ``(k, b)`` stream and the churn victims.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.query import BandwidthClasses, ClusterQuery
from repro.datasets.planetlab import HP_QUERY_RANGE, hp_planetlab_like
from repro.predtree.framework import (
    BandwidthPredictionFramework,
    build_framework,
)

#: Dataset and framework seed of the served overlay (``serve --seed``).
OVERLAY_SEED = 0
#: Algorithm 2 cutoff (the ``serve`` default).
N_CUT = 10
#: Bandwidth classes: the paper's HP query range in seven classes.
CLASS_COUNT = 7
#: Fig. 4 HP mix: ``k`` uniform in 2..90, ``b`` uniform in 15..75 Mbps.
K_LOW, K_HIGH = 2, 90
B_LOW, B_HIGH = HP_QUERY_RANGE
#: Queries per ``submit_batch`` request.
BATCH_SIZE = 20
#: Victim strata of the cycles of one churn round.  Leaves are grouped
#: by their anchor parent, because departures under one anchor patch the
#: same region and cost alike: ``hub/0`` and ``hub/1`` are the leaves of
#: the two anchors with the most leaf children, ``leaf/rest`` every other
#: leaf (a leaf's departure is kernel-patched); ``restructure`` draws
#: among hosts with anchor descendants, whose departure re-joins them
#: and drops the substrate (the full-rebuild rung).
CHURN_PATTERN = ("leaf/rest", "hub/1", "hub/0", "restructure")
#: Victim strata of the membership probe after a read-only phase, and
#: the fixed seed of its victims and batches.
PROBE_STRATA = ("leaf/rest", "hub/1", "hub/0")
PROBE_SEED = 0
#: Step of a stratum's victim position from one round to the next (the
#: golden ratio's fractional part): the positions of any number of
#: rounds spread evenly over the stratum, whatever the seed's offset.
POSITION_STEP = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes
    ----------
    name:
        The ``--workload`` value.
    n:
        Overlay size.
    batches_per_round:
        Batches in one timed round of a read-only workload.
    churn:
        Whether the timed phase is made of churn rounds instead: one
        leave/join cycle per stratum of :data:`CHURN_PATTERN`, each
        cycle ``remove_host``, ``batches_per_cycle`` batches,
        ``add_host`` of the same host, ``batches_per_cycle`` batches.
    probe_rounds:
        Rounds of leaf leave/join cycles, one per stratum of
        :data:`PROBE_STRATA`, run after a read-only timed phase to
        measure membership latency (one batch after each event).
    """

    name: str
    n: int
    churn: bool
    batches_per_round: int = 0
    batches_per_cycle: int = 0
    probe_rounds: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wire-steady-n200", n=200, churn=False,
                 batches_per_round=50, probe_rounds=10),
        Workload("wire-churn-n1000", n=1000, churn=True,
                 batches_per_cycle=10),
    )
}


def bandwidth_classes() -> BandwidthClasses:
    """The class set the ``serve`` command builds for the HP dataset."""
    return BandwidthClasses.linear(B_LOW, B_HIGH, CLASS_COUNT)


def build_overlay(n: int) -> BandwidthPredictionFramework:
    """The served overlay, rebuilt exactly as ``repro-bcc serve`` does."""
    dataset = hp_planetlab_like(seed=OVERLAY_SEED, n=n)
    return build_framework(dataset.bandwidth, seed=OVERLAY_SEED)


def serve_argv(n: int) -> list[str]:
    """``repro-bcc serve`` arguments that build :func:`build_overlay`."""
    return [
        "serve", "--dataset", "hp", "--n", str(n),
        "--seed", str(OVERLAY_SEED), "--n-cut", str(N_CUT),
        "--port", "0",
    ]


def random_batch(rng: np.random.Generator) -> list[ClusterQuery]:
    """One fixed-size batch of the Fig. 4 HP mix."""
    ks = rng.integers(K_LOW, K_HIGH + 1, size=BATCH_SIZE)
    bs = rng.uniform(B_LOW, B_HIGH, size=BATCH_SIZE)
    return [ClusterQuery(k=int(k), b=float(b)) for k, b in zip(ks, bs)]


def cold_batch(classes: BandwidthClasses) -> list[ClusterQuery]:
    """The first batch: one query per bandwidth class.

    Its sizes are spread evenly over the ``k`` range and do not depend
    on the seed, so every run's cold batch does the same work.
    """
    last = len(classes) - 1
    return [
        ClusterQuery(k=K_LOW + (K_HIGH - K_LOW) * i // last, b=b)
        for i, b in enumerate(classes.bandwidths)
    ]


def grid_batches(classes: BandwidthClasses) -> list[list[ClusterQuery]]:
    """Every ``(k, class)`` pair once, in a seed-independent order.

    Serving it warms every answer into the result cache, and its mean
    hop count is the Fig. 6 unit over a fixed query stream.
    """
    grid = [
        ClusterQuery(k=k, b=b)
        for b in classes.bandwidths
        for k in range(K_LOW, K_HIGH + 1)
    ]
    return [
        grid[i:i + BATCH_SIZE] for i in range(0, len(grid), BATCH_SIZE)
    ]


def victim_positions(rng: np.random.Generator):
    """Each stratum's victim position in ``[0, 1)``, round after round.

    A stratum starts at an offset drawn from *rng* and steps by
    :data:`POSITION_STEP` each round, so every position is uniform over
    the stratum while the positions of one run cover it evenly.
    """
    offsets = {stratum: float(rng.random())
               for stratum in (*CHURN_PATTERN, *PROBE_STRATA)}
    round_index = 0
    while True:
        yield {
            stratum: (offset + round_index * POSITION_STEP) % 1.0
            for stratum, offset in offsets.items()
        }
        round_index += 1


def pick_victim(
    framework: BandwidthPredictionFramework,
    stratum: str,
    position: float,
) -> int:
    """The non-root host of *stratum* at *position* in ``[0, 1)``.

    The stratum's hosts are ordered by the size of the anchor subtree
    their departure disturbs, so positions spread over ``[0, 1)`` draw
    cheap and expensive departures in the same proportion in every run
    (see the README).
    """
    anchor = framework.anchor_tree
    root = anchor.root
    size = {host: len(anchor.subtree(host)) for host in framework.hosts}
    if stratum == "restructure":
        candidates = sorted(
            (size[host], host) for host in framework.hosts
            if host != root and anchor.children(host)
        )
        return candidates[int(position * len(candidates))][1]
    groups: dict[int, list[int]] = defaultdict(list)
    for host in sorted(framework.hosts):
        if host != root and not anchor.children(host):
            groups[anchor.parent(host)].append(host)
    hubs = sorted(groups, key=lambda parent: (-len(groups[parent]), parent))
    if stratum.startswith("hub/"):
        hosts = groups[hubs[int(stratum[4:])]]
    else:
        hosts = [
            host for _size, _parent, host in sorted(
                (size[parent], parent, host)
                for parent in hubs[2:] for host in groups[parent]
            )
        ]
    return hosts[int(position * len(hosts))]
