"""Fine clustering: splitting oversized coarse clusters by MCCS similarity.

Coarse (k-means) clusters may exceed the maximum cluster size N, which
would make cluster-summary-graph generation expensive; CATAPULT then
replaces each oversized cluster with smaller clusters of pairwise-similar
graphs under MCCS similarity (paper, Section 2.3).

The splitter is a greedy packing: take the highest-degree unplaced graph
as a seed, attach the N−1 unplaced graphs most MCCS-similar to it, and
repeat.  This directly targets the paper's requirement that intra-cluster
similarity dominates inter-cluster similarity while guaranteeing the size
bound.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graph.labeled_graph import LabeledGraph
from .mccs import mccs_similarity


def fine_split(
    member_ids: list[int],
    graphs: Mapping[int, LabeledGraph],
    max_cluster_size: int,
) -> list[set[int]]:
    """Split *member_ids* into clusters of at most *max_cluster_size*.

    Returns the new clusters as a list of ID sets.  A cluster already
    within the bound is returned unchanged (as a single set).
    """
    if max_cluster_size < 1:
        raise ValueError("max_cluster_size must be >= 1")
    if len(member_ids) <= max_cluster_size:
        return [set(member_ids)]
    # Deterministic processing order: larger graphs first make better
    # seeds because similarity normalises by the smaller edge count.
    unplaced = sorted(
        member_ids, key=lambda gid: (-graphs[gid].num_edges, gid)
    )
    clusters: list[set[int]] = []
    while unplaced:
        seed = unplaced.pop(0)
        cluster = {seed}
        if unplaced and max_cluster_size > 1:
            similarities = {
                gid: mccs_similarity(graphs[seed], graphs[gid])
                for gid in unplaced
            }
            scored = sorted(
                unplaced,
                key=lambda gid: (-similarities[gid], gid),
            )
            take = scored[: max_cluster_size - 1]
            cluster.update(take)
            taken = set(take)
            unplaced = [gid for gid in unplaced if gid not in taken]
        clusters.append(cluster)
    return clusters
