"""Cluster-isolation verification (paper Property 4.1 and Theorem 4.4).

Property 4.1: a cluster C(u) is *isolated* if for every other vertex v,
the cluster C(v) computed on the remaining graph G - C(u) equals the one
computed on G.  An algorithm is cluster-isolated when every cluster it
produces is isolated.

These checkers make the property executable: they compare, vertex by
vertex, the per-vertex smallest valid t-connectivity clusters before and
after removing a cluster.  The property tests use them to validate
Theorem 4.4's sufficient condition, and to exhibit the paper's own
counterexamples (plain kNN is not cluster-isolated).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.graph.cluster_tree import ClusterTree
from repro.graph.wpg import WeightedProximityGraph

#: A clustering rule: (graph, vertex, k) -> cluster or None when impossible.
ClusterRule = Callable[[WeightedProximityGraph, int, int], Optional[set[int]]]


def smallest_valid_cluster_rule(
    graph: WeightedProximityGraph, vertex: int, k: int
) -> Optional[set[int]]:
    """The paper's canonical rule: smallest valid t-connectivity cluster.

    Computed via the cluster tree: the lowest t-component containing
    ``vertex`` with size >= k, or None when the vertex's whole component
    is too small (or ``vertex`` is not in ``graph``).
    """
    if vertex not in graph:
        return None
    found = ClusterTree(graph).smallest_valid_cluster(vertex, k)
    return None if found is None else set(found[0])


def isolation_counterexample(
    graph: WeightedProximityGraph,
    cluster: set[int],
    k: int,
    rule: ClusterRule = smallest_valid_cluster_rule,
    witnesses: Optional[Iterable[int]] = None,
) -> Optional[int]:
    """A vertex whose cluster changes when ``cluster`` is removed, or None.

    ``witnesses`` restricts which remaining vertices are checked (default:
    all of them).  "Changes" includes becoming impossible: a vertex that
    had a valid cluster in G but none in G - cluster is a counterexample
    (paper Fig. 5's vertex g).
    """
    remaining = [v for v in graph.vertices() if v not in cluster]
    reduced = graph.subgraph(remaining)
    pool = witnesses if witnesses is not None else remaining
    for vertex in pool:
        if vertex in cluster:
            continue
        before = rule(graph, vertex, k)
        after = rule(reduced, vertex, k)
        if before != after:
            return vertex
    return None


def is_cluster_isolated(
    graph: WeightedProximityGraph,
    cluster: set[int],
    k: int,
    rule: ClusterRule = smallest_valid_cluster_rule,
) -> bool:
    """True when removing ``cluster`` changes no other vertex's cluster."""
    return isolation_counterexample(graph, cluster, k, rule=rule) is None


def border_condition_holds(
    graph: WeightedProximityGraph, cluster: set[int], t: float, k: int
) -> bool:
    """Theorem 4.4's sufficient condition, stated directly.

    Every external border vertex of ``cluster`` must have a t-connectivity
    cluster of size >= k in the remaining WPG.
    """
    from repro.graph.components import external_border, t_component

    remaining_exclude = set(cluster)
    for vertex in external_border(graph, cluster, cluster):
        component = t_component(
            graph, vertex, t, exclude=remaining_exclude, size_limit=k
        )
        if len(component) < k:
            return False
    return True
