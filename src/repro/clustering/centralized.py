"""Centralized t-connectivity k-clustering (paper Algorithm 1).

Algorithm 1 partitions each connected component of the WPG by removing
edges in descending weight order until the component disconnects, then
recurses into the pieces, stopping when "a further partition will lead to
an invalid cluster" (size < k).  Two faithful readings exist (see
DESIGN.md, "Partition semantics of Algorithm 1"):

``strict``
    A partition step lowers the connectivity threshold t to the next
    weight level, so pieces are genuine t-connectivity clusters
    (Definition 4.1), and the step is accepted only when *every* piece is
    valid.  Matches the proofs; can freeze large components when a single
    straggler piece is invalid.

``greedy``
    Edge removals are attempted one at a time in descending (weight, key)
    order and skipped when they would create a piece smaller than k;
    passes repeat until a fixpoint.  Produces near-k clusters in practice
    and reproduces the paper's measured cluster sizes.

Both have a naive implementation (literal graph surgery, quadratic-ish)
and one fast implementation: the cut of a
:class:`~repro.graph.cluster_tree.ClusterTree`, plus its forest
refinement for greedy.  Naive and fast are cross-validated by the test
suite: the same groups, and within every strict piece the same greedy
groups in the same order.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional

from repro.errors import ConfigurationError
from repro.clustering.base import Partition
from repro.graph.cluster_tree import ClusterTree
from repro.graph.components import connected_components
from repro.graph.wpg import Edge, WeightedProximityGraph

Method = Literal["strict", "greedy"]


def centralized_k_clustering(
    graph: WeightedProximityGraph,
    k: int,
    method: Method = "greedy",
    vertices: Optional[Iterable[int]] = None,
    naive: bool = False,
) -> Partition:
    """Partition ``graph`` (or the induced subgraph on ``vertices``).

    Returns a :class:`Partition`: valid clusters of size >= k plus the
    components that simply do not contain k users.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if method not in ("strict", "greedy"):
        raise ConfigurationError(f"unknown method {method!r}")
    if naive:
        target = graph if vertices is None else graph.subgraph(vertices)
        groups = (
            _strict_partition_naive(target, k)
            if method == "strict"
            else _greedy_partition_naive(target, k)
        )
    else:
        tree = ClusterTree(graph, vertices)
        groups = (
            tree.strict_partition(k)
            if method == "strict"
            else tree.greedy_partition(k)
        )
    partition = Partition(k=k)
    for group in groups:
        (partition.clusters if len(group) >= k else partition.invalid).append(group)
    return partition


def strict_partition(
    graph: WeightedProximityGraph, k: int, naive: bool = False
) -> Partition:
    """Algorithm 1 under strict t-component semantics."""
    return centralized_k_clustering(graph, k, method="strict", naive=naive)


def greedy_partition(
    graph: WeightedProximityGraph, k: int, naive: bool = False
) -> Partition:
    """Algorithm 1 under greedy edge-skip semantics (experiment default)."""
    return centralized_k_clustering(graph, k, method="greedy", naive=naive)


# -- strict semantics ---------------------------------------------------------


def _strict_partition_naive(graph: WeightedProximityGraph, k: int) -> list[set[int]]:
    """Literal Algorithm 1: recursive descending weight-class removal."""
    result: list[set[int]] = []
    work = connected_components(graph)
    while work:
        component = work.pop()
        pieces = _strict_split_once(graph, component, k)
        if pieces is None:
            result.append(component)
        else:
            work.extend(pieces)
    return result


def _strict_split_once(
    graph: WeightedProximityGraph, component: set[int], k: int
) -> Optional[list[set[int]]]:
    """One strict partition step, or None when the component is final.

    Lower t level by level (remove the heaviest remaining weight class)
    until the component disconnects; accept only an all-valid split.
    """
    if len(component) < 2 * k:
        return None  # cannot split into two valid pieces
    sub = graph.subgraph(component)
    levels = sorted({edge.weight for edge in sub.edges()}, reverse=True)
    for level in levels:
        for edge in [e for e in sub.edges() if e.weight == level]:
            sub.remove_edge(edge.u, edge.v)
        pieces = connected_components(sub)
        if len(pieces) > 1:
            if all(len(piece) >= k for piece in pieces):
                return pieces
            return None  # a further partition leads to an invalid cluster
    return None  # edgeless without ever disconnecting: single vertex


# -- greedy semantics ---------------------------------------------------------


def _greedy_partition_naive(graph: WeightedProximityGraph, k: int) -> list[set[int]]:
    """Greedy Algorithm 1 straight over connected components."""
    result: list[set[int]] = []
    for component in connected_components(graph):
        result.extend(_greedy_refine_naive(graph.subgraph(component), k))
    return result


def _greedy_refine_naive(sub: WeightedProximityGraph, k: int) -> list[set[int]]:
    """Greedy fixpoint passes over one connected cluster (mutates ``sub``).

    Each pass walks the remaining edges in descending (weight, key) order;
    a removal that disconnects the edge's component is kept only if both
    sides hold >= k vertices (the split is then final and both sides are
    processed independently).  Passes repeat while any edge was removed:
    an earlier-skipped bridge can become validly removable after a sibling
    split shrinks its side.  Re-enumerates and re-sorts the component's
    current edges at the start of every pass, exactly as the prose of the
    algorithm reads — the differential reference for the cluster tree's
    forest refinement, which must produce the same clusters in the same
    order.
    """
    result: list[set[int]] = []
    work: list[set[int]] = connected_components(sub)
    while work:
        component = work.pop()
        if len(component) < 2 * k:
            result.append(component)
            continue
        split = _naive_pass_until_fixpoint(sub, component, k)
        if split is None:
            result.append(component)
        else:
            work.extend(split)
    return result


def _naive_pass_until_fixpoint(
    sub: WeightedProximityGraph, component: set[int], k: int
) -> Optional[list[set[int]]]:
    """One-component fixpoint loop of :func:`_greedy_refine_naive`."""
    while True:
        removed_any = False
        # Enumerate only this component's edges (sub is shared between the
        # worklist's components; iterating all of sub would be quadratic).
        edges = sorted(
            (
                Edge(u, v, w)
                for u in component
                for v, w in sub.neighbor_weights(u)
                if u < v
            ),
            key=lambda e: (-e.weight, e.key()),
        )
        for edge in edges:
            sub.remove_edge(edge.u, edge.v)
            side = _side_of(sub, edge.u, edge.v, component)
            if side is None:
                removed_any = True  # still connected; removal stands
                continue
            other = component - side
            if len(side) >= k and len(other) >= k:
                return [side, other]
            sub.add_edge(edge.u, edge.v, edge.weight)  # invalid split: skip
        if not removed_any:
            return None


def _side_of(
    sub: WeightedProximityGraph, u: int, v: int, component: set[int]
) -> Optional[set[int]]:
    """After removing (u, v): None if u~v still connected, else u's side.

    Bidirectional BFS: grows both frontiers in lockstep so a true bridge
    costs O(min side) and a non-bridge exits as soon as the frontiers
    touch (cheap in dense rank-weighted WPGs).
    """
    seen_u: set[int] = {u}
    seen_v: set[int] = {v}
    frontier_u: list[int] = [u]
    frontier_v: list[int] = [v]
    while frontier_u and frontier_v:
        # Expand the smaller frontier.
        if len(frontier_u) <= len(frontier_v):
            frontier_u = _expand(sub, frontier_u, seen_u)
            if seen_u & seen_v:
                return None
        else:
            frontier_v = _expand(sub, frontier_v, seen_v)
            if seen_u & seen_v:
                return None
    if not frontier_u:
        return seen_u
    # v's side exhausted first: u's side is the complement.
    if seen_u & seen_v:
        return None
    return component - seen_v


def _expand(
    sub: WeightedProximityGraph, frontier: list[int], seen: set[int]
) -> list[int]:
    new_frontier: list[int] = []
    for vertex in frontier:
        for neighbor in sub.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                new_frontier.append(neighbor)
    return new_frontier
