"""Properties backing the greedy fast path's graph surgery.

``_side_of`` / ``_expand`` (the bidirectional BFS the greedy refinement
trusts for every bridge decision) are pinned to a naive single-source
BFS over randomized graphs guaranteed to contain bridges (random
spanning tree + extra chords).  The fast greedy refinement — the cluster
tree's single ordered scan over its constrained Kruskal forest — is
pinned to the literal re-enumerating ``_greedy_refine_naive``: same
clusters, same order.
"""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.clustering.centralized import _side_of, centralized_k_clustering
from repro.graph.components import connected_components
from repro.graph.wpg import WeightedProximityGraph


def bridge_rich_graph(rng: random.Random, n: int, chords: int) -> WeightedProximityGraph:
    """A random spanning tree plus ``chords`` extra edges.

    Every tree edge not covered by a chord cycle is a bridge, so the
    generator reliably exercises both outcomes of ``_side_of``.
    """
    graph = WeightedProximityGraph()
    graph.add_vertex(0)
    for vertex in range(1, n):
        graph.add_vertex(vertex)
        graph.add_edge(vertex, rng.randrange(vertex), float(rng.randint(1, 9)))
    for _ in range(chords):
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, float(rng.randint(1, 9)))
    return graph


def naive_side(graph: WeightedProximityGraph, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        vertex = stack.pop()
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 30),
    chords=st.integers(0, 12),
)
def test_side_of_matches_naive_bfs(seed, n, chords):
    rng = random.Random(seed)
    graph = bridge_rich_graph(rng, n, chords)
    component = next(iter(connected_components(graph)))
    edges = [
        (u, v) for u in sorted(component)
        for v in graph.neighbors(u) if u < v
    ]
    for u, v in edges:
        weight = graph.weight(u, v)
        graph.remove_edge(u, v)
        side = _side_of(graph, u, v, component)
        u_side = naive_side(graph, u)
        if v in u_side:
            assert side is None, (u, v)
        else:
            assert side == u_side, (u, v)
            assert (component - side) == naive_side(graph, v), (u, v)
        graph.add_edge(u, v, weight)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 26),
    density=st.floats(0.05, 0.35),
    k=st.integers(1, 5),
)
def test_fast_refine_equals_naive_refine(seed, n, density, k):
    rng = random.Random(seed)
    graph = WeightedProximityGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.randint(1, 6)))
    # Refinement runs inside each strict piece; on a piece the fast and
    # the naive greedy passes make the same decisions in the same order.
    for piece in centralized_k_clustering(graph, k, "strict").all_groups():
        fast = centralized_k_clustering(graph, k, "greedy", vertices=piece)
        naive = centralized_k_clustering(
            graph, k, "greedy", vertices=piece, naive=True
        )
        assert (fast.clusters, fast.invalid) == (naive.clusters, naive.invalid)
