"""The persistent bottleneck cluster tree vs its from-definition references.

Every query the tree answers has an existing reference implementation —
the naive ``centralized_k_clustering``, the level-scan oracles, the
exhaustive isolation sweep — and each test here pins the tree to one of them, on
hand-checkable fixtures and on randomized graphs.  The churn tests drive
:meth:`ClusterTree.apply_patch` with real :class:`IncrementalWPG` patches
and compare node signatures against a from-scratch build.
"""

from __future__ import annotations

import random

import pytest

from repro.clustering.centralized import centralized_k_clustering
from repro.datasets import uniform_points
from repro.errors import GraphError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.graph.cluster_tree import ClusterTree
from repro.graph.incremental import IncrementalWPG
from repro.graph.wpg import WeightedProximityGraph
from repro.spatial.grid import GridIndex
from repro.verify.oracles import (
    oracle_isolation_violations,
    oracle_smallest_cluster,
)


def canonical(groups):
    """Order-free partition form (never sort sets: subset partial order)."""
    return sorted(tuple(sorted(group)) for group in groups)


def random_graph(rng: random.Random, n: int, density: float) -> WeightedProximityGraph:
    graph = WeightedProximityGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.randint(1, 6)))
    return graph


# -- hand-checkable fixture ----------------------------------------------------


class TestTwoBlobs:
    def test_partitions_and_lookup(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        assert tree.component_count == 1
        assert tree.vertex_count == 8
        # k=4 splits at the bridge, k=5 cannot.
        assert canonical(tree.strict_partition(4)) == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
        ]
        assert canonical(tree.strict_partition(5)) == [tuple(range(8))]
        cluster, t = tree.smallest_valid_cluster(0, 4)
        assert cluster == frozenset({0, 1, 2, 3})
        assert t == 2.0
        cluster, t = tree.smallest_valid_cluster(0, 5)
        assert cluster == frozenset(range(8))
        assert t == 9.0

    def test_node_at_tracks_t(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        assert tree.leaves(tree.node_at(0, 2.0)) == frozenset({0, 1, 2, 3})
        assert tree.leaves(tree.node_at(0, 8.9)) == frozenset({0, 1, 2, 3})
        assert tree.leaves(tree.node_at(0, 9.0)) == frozenset(range(8))
        assert tree.leaves(tree.node_at(0, 0.5)) == frozenset({0})

    def test_isolation_bits(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        # Each blob is the other's only sibling; both hold >= 4 users.
        blob = tree.smallest_valid_node(0, 4)
        assert tree.is_isolated(blob, 4)
        # At k=5 the sibling blob is undersized, so neither is isolated
        # (an outside vertex resolves through the root).
        assert not tree.is_isolated(blob, 5)
        assert tree.is_isolated(tree.root_of(0), 5)

    def test_marks_propagate_to_ancestors(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        blob_a = tree.smallest_valid_node(0, 4)
        blob_b = tree.smallest_valid_node(4, 4)
        tree.mark([0, 1])
        tree.mark([1])  # idempotent
        assert tree.marked == frozenset({0, 1})
        assert tree.marked_below(blob_a) == 2
        assert tree.marked_below(blob_b) == 0
        assert tree.marked_below(tree.root_of(0)) == 2

    def test_node_partition_rejects_undersized_node(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        leaf = tree.leaf_of(0)
        with pytest.raises(GraphError):
            tree.node_partition(leaf, 2)


# -- randomized differentials --------------------------------------------------


def test_partitions_match_centralized_on_random_graphs():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 36)
        graph = random_graph(rng, n, rng.uniform(0.04, 0.3))
        tree = ClusterTree(graph)
        for k in (1, 2, 3, 5):
            if k > n:
                continue
            for method in ("strict", "greedy"):
                direct = centralized_k_clustering(
                    graph, k, method=method, naive=True
                )
                assert canonical(
                    tree.strict_partition(k)
                    if method == "strict"
                    else tree.greedy_partition(k)
                ) == canonical(direct.all_groups()), (seed, k, method)


def test_smallest_valid_cluster_matches_level_scan_oracle():
    for seed in range(30):
        rng = random.Random(100 + seed)
        n = rng.randint(2, 30)
        graph = random_graph(rng, n, rng.uniform(0.04, 0.25))
        tree = ClusterTree(graph)
        k = rng.randint(1, 5)
        for vertex in range(n):
            scan = oracle_smallest_cluster(graph, vertex, k)
            walk = tree.smallest_valid_cluster(vertex, k)
            if scan is None:
                assert walk is None, (seed, vertex)
            else:
                assert walk is not None
                assert set(walk[0]) == set(scan[0]), (seed, vertex)
                assert walk[1] == scan[1], (seed, vertex)


def test_isolation_bits_match_removal_oracle():
    for seed in range(12):
        rng = random.Random(500 + seed)
        n = rng.randint(4, 18)
        graph = random_graph(rng, n, rng.uniform(0.1, 0.35))
        tree = ClusterTree(graph)
        k = rng.randint(2, 4)
        for vertex in range(n):
            node = tree.smallest_valid_node(vertex, k)
            while node is not None:
                leaves = set(tree.leaves(node))
                violators = oracle_isolation_violations(graph, leaves, k)
                assert tree.is_isolated(node, k) == (not violators), (
                    seed,
                    sorted(leaves),
                    violators,
                )
                node = tree.parent(node)


# -- churn maintenance ---------------------------------------------------------


def _signatures(tree: ClusterTree):
    return sorted(tree.node_signatures())


def test_apply_patch_equals_fresh_build_under_churn():
    for seed in range(8):
        rng = random.Random(900 + seed)
        n = rng.randint(20, 60)
        dataset = uniform_points(n, seed=seed)
        delta, max_peers = 0.18, 5
        graph = build_wpg_fast(dataset, delta, max_peers)
        grid = GridIndex(list(dataset), cell_size=delta)
        runtime = IncrementalWPG(grid, delta, max_peers, graph=graph)
        tree = ClusterTree(graph)
        tree.mark(range(min(5, n)))
        for _batch in range(6):
            size = rng.randint(1, 4)
            moves = [
                (user, Point(rng.random(), rng.random()))
                for user in rng.sample(range(n), size)
            ]
            patch = runtime.apply_moves(moves)
            tree.apply_patch(patch)
            assert _signatures(tree) == _signatures(ClusterTree(graph)), (
                seed,
                _batch,
            )
        # Marks survive the rebuilds on every ancestor counter.
        assert tree.marked == frozenset(range(min(5, n)))
        for vertex in tree.marked:
            node = tree.leaf_of(vertex)
            while node is not None:
                assert tree.marked_below(node) >= 1
                node = tree.parent(node)


def test_apply_patch_empty_patch_is_a_noop():
    graph = WeightedProximityGraph()
    for v in range(4):
        graph.add_vertex(v)
    graph.add_edge(0, 1, 1.0)
    grid = GridIndex([Point(0.1, 0.1)] * 4, cell_size=0.2)
    runtime = IncrementalWPG(grid, 0.2, 3)
    tree = ClusterTree(graph)
    before = _signatures(tree)
    assert tree.apply_patch(runtime.apply_moves([])) == 0
    assert _signatures(tree) == before
