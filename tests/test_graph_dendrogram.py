"""Tests for the single-linkage dendrogram and Algorithm 1's fast form.

The dendrogram is the :class:`~repro.graph.cluster_tree.ClusterTree`
(one array tree per component, built by one sorted edge scan); these
tests read its structure through the public node API — ``root_of``,
``leaf_of``, ``parent``, ``leaves``, ``weight``, ``node_signatures`` —
and its Algorithm 1 cut through ``strict_partition`` and
``smallest_valid_cluster``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.isolation import smallest_valid_cluster_rule
from repro.errors import GraphError
from repro.graph.cluster_tree import ClusterTree
from repro.graph.components import t_component
from repro.graph.generators import random_weighted_graph, small_world_graph
from repro.graph.wpg import WeightedProximityGraph


def roots(tree: ClusterTree, graph: WeightedProximityGraph):
    """One root handle per component."""
    return {tree.root_of(vertex) for vertex in graph.vertices()}


class TestDendrogramStructure:
    def test_single_vertex(self):
        g = WeightedProximityGraph()
        g.add_vertex(0)
        tree = ClusterTree(g)
        assert tree.component_count == 1
        root = tree.root_of(0)
        assert tree.leaf_of(0) == root  # the root is a leaf
        assert tree.parent(root) is None
        assert tree.size(root) == 1

    def test_one_root_per_component(self):
        g = WeightedProximityGraph.from_edges(
            [(0, 1, 1.0), (2, 3, 2.0)], vertices=[4]
        )
        tree = ClusterTree(g)
        assert tree.component_count == 3
        assert sorted(tree.size(r) for r in roots(tree, g)) == [1, 2, 2]

    def test_leaves_cover_vertices(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        leaves = set()
        for root in roots(tree, two_blobs_graph):
            leaves |= tree.leaves(root)
        assert leaves == set(two_blobs_graph.vertices())

    def test_root_weight_is_bottleneck(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        assert tree.weight(tree.root_of(0)) == 9.0  # the bridge

    def test_same_level_merges_flatten(self):
        """All components joined at one weight level share one node."""
        g = WeightedProximityGraph.from_edges(
            [(0, 1, 2.0), (2, 3, 2.0), (1, 2, 2.0)]
        )
        tree = ClusterTree(g)
        root = tree.root_of(0)
        assert tree.weight(root) == 2.0
        # Four leaves under one multi-way merge: five nodes in all.
        assert len(list(tree.node_signatures())) == 5
        assert all(tree.parent(tree.leaf_of(v)) == root for v in range(4))

    def test_children_are_next_level_components(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        root = tree.root_of(0)
        blobs = [tree.node_at(vertex, 8.9) for vertex in (0, 4)]
        assert all(tree.parent(blob) == root for blob in blobs)
        assert sorted(sorted(tree.leaves(b)) for b in blobs) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
        ]


class TestCut:
    def test_two_blobs_k4(self, two_blobs_graph):
        clusters = ClusterTree(two_blobs_graph).strict_partition(4)
        assert sorted(sorted(c) for c in clusters) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_two_blobs_k5_keeps_whole(self, two_blobs_graph):
        clusters = ClusterTree(two_blobs_graph).strict_partition(5)
        assert clusters == [set(range(8))]

    def test_chain_k2(self, chain_graph):
        """Descending removal on the 8..1 path yields nested valid splits."""
        clusters = ClusterTree(chain_graph).strict_partition(2)
        assert all(len(c) >= 2 for c in clusters)
        covered = set().union(*clusters)
        assert covered == set(chain_graph.vertices())

    def test_invalid_roots_returned(self):
        g = WeightedProximityGraph()
        g.add_vertex(0)  # lone vertex can never reach k=2
        g.add_edge(1, 2, 1.0)
        clusters = ClusterTree(g).strict_partition(2)
        assert {frozenset(c) for c in clusters} == {
            frozenset({0}),
            frozenset({1, 2}),
        }


class TestSmallestValidComponent:
    def test_matches_t_component_scan(self, two_blobs_graph):
        got = ClusterTree(two_blobs_graph).smallest_valid_cluster(0, 4)
        assert got == (frozenset({0, 1, 2, 3}), 2.0)

    def test_none_when_component_too_small(self):
        g = WeightedProximityGraph.from_edges([(0, 1, 1.0)])
        assert ClusterTree(g).smallest_valid_cluster(0, 3) is None

    def test_missing_vertex_returns_none(self, two_blobs_graph):
        # The isolation rule answers "no cluster"; the tree itself
        # refuses a vertex it does not cover.
        assert smallest_valid_cluster_rule(two_blobs_graph, 99, 2) is None
        with pytest.raises(GraphError):
            ClusterTree(two_blobs_graph).smallest_valid_cluster(99, 2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), k=st.integers(2, 6))
    def test_property_equals_minimal_t_scan(self, seed, k):
        """The tree answer equals a brute-force threshold scan.

        For every vertex: the smallest valid t-component found by walking
        the tree must equal the t-component at the smallest weight level
        t where |t-component| >= k.
        """
        graph = random_weighted_graph(18, edge_probability=0.2, seed=seed)
        tree = ClusterTree(graph)
        levels = sorted({e.weight for e in graph.edges()})
        for vertex in graph.vertices():
            expected = None
            for t in [0.0, *levels]:
                candidate = t_component(graph, vertex, t)
                if len(candidate) >= k:
                    expected = candidate
                    break
            found = tree.smallest_valid_cluster(vertex, k)
            assert (None if found is None else set(found[0])) == expected
            assert smallest_valid_cluster_rule(graph, vertex, k) == expected


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300), k=st.integers(2, 5))
def test_property_cut_is_partition(seed, k):
    """The Algorithm 1 cut partitions the graph into valid-or-doomed pieces."""
    graph = small_world_graph(30, base_degree=4, rewire_probability=0.2, seed=seed)
    clusters = ClusterTree(graph).strict_partition(k)
    covered: set[int] = set()
    for cluster in clusters:
        assert not (cluster & covered)
        covered |= cluster
        if len(cluster) < k:
            # Only whole undersized components may come out invalid.
            member = next(iter(cluster))
            assert t_component(graph, member, float("inf")) == cluster
    assert covered == set(graph.vertices())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300))
def test_property_nodes_are_t_components(seed):
    """Every tree node is the t-component at its merge weight.

    A node formed at level w is a maximal set connected through edges of
    weight <= w — the t-connectivity equivalence class Definition 4.1
    describes.
    """
    graph = random_weighted_graph(20, edge_probability=0.25, seed=seed)
    for weight, size, leaves in ClusterTree(graph).node_signatures():
        assert len(leaves) == size
        assert t_component(graph, leaves[0], weight) == set(leaves)
