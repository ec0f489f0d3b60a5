"""Golden group *order* of ``centralized_k_clustering``.

Every other partition test compares groups as an order-free set, but the
order is observable: Algorithm 2's step 3 registers the groups of a
gathered cluster in the order Algorithm 1 returns them, so it fixes the
registry ids and every answer keyed by them.  The expected values below
were recorded from the pointer-dendrogram implementation the cluster
tree replaced, and pin the strict and greedy fast paths — whole graphs
with several components and ``vertices=`` subsets, including subsets
that split into several components — group for group and in order.

Small cases are spelled out; larger ones are pinned by a digest of the
ordered groups (``repr`` of the sorted-member tuples, clusters first).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.clustering.centralized import centralized_k_clustering
from repro.datasets import uniform_points
from repro.graph.build import build_wpg_fast
from repro.graph.components import t_component
from repro.graph.generators import random_weighted_graph


def ordered_groups(partition):
    return (
        [tuple(sorted(group)) for group in partition.clusters],
        [tuple(sorted(group)) for group in partition.invalid],
    )


def digest(groups) -> str:
    return hashlib.sha256(repr(groups).encode()).hexdigest()[:16]


def _wpg():
    return build_wpg_fast(uniform_points(400, seed=5), 0.05, 6)


def _subsets():
    """``vertices=`` inputs over the 400-user WPG (name -> sorted list)."""
    graph = _wpg()
    subsets = {}
    for host in (0, 17, 123, 250):
        subsets[f"t-component-{host}"] = sorted(t_component(graph, host, 3.0))
    # Two disjoint t-components: the subset induces two components.
    subsets["two-pockets"] = sorted(
        t_component(graph, 0, 3.0) | t_component(graph, 123, 3.0)
    )
    # Every third vertex: many small components and singletons.
    subsets["every-third"] = list(range(0, 400, 3))
    return graph, subsets


@pytest.mark.parametrize("method", ["strict", "greedy"])
def test_small_multi_component_graph_order(method):
    graph = random_weighted_graph(24, edge_probability=0.09, seed=3)
    got = ordered_groups(centralized_k_clustering(graph, 2, method))
    assert got == GOLDEN_SMALL[method]


@pytest.mark.parametrize("method", ["strict", "greedy"])
@pytest.mark.parametrize(
    "seed,n,p,max_weight,k",
    [
        (3, 40, 0.06, 10, 2),
        (7, 30, 0.12, 3, 3),
        (11, 60, 0.05, 4, 2),
    ],
)
def test_random_graph_order(seed, n, p, max_weight, k, method):
    graph = random_weighted_graph(
        n, edge_probability=p, max_weight=max_weight, seed=seed
    )
    got = ordered_groups(centralized_k_clustering(graph, k, method))
    assert digest(got) == GOLDEN_RANDOM[(seed, method)]


@pytest.mark.parametrize("method", ["strict", "greedy"])
def test_wpg_whole_graph_order(method):
    got = ordered_groups(centralized_k_clustering(_wpg(), 5, method))
    assert digest(got) == GOLDEN_WPG[method]


@pytest.mark.parametrize("method", ["strict", "greedy"])
def test_wpg_vertex_subset_order(method):
    graph, subsets = _subsets()
    got = {
        name: digest(
            ordered_groups(
                centralized_k_clustering(graph, 3, method, vertices=vertices)
            )
        )
        for name, vertices in subsets.items()
    }
    assert got == GOLDEN_SUBSETS[method]


GOLDEN_SMALL = {}
GOLDEN_SMALL["strict"] = (
    [
        (8, 9, 14, 15, 16, 19),
        (10, 22),
        (3, 12, 21),
        (0, 1, 6, 11, 17, 20, 23),
        (4, 5),
    ],
    [(18,), (13,), (7,), (2,)],
)

GOLDEN_SMALL["greedy"] = (
    [
        (9, 16, 19),
        (8, 14, 15),
        (10, 22),
        (3, 12, 21),
        (11, 17),
        (20, 23),
        (0, 1, 6),
        (4, 5),
    ],
    [(18,), (13,), (7,), (2,)],
)

GOLDEN_RANDOM = {
    (3, "strict"): "f7b2f1da5f631f60",
    (3, "greedy"): "9f9c63c00173c957",
    (7, "strict"): "eb4c8618b1f7b19e",
    (7, "greedy"): "6afbaa9cef89dd34",
    (11, "strict"): "c498a59197be5576",
    (11, "greedy"): "04dce1ea8b344773",
}

GOLDEN_WPG = {
    "strict": "224dccbf057cff0f",
    "greedy": "47dc7ae205296c71",
}

GOLDEN_SUBSETS = {
    "strict": {
        "t-component-0": "e945b26c144d28e4",
        "t-component-17": "82c922f03118b882",
        "t-component-123": "c53b7244062f3e32",
        "t-component-250": "c9bcafd4211ce92a",
        "two-pockets": "236deaa821901c71",
        "every-third": "520ca0a844aef1d6",
    },
    "greedy": {
        "t-component-0": "da8714e8c965a06d",
        "t-component-17": "82c922f03118b882",
        "t-component-123": "15cd78d093e24c11",
        "t-component-250": "c9bcafd4211ce92a",
        "two-pockets": "b37a5b60f7cd0121",
        "every-third": "a5f604d5d47d5ef5",
    },
}
