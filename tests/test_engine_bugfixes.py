"""Regression coverage for the cloaking-engine correctness sweep.

Two defects fixed in the same PR as the cluster-tree fast path:

* ``_enforce_granularity`` solved its growth margin against the
  *unclipped* rectangle, so a region hugging a map corner or edge could
  exhaust its 64 analytic rounds and silently return ``area <
  min_area``.  The bisection fallback now guarantees the target; the
  property here drives corner/edge/interior seed rectangles.
* ``request_many`` and :meth:`request` share one cache stage, which
  answers a cached host without calling the phase-1 service — the
  batch parity test pins the full :class:`CloakingResult`, field for
  field, and the clustering/cloaking/engine-cache counters to what
  sequential :meth:`request` calls produce for every mode, cached and
  uncached hosts alike.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro import obs
from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.errors import ClusteringError
from repro.geometry.rect import Rect
from repro.graph.build import build_wpg_fast


def tiny_engine(min_area: float = 0.0, **kwargs) -> CloakingEngine:
    dataset = uniform_points(12, seed=2)
    config = SimulationConfig(user_count=12, delta=0.4, max_peers=5, k=2)
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    return CloakingEngine(
        dataset, graph, config, min_area=min_area, **kwargs
    )


# -- granularity enforcement ---------------------------------------------------

unit_coord = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def seed_rects(draw) -> Rect:
    """Seed rectangles biased toward the corner/edge stall regime."""
    anchor = draw(
        st.sampled_from(
            ["corner00", "corner11", "corner01", "edge_x", "edge_y", "free"]
        )
    )
    w = draw(st.floats(0.0, 0.4, allow_nan=False))
    h = draw(st.floats(0.0, 0.4, allow_nan=False))
    if anchor == "corner00":
        return Rect(0.0, w, 0.0, h)
    if anchor == "corner11":
        return Rect(1.0 - w, 1.0, 1.0 - h, 1.0)
    if anchor == "corner01":
        return Rect(0.0, w, 1.0 - h, 1.0)
    if anchor == "edge_x":
        y = draw(st.floats(0.0, 1.0 - h, allow_nan=False))
        return Rect(0.0, w, y, y + h)
    if anchor == "edge_y":
        x = draw(st.floats(0.0, 1.0 - w, allow_nan=False))
        return Rect(x, x + w, 0.0, h)
    x = draw(st.floats(0.0, 1.0 - w, allow_nan=False))
    y = draw(st.floats(0.0, 1.0 - h, allow_nan=False))
    return Rect(x, x + w, y, y + h)


@given(
    region=seed_rects(),
    min_area=st.floats(0.001, 1.0, allow_nan=False),
)
def test_enforce_granularity_always_delivers_min_area(region, min_area):
    engine = tiny_engine(min_area=min_area)
    grown = engine._enforce_granularity(region)
    unit = Rect.unit_square()
    assert grown.area >= min_area  # the target, exactly — never silently less
    assert unit.contains_rect(grown)
    assert grown.contains_rect(region)


def test_corner_region_reaches_near_unit_target():
    # The historical stall: a degenerate rect at the origin corner with a
    # target near the whole map.  The analytic rounds clip on two sides
    # and converge below target; the bisection must finish the job.
    engine = tiny_engine(min_area=0.9)
    grown = engine._enforce_granularity(Rect(0.0, 1e-6, 0.0, 1e-6))
    assert grown.area >= 0.9
    assert Rect.unit_square().contains_rect(grown)


def test_zero_min_area_is_identity():
    engine = tiny_engine(min_area=0.0)
    region = Rect(0.2, 0.3, 0.4, 0.5)
    assert engine._enforce_granularity(region) == region


# -- request_many batch parity -------------------------------------------------


def serve_sequential(engine, hosts):
    results = []
    for host in hosts:
        try:
            results.append(engine.request(host))
        except ClusteringError as exc:
            results.append(str(exc))
    return results


def batch_with_fallback(engine, hosts):
    # request_many propagates the first failure, so feed it singly to
    # collect per-host outcomes on worlds with unservable hosts.
    results = []
    for host in hosts:
        try:
            results.extend(engine.request_many([host]))
        except ClusteringError as exc:
            results.append(str(exc))
    return results


#: Counter families both serving paths must account identically.
_COUNTED = ("clustering.", "cloaking.", "engine.cache.")


def counted(serve, engine, hosts):
    """``serve(engine, hosts)`` under a fresh metrics registry; returns
    the outcomes and the clustering/cloaking/engine-cache counters."""
    registry = obs.enable(obs.MetricsRegistry())
    try:
        outcomes = serve(engine, hosts)
    finally:
        obs.disable()
        obs.reset_traces()
    counters = {
        name: counter.value
        for name, counter in registry.counters.items()
        if name.startswith(_COUNTED)
    }
    return outcomes, counters


def test_request_many_matches_sequential_field_for_field():
    hosts = [3, 7, 3, 1, 7, 11, 3]  # repeats hit the cache stage
    for clustering in (None, "tree"):
        for mode in ("distributed", "centralized"):
            if clustering == "tree" and mode == "centralized":
                continue
            sequential_engine = tiny_engine(mode=mode, clustering=clustering)
            batch_engine = tiny_engine(mode=mode, clustering=clustering)
            expected, sequential_counters = counted(
                serve_sequential, sequential_engine, hosts
            )
            actual, batch_counters = counted(
                batch_with_fallback, batch_engine, hosts
            )
            # One cache stage: both paths count the same requests, hits,
            # misses and phase-1 calls.
            assert sequential_counters["cloaking.cache_hits"] > 0, mode
            assert batch_counters == sequential_counters, (mode, clustering)
            assert len(actual) == len(expected)
            for host, ours, reference in zip(hosts, actual, expected):
                assert type(ours) is type(reference), (mode, host)
                if isinstance(ours, str):
                    assert ours == reference, (mode, host)
                    continue
                # Field-for-field: both paths answer through the same
                # cache stage and the same phase-1 call.
                assert ours.host == reference.host
                assert ours.cluster.host == reference.cluster.host
                assert ours.cluster.members == reference.cluster.members
                assert ours.cluster.involved == reference.cluster.involved
                assert (
                    ours.cluster.connectivity
                    == reference.cluster.connectivity
                )
                assert ours.cluster.from_cache == reference.cluster.from_cache
                assert ours.region == reference.region
                assert (
                    ours.clustering_messages == reference.clustering_messages
                )
                assert ours.bounding_messages == reference.bounding_messages
                assert ours.region_from_cache == reference.region_from_cache


def test_request_many_cached_hosts_equal_repeat_requests():
    for kwargs in ({}, {"mode": "centralized"}, {"clustering": "tree"}):
        engine = tiny_engine(**kwargs)
        hosts = [0, 4, 8]
        for host in hosts:
            engine.request(host)  # populate registry + region cache
        sequential = [engine.request(host) for host in hosts]
        batched = engine.request_many(hosts)
        assert batched == sequential  # frozen dataclasses: full equality
        for result in batched:
            assert result.region_from_cache
            assert result.cluster.from_cache
            assert result.cluster.involved == 0
            assert result.cluster.connectivity == 0.0
            # The cache stage skips phase 1; its cluster answer must be
            # exactly the one phase 1 gives for a registered host.
            assert result.cluster == engine.clustering.request(result.host)
