"""Service soak: 200+ interleaved churn ticks and cloak requests.

One long deterministic session against a 4-shard fleet, checked three
ways:

* **no stale answers** — every single request and batch is compared on
  the spot against a lock-step single-process reference, so a cached
  region that survived a boundary-crossing move (or a registration that
  failed to reach the component's new owner) surfaces at the exact op
  that exposes it, not as a fuzzy end-of-run diff;
* **graph stitching** — after the dust settles, the union of the
  per-shard geometric views (every edge incident to a slab-owned user)
  must rebuild the full WPG `graph_equality_details`-equal to a
  from-scratch build over the final positions, and every worker's
  δ-halo invariant must hold (no edge leaves a slab by more than one
  tile);
* **obs reconciliation** — the dispatcher's merged fleet snapshot must
  agree with its own counters: every request the dispatcher admitted is
  accounted for by exactly one worker, every churn tick by all of them.
"""

from __future__ import annotations

import random

from repro import obs
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.graph.wpg import WeightedProximityGraph
from repro.obs import names as metric
from repro.service import CloakingService, ServiceSpec, build_engine
from repro.service.spec import materialize
from repro.service.worker import outcome_of, outcomes_of
from repro.verify.invariants import graph_equality_details

USERS = 280
SHARDS = 4
OPS = 220


def _script(rng: random.Random) -> list[tuple[str, object]]:
    """A seeded interleaving of single requests, batches, and churn."""
    ops: list[tuple[str, object]] = []
    for index in range(OPS):
        roll = index % 11
        if roll == 7:
            movers = rng.sample(range(USERS), rng.randint(3, 9))
            # Uniform destinations cross slab boundaries constantly —
            # the interesting case for halo refresh and rerouting.
            ops.append(
                ("churn", [(u, rng.random(), rng.random()) for u in movers])
            )
        elif roll == 5:
            ops.append(("batch", rng.sample(range(USERS), rng.randint(2, 6))))
        else:
            ops.append(("request", rng.randrange(USERS)))
    return ops


def test_soak_interleaved_churn_and_requests():
    spec = ServiceSpec.synthetic(
        users=USERS, seed=17, kind="uniform", delta=0.06, k=4,
        shards=SHARDS, obs=True,
    )
    reference = build_engine(spec)
    ops = _script(random.Random(2009))
    churn_ticks = sum(1 for kind, _ in ops if kind == "churn")
    assert churn_ticks >= 15

    obs.disable()
    obs.reset()
    try:
        with CloakingService(spec) as service:
            requests_issued = 0
            for step, (kind, arg) in enumerate(ops):
                if kind == "request":
                    got = service.request(arg)
                    expected = outcome_of(reference, arg)
                    assert got == expected, f"op {step}: request({arg}) diverged"
                    requests_issued += 1
                elif kind == "batch":
                    got_batch = service.request_many(arg)
                    expected_batch = outcomes_of(reference, arg)
                    assert got_batch == expected_batch, (
                        f"op {step}: request_many({arg}) diverged"
                    )
                    requests_issued += len(arg)
                else:
                    summary = service.apply_moves(arg)
                    reference.apply_moves(
                        [(u, Point(x, y)) for u, x, y in arg]
                    )
                    assert summary["moved"] == len(arg)

            # -- end state: registry and regions ---------------------------------
            assert service.registry_clusters() == set(
                reference.clustering.registry.clusters()
            )
            assert service.cached_regions() == {
                members: (region.rect, region.anonymity)
                for members, region in reference.cached_regions().items()
            }

            # -- end state: per-shard graphs stitch back together ----------------
            views = service.shard_graph_views()
            assert all(view["halo_ok"] for view in views), [
                view["violations"] for view in views
            ]
            assert sum(view["geometric_owned"] for view in views) == USERS
            stitched_edges = {
                (u, v): w for view in views for u, v, w in view["edges"]
            }
            stitched = WeightedProximityGraph.from_edges(
                ((u, v, w) for (u, v), w in stitched_edges.items()),
                vertices=range(USERS),
            )
            dataset, _, config = materialize(spec)
            for kind, arg in ops:
                if kind == "churn":
                    for user, x, y in arg:
                        dataset.move(user, Point(x, y))
            scratch = build_wpg_fast(dataset, config.delta, config.max_peers)
            assert graph_equality_details(stitched, scratch, "stitched", "scratch") == []
            # The incrementally-patched reference agrees too, closing the loop.
            assert graph_equality_details(reference.graph, scratch, "ref", "scratch") == []

            # -- obs: fleet counters reconcile across processes ------------------
            merged = service.obs_snapshot()
            stats = service.worker_stats()
    finally:
        obs.disable()
        obs.reset()

    counters = merged["counters"]
    # Every admitted request was served by exactly one worker.
    assert counters[metric.SERVICE_REQUESTS] == requests_issued
    assert counters[metric.SERVICE_WORKER_REQUESTS] == requests_issued
    # Each one was answered by the cache stage or reached phase 1.
    assert (
        counters[metric.CLOAKING_CACHE_HITS]
        + counters[metric.CLUSTERING_REQUESTS]
        >= requests_issued
    )
    # Worker-side op tallies agree with the merged snapshot's view.
    assert sum(s["ops"].get("request", 0) for s in stats) == sum(
        1 for kind, _ in ops if kind == "request"
    )
    assert counters[metric.SERVICE_CHURN_TICKS] == churn_ticks
    # Every worker consumed every tick (broadcast barrier).
    assert all(s["ops"].get("churn", 0) == churn_ticks for s in stats)
    # The merged counter carries each halo refresh twice — once from the
    # dispatcher's fleet total, once from the worker that consumed it —
    # so halving it must land exactly on the workers' own tallies.
    worker_halo = sum(s["halo_refreshes"] for s in stats)
    assert counters.get(metric.SERVICE_HALO_REFRESHES, 0) == 2 * worker_halo
    # After the final sync every replica holds every cluster.
    assert {s["clusters"] for s in stats} == {
        len(reference.clustering.registry)
    }


def test_soak_worker_busy_meters_accumulate():
    spec = ServiceSpec.synthetic(
        users=120, seed=5, kind="uniform", delta=0.08, k=3, shards=2
    )
    with CloakingService(spec) as service:
        for host in range(0, 120, 7):
            service.request(host)
        stats = service.worker_stats()
        assert all(s["busy_wall"] > 0.0 for s in stats)
        served = sum(s["ops"].get("request", 0) for s in stats)
        assert served == len(range(0, 120, 7))
        service.reset_worker_stats()
        stats = service.worker_stats()
        assert all(s["ops"].get("request", 0) == 0 for s in stats)
