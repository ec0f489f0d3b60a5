"""Property suite for the online tuning layer (:mod:`repro.tuning`).

Hypothesis drives three families over :func:`world_strategy` worlds:

* a default (all-off) :class:`TuningPolicy` is *bit*-identical to no
  policy at all — same answers, same cache provenance, same costs;
* with ``share_regions`` on, the full answer transcript equals the
  on-demand engine's for every request order Hypothesis draws, through
  churn — sharing may only move work, never change geometry;
* the δ-plan's knobs are monotone: a denser cell never gets a larger
  planned δ (scale is non-increasing, the relaxation floor is
  non-decreasing, and the planned δ never exceeds the base).
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.cloaking.engine import CloakingEngine
from repro.datasets.base import MutablePointDataset
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.tuning import DeltaPlan, TuningPolicy, build_plan, cell_occupancy
from repro.verify.worlds import build_world, churn_schedule, world_strategy

import pytest


def _make(built, world, tuning, min_area=0.0):
    return CloakingEngine(
        MutablePointDataset.from_dataset(built.dataset),
        built.graph.copy(),
        built.config,
        mode=world.mode,
        policy=world.policy,
        min_area=min_area,
        tuning=tuning,
    )


def _full_outcome(engine, host):
    """Everything observable about one answer, provenance included."""
    try:
        r = engine.request(host)
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))
    return (
        r.status,
        tuple(sorted(r.cluster.members)),
        r.region.rect,
        r.region.anonymity,
        r.region.cluster_id,
        r.region_from_cache,
        r.cluster.from_cache,
        r.clustering_messages,
        r.bounding_messages,
        r.relaxed_k,
    )


def _answer(engine, host):
    """The answer alone: what sharing is *not* allowed to change."""
    try:
        r = engine.request(host)
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))
    return (
        "ok",
        tuple(sorted(r.cluster.members)),
        r.region.rect,
        r.region.anonymity,
    )


class TestSharingOffIsTheSeedEngine:
    @settings(max_examples=20, deadline=None)
    @given(world=world_strategy(max_users=30))
    def test_default_policy_is_bit_identical_to_no_policy(self, world):
        built = build_world(world)
        with_policy = _make(built, world, TuningPolicy())
        without = _make(built, world, None)
        hosts = list(built.hosts)
        schedule = [("serve", None)]
        for batch in churn_schedule(built.world) if built.world.churn_moves else []:
            schedule += [("churn", batch), ("serve", None)]
        for op, batch in schedule:
            if op == "churn":
                with_policy.apply_moves(batch)
                without.apply_moves(batch)
                continue
            for host in hosts:
                assert _full_outcome(with_policy, host) == _full_outcome(
                    without, host
                ), f"host {host}: the all-off policy changed an outcome"
        assert with_policy.cached_regions() == without.cached_regions()
        assert with_policy.shared_slots() == {}
        assert with_policy.delta_plan() is None


class TestSharingOnIsTranscriptEqual:
    @settings(max_examples=20, deadline=None)
    @given(world=world_strategy(max_users=30), data=st.data())
    def test_any_request_order_matches_on_demand(self, world, data):
        built = build_world(world)
        order = data.draw(
            st.permutations(sorted(set(built.hosts))), label="order"
        )
        # Repeats exercise the shared-slot and demand-cache hit paths.
        order = list(order) + list(order[: max(1, len(order) // 2)])
        sharing = _make(built, world, TuningPolicy(share_regions=True))
        plain = _make(built, world, None)
        batches = list(churn_schedule(built.world)) if built.world.churn_moves else []
        for round_no in range(len(batches) + 1):
            for host in order:
                assert _answer(sharing, host) == _answer(plain, host), (
                    f"round {round_no}: sharing changed host {host}'s answer"
                )
            if round_no < len(batches):
                sharing.apply_moves(batches[round_no])
                plain.apply_moves(batches[round_no])
        # The caches converge too: promotion consumes region ids exactly
        # where the on-demand miss would have.
        assert sharing.cached_regions() == plain.cached_regions()

    @settings(max_examples=10, deadline=None)
    @given(world=world_strategy(max_users=24))
    def test_shared_hits_strictly_increase_after_churn(self, world):
        """Post-churn revisits hit the pre-computed slots, never fewer
        than the demand twin's cache manages."""
        built = build_world(world)
        sharing = _make(built, world, TuningPolicy(share_regions=True))
        plain = _make(built, world, None)
        hosts = list(built.hosts)
        for engine in (sharing, plain):
            for host in hosts:
                _answer(engine, host)
        batches = list(churn_schedule(built.world)) if built.world.churn_moves else []
        shared_hits = plain_hits = 0
        for batch in batches:
            sharing.apply_moves(batch)
            plain.apply_moves(batch)
            for host in hosts:
                try:
                    shared_hits += sharing.request(host).region_from_cache
                    plain_hits += plain.request(host).region_from_cache
                except Exception:
                    continue
        assert shared_hits >= plain_hits


occupancies = st.integers(0, 5000)


class TestDeltaPlanMonotonicity:
    @settings(max_examples=100)
    @given(
        occ_a=occupancies,
        occ_b=occupancies,
        pivot=st.floats(0.5, 200.0, allow_nan=False),
        scale_min=st.floats(0.01, 1.0, allow_nan=False, exclude_min=True),
    )
    def test_denser_cell_never_gets_a_larger_delta(
        self, occ_a, occ_b, pivot, scale_min
    ):
        plan = DeltaPlan(cell_size=0.1, pivot=pivot, scale_min=scale_min)
        lo, hi = sorted((occ_a, occ_b))
        assert plan.scale(hi) <= plan.scale(lo), (
            "scale must be monotone non-increasing in occupancy"
        )
        assert scale_min <= plan.scale(occ_a) <= 1.0
        assert plan.scale(0) == 1.0

    @settings(max_examples=100)
    @given(
        occ_a=occupancies,
        occ_b=occupancies,
        pivot=st.floats(0.5, 200.0, allow_nan=False),
        k=st.integers(2, 12),
        k_floor=st.integers(2, 12),
    )
    def test_relax_floor_monotone_and_bounded(
        self, occ_a, occ_b, pivot, k, k_floor
    ):
        plan = DeltaPlan(cell_size=0.1, pivot=pivot, scale_min=0.25)
        lo, hi = sorted((occ_a, occ_b))
        assert plan.relax_floor(lo, k, k_floor) <= plan.relax_floor(
            hi, k, k_floor
        ), "a denser cell must never allow a deeper relaxation"
        floor = plan.relax_floor(occ_a, k, k_floor)
        assert min(k, k_floor) <= floor <= k
        # At or above the pivot no relaxation is allowed at all.
        assert plan.relax_floor(math.ceil(pivot), k, k_floor) == k

    @settings(max_examples=60)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_nan=False, width=32),
                st.floats(0.0, 1.0, allow_nan=False, width=32),
            ),
            min_size=0,
            max_size=60,
        ),
        cell=st.sampled_from([0.05, 0.1, 0.2, 0.33]),
        base=st.floats(0.01, 0.5, allow_nan=False),
    )
    def test_planned_delta_never_exceeds_base(self, points, cell, base):
        pts = [Point(x, y) for x, y in points]
        plan = build_plan(pts, cell, TuningPolicy(adapt_delta=True), k=3)
        total = sum(cell_occupancy(pts, cell).values())
        assert total == len(pts), "occupancy must count every live user"
        for point in pts:
            assert plan.delta_at(point, base) <= base
            assert plan.occupancy_at(point) >= 1, (
                "a user's own cell can never be empty"
            )

    def test_default_pivot_is_mean_occupancy(self):
        pts = [Point(0.05, 0.05)] * 4 + [Point(0.95, 0.95)] * 2
        plan = build_plan(pts, 0.5, TuningPolicy(), k=3)
        assert plan.pivot == pytest.approx(3.0)
        assert build_plan([], 0.5, TuningPolicy(), k=3).pivot == 1.0


class TestPolicyValidation:
    def test_round_trip(self):
        policy = TuningPolicy(
            share_regions=True, relax_k=True, k_floor=3, density_pivot=9.5
        )
        assert TuningPolicy.from_meta(policy.to_meta()) == policy

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            TuningPolicy(k_floor=1)
        with pytest.raises(ConfigurationError):
            TuningPolicy(delta_scale_min=0.0)
        with pytest.raises(ConfigurationError):
            TuningPolicy(density_pivot=-1.0)
        with pytest.raises(ConfigurationError):
            TuningPolicy.from_meta({"share_regions": True, "nope": 1})
