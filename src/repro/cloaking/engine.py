"""The end-to-end two-phase cloaking engine (paper Fig. 3).

A request from a host user flows through five stages, one code path
each:

1. Lookup — if the host's cluster already has a cloaked region (or the
   host holds a proactively shared slot), reuse it: Fig. 3's shortcut,
   zero cost.
2. Phase 1 — k-clustering, either at the centralized anonymizer or
   distributedly at the host (both phase-1 services share the interface
   ``request(host) -> ClusterResult``).
3. Phase 2 — secure bounding among the cluster's members.
4. Granularity — the minimum-area rule grows the region if needed.
5. Publish — the region gets its id and is cached for the whole cluster
   (reciprocity: the region is *theirs*, not the host's).

The region then goes into the service request; the cost of that request
is the server layer's business (:mod:`repro.server.costs`).

The engine owns the simulation's god view (the dataset) only to *play*
the users during secure bounding — the clustering services never see a
coordinate, and the bounding protocol reveals only yes/no answers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Literal, Optional, Protocol, Sequence

import numpy as np

from repro import obs
from repro.config import SimulationConfig
from repro.datasets.base import MutablePointDataset, PointDataset
from repro.errors import ClusteringError, ConfigurationError, PersistError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import names as metric
from repro.clustering.base import ClusterRegistry, ClusterResult
from repro.clustering.distributed import DistributedClustering
from repro.clustering.tree import TreeClustering
from repro.cloaking.anonymizer import CentralizedAnonymizer
from repro.cloaking.region import CloakedRegion
from repro.bounding.boxing import optimal_bounding_box, secure_bounding_box
from repro.bounding.policies import IncrementPolicy
from repro.bounding.presets import paper_policy
from repro.graph.cluster_tree import ClusterTree
from repro.graph.incremental import ChurnPatch, IncrementalWPG
from repro.graph.io import graph_from_arrays, graph_to_arrays
from repro.graph.wpg import WeightedProximityGraph
from repro.obs import trace as _trace
from repro.spatial.grid import GridIndex
from repro.tuning.plan import DeltaPlan, build_plan
from repro.tuning.policy import TuningPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime import)
    from repro.persist.store import PersistentStore

Mode = Literal["distributed", "centralized"]

#: Cloaked-region area histogram buckets: powers of 4 up to the unit square.
_AREA_BUCKETS = tuple(4.0**exp for exp in range(-9, 1))

#: Churn dirty-set-size histogram buckets: powers of 4 up to 64k users.
_DIRTY_BUCKETS = tuple(4.0**exp for exp in range(0, 9))


def _prefixed(prefix: str, arrays: dict) -> dict[str, np.ndarray]:
    """``arrays`` keyed under ``prefix`` (one snapshot section)."""
    return {prefix + key: value for key, value in arrays.items()}


def _unprefixed(prefix: str, arrays: dict) -> dict[str, np.ndarray]:
    """The snapshot section stored under ``prefix``, keyed without it."""
    return {
        key[len(prefix):]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def _rect_hex(rect: Rect) -> list[str]:
    """A rect as bit-exact float hex strings (snapshot meta form)."""
    return [r.hex() for r in (rect.x_min, rect.x_max, rect.y_min, rect.y_max)]


def _rect_from_hex(hexes: list[str]) -> Rect:
    return Rect(*(float.fromhex(h) for h in hexes))


#: Snapshot names of the stock phase-1 services :meth:`CloakingEngine.restore`
#: rebuilds; the snapshot's ``clustering`` meta is derived from this.
_FLAVORS = {
    DistributedClustering: "distributed",
    CentralizedAnonymizer: "centralized",
    TreeClustering: "tree",
}

#: Builds the per-direction increment policy for a cluster of a given size;
#: ``None`` selects the OPT baseline (exact bounding box, locations exposed).
PolicyBuilder = Optional[Callable[[int], IncrementPolicy]]


class ClusteringService(Protocol):
    """Phase 1: both the anonymizer and the distributed algorithm fit."""

    @property
    def registry(self):  # noqa: ANN201 - ClusterRegistry, avoids import cycle
        """The shared cluster-assignment registry."""
        ...

    def request(self, host: int) -> ClusterResult:
        """Serve one k-clustering request for ``host``."""
        ...


@dataclass(frozen=True, slots=True)
class CloakingResult:
    """Everything one cloaking request produced and cost."""

    host: int
    region: CloakedRegion
    cluster: ClusterResult
    clustering_messages: int
    bounding_messages: int
    region_from_cache: bool
    #: The region came out of a proactively shared per-member slot
    #: (repro.tuning); implies ``region_from_cache``.
    region_shared: bool = False
    #: Set to the relaxed k' when the request was served below the
    #: configured k after the exact oracle confirmed no k-valid cluster.
    relaxed_k: Optional[int] = None

    @property
    def status(self) -> str:
        """The request's canonical outcome tag (flight-recorder status)."""
        if self.region_shared:
            return "cache_hit_shared"
        if self.region_from_cache:
            return "cache_hit"
        if self.relaxed_k is not None:
            return "ok_relaxed"
        return "ok"

    @property
    def total_phase_messages(self) -> int:
        """Clustering plus bounding messages (excludes the service request)."""
        return self.clustering_messages + self.bounding_messages


class CloakingEngine:
    """Serves cloaking requests over a static population.

    Every request runs the Fig. 3 workflow as five stages, one code path
    each: :meth:`_lookup` (cache and shared slots), phase 1
    (``self._clustering.request``), :meth:`_bound` (secure bounding),
    :meth:`_enforce_granularity` (minimum area) and :meth:`_publish`
    (region id, cache, shared slots).

    Parameters
    ----------
    dataset:
        User positions (played during secure bounding).
    graph:
        The WPG over the same users.
    config:
        Table I parameters (k, costs).
    mode:
        ``"distributed"`` (Fig. 3 paths 2-3) or ``"centralized"`` (path 1).
    policy:
        Per-direction bounding policy: a paper policy name
        (``"linear"``, ``"exponential"``, ``"secure"``, ``"secure-exact"``),
        ``"optimal"`` for the OPT baseline, or a custom
        ``cluster_size -> IncrementPolicy`` callable.
    min_area:
        The *granularity* metric (Section II): if set, every cloaked
        region is expanded (centred, clipped to the unit square) until
        its area reaches this threshold — some services demand a minimum
        spatial extent on top of k-anonymity.
    clustering:
        Optional custom phase-1 service (overrides ``mode``), e.g. the
        hilbASR baseline or a message-level protocol.  The string
        ``"tree"`` opts into the cluster-tree fast path
        (:class:`~repro.clustering.tree.TreeClustering`): the closure
        reading of Algorithm 2 resolved on a persistent bottleneck
        cluster tree, maintained incrementally under :meth:`apply_moves`.
    tuning:
        The online adaptive-tuning policy (:mod:`repro.tuning`): opt-in
        proactive region sharing, per-density-cell granularity, and
        oracle-gated k-relaxation.  ``None`` (or the default policy)
        keeps the engine bit-identical to the untuned baseline.

    The fault-tolerant message-level runtime is
    :class:`~repro.cloaking.p2p_engine.P2PCloakingSession`, which takes
    the reliability policy and failure plan itself.
    """

    def __init__(
        self,
        dataset: PointDataset,
        graph: WeightedProximityGraph,
        config: SimulationConfig,
        mode: Mode = "distributed",
        policy: str | PolicyBuilder = "secure",
        min_area: float = 0.0,
        clustering: Optional[ClusteringService | str] = None,
        tuning: Optional[TuningPolicy] = None,
    ) -> None:
        if len(dataset) != graph.vertex_count:
            raise ConfigurationError(
                f"dataset has {len(dataset)} users but the WPG has "
                f"{graph.vertex_count} vertices"
            )
        if min_area < 0.0 or min_area > 1.0:
            raise ConfigurationError(
                f"min_area must be in [0, 1], got {min_area}"
            )
        self._min_area = min_area
        self._tuning = tuning if tuning is not None else TuningPolicy()
        # Per-member shared region slots (user -> (cluster members, rect))
        # and the lazily (re)built per-cell δ-plan; both live only when
        # the tuning policy enables them.
        self._shared_slots: dict[int, tuple[frozenset[int], Rect]] = {}
        self._delta_plan: Optional[DeltaPlan] = None
        self._dataset = dataset
        self._graph = graph
        self._config = config
        self._mode: Mode = mode
        self._policy_spec = policy
        # Churn runtime (grid + incremental WPG maintainer), built lazily
        # on the first apply_moves call.
        self._churn: IncrementalWPG | None = None
        # Snapshot arrays for a restored-but-untouched churn runtime;
        # materialised by the first apply_moves (see _build_churn_runtime).
        self._churn_restore: dict | None = None
        # Durable-state attachment (see repro.persist): a store to
        # journal move batches into and checkpoint/restore against.
        self._store: "PersistentStore | None" = None
        self._journal_seq = 0
        self._replaying = False
        self._clustering: ClusteringService
        if clustering == "tree":
            self._clustering = TreeClustering(graph, config.k)
        elif isinstance(clustering, str):
            raise ConfigurationError(
                f"unknown clustering service name {clustering!r} "
                "(the only named opt-in is 'tree')"
            )
        elif clustering is not None:
            # A custom phase-1 service (e.g. the hilbASR baseline or a
            # message-level protocol) overrides the mode selection.
            self._clustering = clustering
        elif mode == "distributed":
            self._clustering = DistributedClustering(graph, config.k)
        elif mode == "centralized":
            self._clustering = CentralizedAnonymizer(graph, config.k)
        else:
            raise ConfigurationError(f"unknown mode {mode!r}")
        self._policy_builder = self._resolve_policy(policy)
        self._regions: dict[frozenset[int], CloakedRegion] = {}
        # Monotonic so region ids stay unique across invalidations.
        self._next_region_id = 0

    def _resolve_policy(self, policy: str | PolicyBuilder) -> PolicyBuilder:
        if policy == "optimal":
            return None
        if isinstance(policy, str):
            name = policy
            return lambda size: paper_policy(name, size, self._config)
        return policy

    @property
    def clustering(self) -> ClusteringService:
        """The phase-1 clustering service in use."""
        return self._clustering

    @property
    def graph(self) -> WeightedProximityGraph:
        """The WPG the engine serves over (patched in place under churn)."""
        return self._graph

    @property
    def dataset(self) -> PointDataset:
        """The user positions (a mutable view once churn has started)."""
        return self._dataset

    @property
    def churn_runtime(self) -> Optional[IncrementalWPG]:
        """The incremental maintainer, once :meth:`apply_moves` has run."""
        return self._churn

    def cached_regions(self) -> dict[frozenset[int], CloakedRegion]:
        """A snapshot of the region cache (cluster members -> region)."""
        return dict(self._regions)

    @property
    def regions_cached(self) -> int:
        """Number of distinct cloaked regions formed so far."""
        return len(self._regions)

    def request(self, host: int) -> CloakingResult:
        """Serve one cloaking request end to end.

        Each call runs under its own trace scope (nested calls adopt the
        enclosing trace), so spans, histogram exemplars, message
        envelopes, and flight-recorder events all correlate on one id.
        """
        with _trace.request_scope():
            recorder = _trace._recorder
            if recorder is None:
                with obs.span(metric.SPAN_REQUEST):
                    return self._request(host)
            recorder.record(_trace.EVT_REQUEST_START, host=host)
            try:
                with obs.span(metric.SPAN_REQUEST):
                    result = self._request(host)
            except Exception as exc:
                recorder.record(
                    _trace.EVT_REQUEST_END, host=host,
                    status=f"error:{type(exc).__name__}",
                )
                raise
            recorder.record(
                _trace.EVT_REQUEST_END, host=host, status=result.status,
            )
            return result

    def _request(self, host: int) -> CloakingResult:
        hit = self._lookup(host)
        if hit is not None:
            return hit
        relaxed_k: Optional[int] = None
        with obs.span(metric.SPAN_CLUSTERING):
            if self._tuning.relax_k:
                cluster_result, relaxed_k = self._cluster_relaxable(host)
            else:
                cluster_result = self._clustering.request(host)
        members = cluster_result.members
        if obs.enabled():
            obs.inc(metric.CLOAKING_REQUESTS)
            obs.inc(metric.CLOAKING_CACHE_MISSES)
        recorder = _trace._recorder
        if recorder is not None:
            recorder.record(
                _trace.EVT_CLUSTER_FORMED, host=host,
                size=cluster_result.size,
                from_cache=cluster_result.from_cache,
                involved=cluster_result.involved,
            )
            recorder.record(_trace.EVT_CACHE_MISS, host=host)
        with obs.span(metric.SPAN_BOUNDING):
            rect, bounding_messages = self._bound(members, host)
        rect = self._enforce_granularity(rect, host)
        region = self._publish(members, rect, len(members))
        if obs.enabled():
            obs.observe(
                metric.CLOAKING_REGION_AREA, rect.area, bounds=_AREA_BUCKETS
            )
        return CloakingResult(
            host=host,
            region=region,
            cluster=cluster_result,
            clustering_messages=cluster_result.involved,
            bounding_messages=bounding_messages,
            region_from_cache=False,
            relaxed_k=relaxed_k,
        )

    def _lookup(self, host: int) -> Optional[CloakingResult]:
        """Stage 1, Fig. 3's shortcut: the cached answer, or None on a miss.

        With region sharing on, the host's slot answers first.  A slot
        whose region churn invalidated holds the rect *this member*
        would compute on demand over the current positions; serving it
        publishes that rect as the cluster's region — exactly the state
        the member's on-demand miss would have left.  Otherwise an
        already-clustered host whose cluster has a cached region is
        answered at zero cost, as every phase-1 service reports such a
        host: ``involved=0``, ``from_cache=True``, default connectivity.
        """
        slot = self._shared_slots.get(host) if self._tuning.share_regions else None
        if slot is not None:
            members, rect = slot
            region = self._regions.get(members)
            if region is None:
                region = self._publish(members, rect, len(members))
                if obs.enabled():
                    obs.inc(metric.TUNING_PROMOTIONS)
                    obs.observe(
                        metric.CLOAKING_REGION_AREA,
                        rect.area,
                        bounds=_AREA_BUCKETS,
                    )
        else:
            members = self._clustering.registry.cluster_of(host)
            if members is None:
                return None
            region = self._regions.get(members)
            if region is None:
                return None
        shared = slot is not None
        if obs.enabled():
            obs.inc(metric.CLOAKING_REQUESTS)
            obs.inc(metric.CLOAKING_CACHE_HITS)
            obs.inc(
                metric.ENGINE_CACHE_SHARED_HITS
                if shared
                else metric.ENGINE_CACHE_DEMAND_HITS
            )
        recorder = _trace._recorder
        if recorder is not None:
            recorder.record(_trace.EVT_CACHE_HIT, host=host, shared=shared)
        return CloakingResult(
            host=host,
            region=region,
            cluster=ClusterResult(
                host=host, members=members, involved=0, from_cache=True
            ),
            clustering_messages=0,
            bounding_messages=0,
            region_from_cache=True,
            region_shared=shared,
        )

    def _publish(
        self, members: frozenset[int], rect: Rect, anonymity: int
    ) -> CloakedRegion:
        """Stage 5: the only place a region gets an id and enters the cache.

        Reciprocity (paper Section IV): the region belongs to the whole
        cluster, so with sharing on every member's on-demand answer is
        now this exact region — it is pushed into each member's slot.
        """
        region = CloakedRegion(
            rect=rect, cluster_id=self._next_region_id, anonymity=anonymity
        )
        self._next_region_id += 1
        self._regions[members] = region
        if self._tuning.share_regions:
            for member in members:
                self._shared_slots[member] = (members, rect)
            if obs.enabled():
                obs.inc(metric.TUNING_PUSHED_SLOTS, len(members))
        if obs.enabled():
            obs.set_gauge(metric.CLOAKING_REGIONS_CACHED, len(self._regions))
        return region

    def _cluster_relaxable(
        self, host: int
    ) -> tuple[ClusterResult, Optional[int]]:
        """Phase 1 with the oracle-gated k-relaxation fallback.

        A clean sub-k failure is retried at k' < k only after the exact
        level-scan oracle confirms no k-valid cluster of unassigned
        users exists — if the oracle finds one, the engine missed it (a
        defect) and the original failure propagates untouched.  k'
        probes downward from k-1 to the per-density-cell floor; the
        first k' with a valid cluster wins, preserving as much of the
        anonymity target as the population allows.
        """
        try:
            return self._clustering.request(host), None
        except ClusteringError:
            with obs.span(metric.SPAN_TUNING_RELAX):
                relaxed = self._relax(host)
            if relaxed is None:
                raise
            return relaxed

    def _relax(self, host: int) -> Optional[tuple[ClusterResult, int]]:
        # Local import: repro.verify's package init imports the fuzz
        # harness, which imports this engine — at call time both sides
        # are fully initialised.
        from repro.verify.oracles import oracle_smallest_cluster

        registry = self._clustering.registry
        if host in registry:
            # The failure was not a sub-k formation failure (the host is
            # already clustered) — nothing to relax.
            return None
        k = self._config.k
        exclude = registry.assigned_view()
        if oracle_smallest_cluster(self._graph, host, k, exclude=exclude) is not None:
            # A k-valid cluster exists: the failure is a defect, and
            # masking it with a relaxation would hide the bug.
            if obs.enabled():
                obs.inc(metric.TUNING_RELAX_REJECTED)
            return None
        floor = self._ensure_plan().relax_floor_at(
            self._dataset[host], k, self._tuning.k_floor
        )
        for relaxed_k in range(k - 1, floor - 1, -1):
            service = DistributedClustering(
                self._graph, relaxed_k, registry=registry
            )
            try:
                proposal = service.propose(host)
            except ClusteringError:
                continue
            for group in proposal.groups:
                if host not in group:
                    continue
                # Register only the host's cluster: the other carved
                # groups stay unassigned, free to reach full k later.
                registry.register(group)
                adopt = getattr(self._clustering, "adopt", None)
                if adopt is not None:
                    adopt(group)
                if obs.enabled():
                    obs.inc(metric.TUNING_RELAXATIONS)
                return (
                    ClusterResult(
                        host=host,
                        members=group,
                        involved=proposal.involved,
                        connectivity=proposal.connectivity,
                    ),
                    relaxed_k,
                )
        if obs.enabled():
            obs.inc(metric.TUNING_RELAX_EXHAUSTED)
        return None

    def _ensure_plan(self) -> DeltaPlan:
        """The current δ-plan, rebuilt lazily from the live positions."""
        if self._delta_plan is None:
            self._delta_plan = build_plan(
                list(self._dataset),
                self._config.delta,
                self._tuning,
                self._config.k,
            )
            if obs.enabled():
                obs.inc(metric.TUNING_REPLANS)
        return self._delta_plan

    def request_many(self, hosts: Iterable[int]) -> list[CloakingResult]:
        """Serve a batch of cloaking requests under one trace scope.

        Produces exactly the results sequential :meth:`request` calls
        would (same order): every host runs the cache stage, and only a
        miss falls through to the full :meth:`request`.
        """
        with _trace.request_scope():
            with obs.span(metric.SPAN_REQUEST_MANY):
                results: list[CloakingResult] = []
                for host in hosts:
                    hit = self._lookup(host)
                    results.append(hit if hit is not None else self.request(host))
                return results

    def invalidate_region(self, members: Iterable[int]) -> bool:
        """Drop the cached region for the cluster ``members``, if any.

        Mobility support: when a cluster member moves, the cached region
        no longer covers the cluster and must be rebuilt on the next
        request.  Returns True when a cached region was dropped.
        """
        key = frozenset(members)
        dropped = self._regions.pop(key, None) is not None
        if self._shared_slots:
            # Drain every shared copy with the region: a slot must never
            # serve geometry the demand path would recompute.
            for member in key:
                slot = self._shared_slots.get(member)
                if slot is not None and slot[0] == key:
                    del self._shared_slots[member]
        if dropped and obs.enabled():
            obs.inc(metric.CLOAKING_REGIONS_INVALIDATED)
            obs.set_gauge(metric.CLOAKING_REGIONS_CACHED, len(self._regions))
        return dropped

    def clear_regions(self) -> int:
        """Invalidate every cached region; returns how many were dropped."""
        dropped = len(self._regions)
        self._regions.clear()
        self._shared_slots.clear()
        if dropped and obs.enabled():
            obs.inc(metric.CLOAKING_REGIONS_INVALIDATED, dropped)
            obs.set_gauge(metric.CLOAKING_REGIONS_CACHED, 0)
        return dropped

    def adopt_cluster(self, members: Iterable[int]) -> bool:
        """Adopt a cluster another replica of this engine formed.

        The sharded service keeps one engine replica per worker process;
        requests for different WPG components commute, so replicas may
        form clusters independently between synchronisation barriers and
        exchange them here.  Registers the cluster (reciprocity-checked)
        and feeds any clustering service that maintains derived state —
        the cluster tree marks the adopted members' leaves exactly as if
        it had formed the cluster itself.

        Returns True when newly registered, False when this exact
        cluster is already present (idempotent re-sync).  A *conflicting*
        overlap — some member assigned to a different cluster — raises
        :class:`~repro.errors.ClusteringError`: two replicas that formed
        different clusters over shared users were never replicas at all.
        """
        group = frozenset(members)
        if not group:
            raise ClusteringError("cannot adopt an empty cluster")
        registry = self._clustering.registry
        assigned = {v: registry.cluster_of(v) for v in group}
        existing = {c for c in assigned.values() if c is not None}
        if existing:
            if existing == {group} and all(
                c is not None for c in assigned.values()
            ):
                return False
            raise ClusteringError(
                f"adopted cluster {sorted(group)[:5]}... conflicts with "
                f"existing assignments"
            )
        registry.register(group)
        adopt = getattr(self._clustering, "adopt", None)
        if adopt is not None:
            adopt(group)
        return True

    def adopt_region(
        self, members: Iterable[int], rect: Rect, anonymity: int
    ) -> bool:
        """Seed the region cache with a region another replica bounded.

        Companion of :meth:`adopt_cluster` for the second phase: the
        cloaked region is a pure function of the cluster's member
        positions, so a replica can cache a peer's region verbatim and
        serve subsequent same-cluster requests as cache hits — exactly
        the answers a single-process engine would give.  Returns True
        when the entry was added, False when the cluster already has a
        cached region (idempotent re-sync; the existing region wins, as
        both were computed from identical positions).
        """
        key = frozenset(members)
        if key in self._regions:
            return False
        self._publish(key, rect, anonymity)
        return True

    def apply_moves(self, moves: Sequence[tuple[int, Point]]) -> ChurnPatch:
        """Move a batch of users and bring the engine's world up to date.

        The dynamic-population entry point: consumes ``(user id, new
        position)`` pairs, patches the spatial index and the WPG
        incrementally (see :class:`~repro.graph.incremental.IncrementalWPG`
        — after the call the graph is bit-identical to a from-scratch
        rebuild over the final positions), updates the dataset the
        bounding protocol plays, and invalidates the cached cloaked
        region of every cluster with a moved member.  Cluster
        *assignments* survive a move — reciprocity keeps them permanent —
        only the cached geometry is dropped, so the next request re-bounds
        over the new positions.

        The first call builds the churn runtime (grid index + incremental
        maintainer) from the current positions; an empty batch is a valid
        warm-up.  Requires a graph built with a stateless radio model —
        the default :func:`~repro.graph.build.build_wpg_fast` output
        qualifies.  An invalid batch (see :meth:`check_moves`) raises
        :class:`~repro.errors.ConfigurationError` before anything is
        journaled or mutated.
        """
        with _trace.request_scope():
            with obs.span(metric.SPAN_CHURN_APPLY):
                return self._apply_moves(list(moves))

    def check_moves(self, moves: Sequence[tuple[int, Point]]) -> None:
        """Reject a move batch :meth:`apply_moves` must not apply.

        Every user id must be an integer in ``[0, n)`` and appear at most
        once, and every coordinate must be finite.
        """
        n = self._graph.vertex_count
        seen: set[int] = set()
        for user, point in moves:
            if not isinstance(user, (int, np.integer)) or not 0 <= user < n:
                raise ConfigurationError(
                    f"apply_moves got user id {user!r} outside [0, {n})"
                )
            if user in seen:
                raise ConfigurationError(
                    "apply_moves got duplicate user ids in one batch"
                )
            seen.add(user)
            if not (math.isfinite(point.x) and math.isfinite(point.y)):
                raise ConfigurationError(
                    f"apply_moves got a non-finite position {point} "
                    f"for user {user}"
                )

    def _apply_moves(self, moves: list[tuple[int, Point]]) -> ChurnPatch:
        # Validate first: the write-ahead journal and every live
        # structure must only ever see a batch the maintainer can apply.
        self.check_moves(moves)
        if self._churn is None:
            self._churn = self._build_churn_runtime()
        if moves and self._store is not None and not self._replaying:
            # Write-ahead: the batch must be durable before any live
            # structure mutates.
            self._journal_seq += 1
            self._store.journal.append(self._journal_seq, moves)
        patch = self._churn.apply_moves(moves)
        # Clustering services that maintain derived structures over the
        # graph (the cluster tree) consume the patch's edge diffs here,
        # so they track the in-place graph mutation batch for batch.
        consume_patch = getattr(self._clustering, "apply_churn_patch", None)
        if consume_patch is not None:
            consume_patch(patch)
        for user, point in moves:
            self._dataset.move(user, point)  # type: ignore[attr-defined]
        registry = self._clustering.registry
        invalidated = 0
        seen: set[frozenset[int]] = set()
        for user, _ in moves:
            members = registry.cluster_of(user)
            if members is None or members in seen:
                continue
            seen.add(members)
            if self.invalidate_region(members):
                invalidated += 1
        if self._tuning.enabled():
            # The δ-plan is a pure function of the positions; drop it so
            # the next consumer replans over the post-move occupancy.
            self._delta_plan = None
        if self._tuning.share_regions and seen:
            with obs.span(metric.SPAN_TUNING_RESHARE):
                self._reshare(seen)
        if obs.enabled():
            obs.inc(metric.CHURN_BATCHES)
            obs.inc(metric.CHURN_MOVES, patch.moved)
            obs.inc(metric.CHURN_DIRTY_USERS, patch.dirty_users)
            obs.inc(metric.CHURN_EDGES_ADDED, patch.edges_added)
            obs.inc(metric.CHURN_EDGES_REMOVED, patch.edges_removed)
            obs.inc(metric.CHURN_EDGES_REWEIGHTED, patch.edges_reweighted)
            obs.inc(metric.CHURN_REGIONS_INVALIDATED, invalidated)
            obs.observe(
                metric.CHURN_DIRTY_PER_BATCH,
                patch.dirty_users,
                bounds=_DIRTY_BUCKETS,
            )
        recorder = _trace._recorder
        if recorder is not None:
            recorder.record(
                _trace.EVT_CHURN_PATCH, moves=patch.moved,
                dirty_users=patch.dirty_users,
                edges_added=patch.edges_added,
                edges_removed=patch.edges_removed,
                edges_reweighted=patch.edges_reweighted,
                regions_invalidated=invalidated,
            )
        return patch

    def _reshare(self, clusters: Iterable[frozenset[int]]) -> int:
        """Proactively re-compute the shared slots of churned clusters.

        For every cluster that lost (or never had) its cached region
        because a member moved, pre-compute *each member's own*
        on-demand region over the new positions — the progressive
        bounding protocol seeds at the requester's coordinate, so the
        region is requester-dependent and one rect cannot speak for the
        whole cluster.  The first member served from its slot promotes
        that rect to the cluster's cached region (see
        :meth:`_serve_shared`), after which the siblings serve the
        promoted geometry exactly as the demand path would.
        """
        filled = 0
        for members in clusters:
            if members in self._regions:  # pragma: no cover - invalidated above
                continue
            for member in sorted(members):
                rect, _ = self._bound(members, member)
                rect = self._enforce_granularity(rect, member)
                self._shared_slots[member] = (members, rect)
                filled += 1
        if filled and obs.enabled():
            obs.inc(metric.TUNING_RESHARED_SLOTS, filled)
        return filled

    @property
    def tuning(self) -> TuningPolicy:
        """The online tuning policy this engine was built with."""
        return self._tuning

    def shared_slots(self) -> dict[int, tuple[frozenset[int], Rect]]:
        """A snapshot of the per-member shared region slots."""
        return dict(self._shared_slots)

    def delta_plan(self) -> Optional[DeltaPlan]:
        """The current δ-plan, building it on first use when tuning is on."""
        if not self._tuning.enabled():
            return None
        return self._ensure_plan()

    def retune(self) -> None:
        """Drop the cached δ-plan; the next consumer replans immediately.

        Replanning also happens automatically after every churn batch —
        this is the operator's explicit knob (and the soak test's
        ``retune`` op).
        """
        self._delta_plan = None

    def _build_churn_runtime(self) -> IncrementalWPG:
        """First-move setup: mutable dataset, grid, incremental maintainer."""
        if not isinstance(self._dataset, MutablePointDataset):
            self._dataset = MutablePointDataset.from_dataset(self._dataset)
        if self._churn_restore is not None:
            # Restored engine: rebuild grid + picks through the trusted
            # constructors from the stashed snapshot arrays.  Deferred to
            # here so a warm restart that never churns again pays nothing
            # — symmetric with the lazy first-move setup below.
            stash = self._churn_restore
            self._churn_restore = None
            grid = GridIndex.from_export(
                stash["grid"], cell_size=self._config.delta
            )
            return IncrementalWPG.restore(
                grid,
                self._config.delta,
                self._config.max_peers,
                self._graph,
                *stash["picks"],
            )
        grid = GridIndex(list(self._dataset), cell_size=self._config.delta)
        return IncrementalWPG(
            grid,
            delta=self._config.delta,
            max_peers=self._config.max_peers,
            graph=self._graph,
        )

    # -- durable state (repro.persist) -----------------------------------------

    @property
    def journal_seq(self) -> int:
        """The last journal sequence number this engine wrote (0 = none)."""
        return self._journal_seq

    def _require_persistable(self) -> None:
        if not isinstance(self._policy_spec, str):
            raise PersistError(
                "a custom policy callable is not restorable — persist "
                "engines built with a named policy preset"
            )
        self._flavor()

    def _flavor(self) -> str:
        """The snapshot name of the phase-1 service, derived from its type.

        Only a stock service in the configuration :meth:`restore`
        rebuilds counts — this engine's graph and k, greedy step 3, no
        closure reading, no precomputed partition.  Anything else is a
        custom service, and a custom service is not restorable.
        """
        service = self._clustering
        flavor = _FLAVORS.get(type(service))
        if (
            flavor is None
            or service._graph is not self._graph  # type: ignore[attr-defined]
            or service.k != self._config.k  # type: ignore[attr-defined]
            or service._method != "greedy"  # type: ignore[attr-defined]
            or getattr(service, "_closure", False)
            or getattr(service, "_precomputed", None) is not None
        ):
            raise PersistError(
                "a custom phase-1 clustering service is not restorable"
            )
        return flavor

    def enable_persistence(self, store: "PersistentStore") -> None:
        """Attach a durable store: journal every future move batch.

        From this call on, :meth:`apply_moves` appends each batch to the
        store's write-ahead journal (fsync'd) *before* mutating live
        state, and :meth:`checkpoint` rotates snapshots.  The engine's
        configuration must be restorable — named policy, stock phase-1
        service — or a later :meth:`restore` could not rebuild it.
        """
        self._require_persistable()
        self._store = store

    def disable_persistence(self) -> None:
        """Detach the store (journal handle closed, no more appends)."""
        if self._store is not None:
            self._store.close()
            self._store = None

    def snapshot_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """Capture the engine's full durable state as ``(arrays, meta)``.

        Arrays (bit-exact numpy columns): user positions, the WPG, and —
        once churn has started — the grid's cell buckets and the
        incremental maintainer's directed-picks table; tree-flavored
        engines add the cluster-tree dendrogram columns.  Meta (JSON):
        config, engine flavor, the region cache, the cluster registry in
        registration order, and centralized partition flags.
        """
        self._require_persistable()
        if self._churn is None and self._churn_restore is not None:
            # Restored engine that never churned again: materialise the
            # deferred runtime so the snapshot carries its arrays forward.
            self._churn = self._build_churn_runtime()
        arrays: dict[str, np.ndarray] = {}
        points = self._dataset.points
        arrays["positions"] = np.array(
            [[p.x, p.y] for p in points], dtype=float
        ).reshape(len(points), 2)
        arrays.update(_prefixed("graph_", graph_to_arrays(self._graph)))
        has_churn = self._churn is not None
        if has_churn:
            arrays.update(_prefixed("grid_", self._churn.grid.export_arrays()))
            picks = zip(("indptr", "peers", "ranks"), self._churn.export_picks())
            arrays.update(_prefixed("picks_", dict(picks)))
        clustering = self._clustering
        if isinstance(clustering, TreeClustering):
            for key, value in clustering.tree.to_state().items():
                dtype = float if key == "weight" else np.int64
                arrays[f"tree_{key}"] = np.asarray(value, dtype=dtype)
        registry = clustering.registry
        meta: dict = {
            "engine": {
                "mode": self._mode,
                "policy": self._policy_spec,
                "min_area": self._min_area,
                "clustering": self._flavor(),
                "has_churn": has_churn,
                "dataset_name": self._dataset.name,
            },
            "config": dataclasses.asdict(self._config),
            "next_region_id": self._next_region_id,
            "regions": [
                {
                    "members": sorted(members),
                    "rect": _rect_hex(region.rect),
                    "cluster_id": region.cluster_id,
                    "anonymity": region.anonymity,
                }
                for members, region in self._regions.items()
            ],
            "registry": [
                sorted(registry.cluster_by_id(cid))
                for cid in range(len(registry))
            ],
        }
        if self._tuning.enabled():
            # The δ-plan is derivable (pure function of the restored
            # positions); the shared slots are not — a slot records which
            # churned clusters were proactively re-shared, so it rides
            # the snapshot bit-exactly (rects in float hex).
            meta["tuning"] = {
                "policy": self._tuning.to_meta(),
                "slots": [
                    {
                        "user": user,
                        "members": sorted(members),
                        "rect": _rect_hex(rect),
                    }
                    for user, (members, rect) in sorted(
                        self._shared_slots.items()
                    )
                ],
            }
        if isinstance(clustering, CentralizedAnonymizer):
            meta["centralized"] = {
                "partitioned": clustering.has_partitioned,
                "unclusterable": sorted(clustering.unclusterable),
            }
        return arrays, meta

    def checkpoint(self):  # noqa: ANN201 - Path, avoids top-level import
        """Snapshot the full state, truncate the journal, prune old snapshots.

        After a checkpoint the journal is empty: every recorded batch is
        covered by the snapshot.  The snapshot is committed (atomic
        rename) *before* truncation, and replay skips record seqs the
        snapshot covers — so a crash anywhere inside this method loses
        nothing.
        """
        if self._store is None:
            raise PersistError(
                "persistence is not enabled: call enable_persistence(store)"
            )
        with obs.span(metric.SPAN_PERSIST_CHECKPOINT):
            arrays, meta = self.snapshot_state()
            path = self._store.checkpoint(self._journal_seq, arrays, meta)
        if obs.enabled():
            obs.inc(metric.PERSIST_CHECKPOINTS)
        return path

    @classmethod
    def restore(cls, store: "PersistentStore") -> "CloakingEngine":
        """Rebuild an engine from the store's latest snapshot + journal.

        The snapshot's arrays come back through the trusted constructors
        (no re-rank, no re-partition, no tree rebuild); the journal's
        surviving records — anything past the snapshot's seq, torn tail
        discarded — replay through the live churn path.  The result is
        bit-identical to the engine that never crashed: same graph, same
        tree, same regions, same registry, same future behaviour.  The
        restored engine stays attached to ``store``.
        """
        with obs.span(metric.SPAN_PERSIST_RESTORE):
            arrays, meta = store.require_latest_snapshot()
            info = meta["engine"]
            config = SimulationConfig(**meta["config"])
            graph = graph_from_arrays(_unprefixed("graph_", arrays))
            dataset = MutablePointDataset(
                [
                    Point(x, y)
                    for x, y in arrays["positions"].tolist()
                ],
                name=info.get("dataset_name", "dataset"),
            )
            registry = ClusterRegistry()
            for members in meta["registry"]:
                registry.register(members)
            kind = info["clustering"]
            if kind == "tree":
                tree_state = {
                    key: value.tolist()
                    for key, value in _unprefixed("tree_", arrays).items()
                }
                tree = ClusterTree.from_state(graph, tree_state)
                service: ClusteringService = TreeClustering(
                    graph, config.k, registry=registry, tree=tree
                )
            elif kind == "centralized":
                central_service = CentralizedAnonymizer(
                    graph, config.k, registry=registry
                )
                central = meta["centralized"]
                central_service.restore_partition_state(
                    central["partitioned"],
                    frozenset(central["unclusterable"]),
                )
                service = central_service
            else:
                service = DistributedClustering(
                    graph, config.k, registry=registry
                )
            tuning_meta = meta.get("tuning")
            tuning = (
                TuningPolicy.from_meta(tuning_meta["policy"])
                if tuning_meta
                else None
            )
            engine = cls(
                dataset,
                graph,
                config,
                mode=info["mode"],
                policy=info["policy"],
                min_area=info["min_area"],
                clustering=service,
                tuning=tuning,
            )
            engine._next_region_id = int(meta["next_region_id"])
            for entry in meta["regions"]:
                engine._regions[frozenset(entry["members"])] = CloakedRegion(
                    rect=_rect_from_hex(entry["rect"]),
                    cluster_id=int(entry["cluster_id"]),
                    anonymity=int(entry["anonymity"]),
                )
            if tuning_meta:
                # Restore the shared slots *after* the regions so replayed
                # journal batches drain and re-share exactly like the
                # engine that never crashed.
                for entry in tuning_meta["slots"]:
                    engine._shared_slots[int(entry["user"])] = (
                        frozenset(entry["members"]),
                        _rect_from_hex(entry["rect"]),
                    )
            if info["has_churn"]:
                # Stashed, not rebuilt: the first apply_moves (usually
                # the journal replay just below) materialises the grid
                # and picks through the trusted-path constructors, so a
                # warm restart with an empty journal defers the cost —
                # exactly like a fresh engine defers first-move setup.
                engine._churn_restore = {
                    "grid": _unprefixed("grid_", arrays),
                    "picks": (
                        arrays["picks_indptr"],
                        arrays["picks_peers"],
                        arrays["picks_ranks"],
                    ),
                }
            snapshot_seq = int(meta["journal_seq"])
            engine._journal_seq = snapshot_seq
            engine._store = store
            engine._replaying = True
            replayed = 0
            try:
                with obs.span(metric.SPAN_PERSIST_REPLAY):
                    for record in store.journal.records():
                        if record.seq <= snapshot_seq:
                            continue
                        engine.apply_moves(list(record.moves))
                        engine._journal_seq = record.seq
                        replayed += 1
            finally:
                engine._replaying = False
            if obs.enabled():
                obs.inc(metric.PERSIST_RESTORES)
                if replayed:
                    obs.inc(metric.PERSIST_REPLAYED_BATCHES, replayed)
        return engine

    def _granularity_target(self, host: Optional[int]) -> float:
        """The minimum region area enforced for ``host``'s request.

        The static metric unless the tuning policy adapts δ per density
        cell: then the plan's scale (monotone non-increasing in cell
        occupancy, bounded below by ``delta_scale_min``) shrinks the
        enforced *extent*, so the area target scales quadratically.  A
        tuned region is therefore always contained in the untuned one.
        """
        if self._min_area <= 0.0 or not self._tuning.adapt_delta or host is None:
            return self._min_area
        scale = self._ensure_plan().scale_at(self._dataset[host])
        return self._min_area * scale * scale

    def _enforce_granularity(
        self, region: Rect, host: Optional[int] = None
    ) -> Rect:
        """Grow ``region`` until it satisfies the minimum-area metric.

        Uniform margin on all sides, then clipped to the unit square.
        The analytic rounds solve the unclipped margin and usually land
        in one or two iterations, but a region clipped on two or more
        sides (a map corner) can stall: the solved margin ignores the
        sides the clipping eats.  A bisection over the uniform margin
        then finishes the job — margin 1 always covers the whole unit
        square and ``min_area <= 1``, so a satisfying margin exists and
        the target is guaranteed, never silently under-delivered.
        """
        target = self._granularity_target(host)
        if target <= 0.0 or region.area >= target:
            return region
        unit = Rect.unit_square()
        grown = region
        for _round in range(64):
            if grown.area >= target:
                return grown
            # Solve (w + 2m)(h + 2m) = target for the margin m, ignoring
            # clipping; clip and re-check.
            w, h = grown.width, grown.height
            # Quadratic: 4m^2 + 2(w + h)m + (wh - target) = 0.
            disc = (w + h) ** 2 - 4.0 * (w * h - target)
            margin = (-(w + h) + disc**0.5) / 4.0
            grown = grown.expanded(max(margin, 1e-6)).clipped_to(unit)
        if grown.area >= target:
            return grown
        # Corner stall: the clipped area is nondecreasing in the margin,
        # so bisect it on the original region.  ``hi`` satisfies the
        # target at every step (it starts at 1), hence so does the result.
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if region.expanded(mid).clipped_to(unit).area >= target:
                hi = mid
            else:
                lo = mid
        return region.expanded(hi).clipped_to(unit)

    def _bound(self, members: frozenset[int], host: int) -> tuple[Rect, int]:
        """Phase 2 over the cluster; returns (region, bounding messages).

        The requesting ``host`` initiates the secure bounding rounds, so
        its position within the sorted member list is the protocol's host
        index — not slot 0, which only coincides with the host when the
        host happens to be the smallest member id.
        """
        ordered = sorted(members)
        points = [self._dataset[i] for i in ordered]
        if self._policy_builder is None:
            # OPT baseline: exact box, one position message per member.
            return optimal_bounding_box(points), len(points)
        size = len(points)
        result = secure_bounding_box(
            points,
            host_index=ordered.index(host),
            policy_factory=lambda: self._policy_builder(size),
            clip_to=Rect.unit_square(),
        )
        return result.region, result.messages
