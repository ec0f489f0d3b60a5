"""Message-level execution of the distributed clustering (Fig. 3, path 2).

The analytic :class:`~repro.clustering.distributed.DistributedClustering`
reads the WPG directly; here the *same algorithm code* runs over a
:class:`~repro.network.remote_graph.RemoteGraphView`, so every adjacency
read the host performs becomes an ``adjacency`` RPC on the peer network —
with real message counting and real failure injection.  The test suite
asserts the message-level run produces the identical cluster and that
its distinct-fetch count equals the analytic involved-user count.

With a :class:`~repro.network.reliability.ReliabilityPolicy` the request
degrades gracefully instead of propagating transport failures: calls go
through a :class:`~repro.network.reliability.ReliableTransport` (retries
with backoff, idempotent redelivery, crash detection), a peer declared
crashed is *evicted* — excluded from every traversal — and the cluster
re-forms from scratch among the survivors.  When fewer than k reachable
users remain, or the re-formation budget runs out, the request raises a
typed clean :class:`~repro.network.reliability.ProtocolAbort`; the
registry is never touched by a failed request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro import obs
from repro.errors import ClusteringError
from repro.clustering.base import ClusterRegistry, ClusterResult
from repro.clustering.centralized import Method
from repro.clustering.distributed import DistributedClustering
from repro.graph.wpg import WeightedProximityGraph
from repro.network.reliability import (
    ABORT_BELOW_K,
    ABORT_HOST_FAILED,
    ABORT_MESSAGE_LOSS,
    ABORT_REFORM_BUDGET,
    ReliabilityPolicy,
    ReliableTransport,
    abort,
    resolve,
)
from repro.network.remote_graph import RemoteGraphView
from repro.network.simulator import MessageDropped, PeerCrashed, PeerNetwork
from repro.obs import names as metric
from repro.obs import trace as _trace

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class ProtocolRunReport:
    """Outcome of one message-level clustering request.

    ``evicted`` and ``reforms`` are only ever non-trivial under a
    reliability policy: the peers removed for unresponsiveness and the
    number of from-scratch re-formations the request needed.
    """

    result: ClusterResult
    adjacency_fetches: int
    messages_sent: int
    messages_dropped: int
    evicted: frozenset[int] = _EMPTY
    reforms: int = 0


class P2PClusteringProtocol:
    """Runs distributed t-connectivity k-clustering over a peer network."""

    def __init__(
        self,
        network: PeerNetwork,
        graph: WeightedProximityGraph,
        k: int,
        registry: Optional[ClusterRegistry] = None,
        method: Method = "greedy",
        retries: int = 0,
        reliability: Optional[ReliabilityPolicy] = None,
        transport: Optional[ReliableTransport] = None,
    ) -> None:
        self._network = network
        self._graph = graph  # only consulted for the host's own adjacency
        self._k = k
        self._registry = registry if registry is not None else ClusterRegistry()
        self._method = method
        self._retries = retries
        self._reliability = resolve(reliability)
        if self._reliability is not None:
            self._transport = (
                transport
                if transport is not None
                else ReliableTransport(network, self._reliability)
            )
        else:
            self._transport = None
        self._evicted: set[int] = set()

    @property
    def registry(self) -> ClusterRegistry:
        """The shared cluster-assignment registry."""
        return self._registry

    @property
    def evicted(self) -> frozenset[int]:
        """Peers evicted for unresponsiveness (reliability runs only)."""
        return frozenset(self._evicted)

    def request(self, host: int) -> ProtocolRunReport:
        """Serve one request entirely through network messages.

        Without a reliability policy a transport failure (dropped beyond
        the retry budget, crashed peer) propagates as a
        :class:`~repro.errors.ProtocolError`; with one, the protocol
        evicts crashed peers and re-forms, aborting cleanly with
        :class:`~repro.network.reliability.ProtocolAbort` only when the
        survivors cannot satisfy k.  Either way the registry is only
        updated on success, so a failed request leaves no partial state.
        """
        if host not in self._graph:
            raise ClusteringError(f"unknown host {host}")
        if self._reliability is None:
            return self._request_once(host, self._network, self._retries)
        return self._request_reliable(host)

    # -- failure-oblivious path (the seed behavior) ------------------------------

    def _request_once(
        self,
        host: int,
        network: "PeerNetwork | ReliableTransport",
        retries: int,
        reforms: int = 0,
    ) -> ProtocolRunReport:
        sent_before = network.stats.sent
        dropped_before = network.stats.dropped
        view = RemoteGraphView(
            network,
            host,
            self._host_adjacency(host),
            retries=retries,
        )
        # The algorithm is oblivious to where adjacency comes from: give
        # it the remote view in place of the graph.  Step 3 (the final
        # centralized partition) runs on the gathered subgraph, which we
        # materialise from the view's cache — no extra messages.
        runner = DistributedClustering(
            _MaterializingView(view, self._graph, self._evicted),  # type: ignore[arg-type]
            self._k,
            registry=self._registry,
            method=self._method,
        )
        result = runner.request(host)
        recorder = _trace._recorder
        if recorder is not None:
            recorder.record(
                _trace.EVT_CLUSTER_FORMED, host=host, size=result.size,
                from_cache=result.from_cache, fetches=view.fetched,
                reforms=reforms,
            )
        return ProtocolRunReport(
            result=result,
            adjacency_fetches=view.fetched,
            messages_sent=network.stats.sent - sent_before,
            messages_dropped=network.stats.dropped - dropped_before,
            evicted=frozenset(self._evicted),
            reforms=reforms,
        )

    def _host_adjacency(self, host: int) -> dict[int, float]:
        adjacency = self._graph.adjacency_message(host)
        if not self._evicted:
            return adjacency
        return {v: w for v, w in adjacency.items() if v not in self._evicted}

    # -- fault-tolerant path -----------------------------------------------------

    def _request_reliable(self, host: int) -> ProtocolRunReport:
        policy = self._reliability
        transport = self._transport
        assert policy is not None and transport is not None
        recording = obs.enabled()
        reforms = 0
        while True:
            try:
                return self._request_once(host, transport, 0, reforms)
            except PeerCrashed as exc:
                peer = exc.peer
                if peer is None or peer == host:
                    raise abort(
                        ABORT_HOST_FAILED,
                        f"host {host} cannot reach the network: {exc}",
                        host=host,
                        evicted=self._evicted,
                    ) from exc
                if peer not in self._evicted:
                    self._evicted.add(peer)
                    recorder = _trace._recorder
                    if recorder is not None:
                        recorder.record(
                            _trace.EVT_EVICTION, peer=peer, host=host,
                            phase="clustering",
                        )
                if recording:
                    obs.inc(metric.CLUSTERING_EVICTIONS)
            except MessageDropped as exc:
                # Persistent loss below the suspicion threshold: nobody
                # to evict, but a fresh formation redraws the dice.
                if reforms >= policy.max_reforms:
                    raise abort(
                        ABORT_MESSAGE_LOSS,
                        f"host {host}: message loss persisted through "
                        f"{reforms} re-formation(s): {exc}",
                        host=host,
                        evicted=self._evicted,
                    ) from exc
            except ClusteringError as exc:
                # The algorithm itself gave up: with evictions applied the
                # remaining reachable WPG cannot produce a >= k cluster.
                raise abort(
                    ABORT_BELOW_K,
                    f"host {host}: {exc}",
                    host=host,
                    evicted=self._evicted,
                ) from exc
            reforms += 1
            if reforms > policy.max_reforms:
                raise abort(
                    ABORT_REFORM_BUDGET,
                    f"host {host}: re-formation budget "
                    f"({policy.max_reforms}) exhausted",
                    host=host,
                    evicted=self._evicted,
                )
            if recording:
                obs.inc(metric.CLUSTERING_REFORMS)
            recorder = _trace._recorder
            if recorder is not None:
                recorder.record(
                    _trace.EVT_CLUSTER_REFORMED, host=host, reforms=reforms,
                    evicted=len(self._evicted),
                )


class _MaterializingView:
    """Adapter giving the remote view the full WPG read surface.

    Traversals only need ``neighbor_weights``/``neighbors``/``__contains__``,
    which route through the remote view (and therefore the network).  The
    final edge read — Algorithm 2's step 3, running on data the host has
    already gathered — is served from the fetch cache via the underlying
    graph, costing no additional messages.

    ``evicted`` peers are filtered from every read: an evicted peer is
    invisible to the traversal, exactly as if its radio went silent.
    """

    def __init__(
        self,
        view: RemoteGraphView,
        graph: WeightedProximityGraph,
        evicted: "set[int] | frozenset[int]" = _EMPTY,
    ) -> None:
        self._view = view
        self._graph = graph
        self._evicted = evicted

    def __contains__(self, vertex: int) -> bool:
        return vertex not in self._evicted and vertex in self._graph

    def neighbor_weights(self, vertex: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``vertex``."""
        if not self._evicted:
            return self._view.neighbor_weights(vertex)
        return (
            (neighbor, weight)
            for neighbor, weight in self._view.neighbor_weights(vertex)
            if neighbor not in self._evicted
        )

    def neighbors(self, vertex: int) -> Iterator[int]:
        """Iterate the neighbors of ``vertex``."""
        if not self._evicted:
            return self._view.neighbors(vertex)
        return (n for n in self._view.neighbors(vertex) if n not in self._evicted)

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``."""
        return self._view.weight(u, v)

    def degree(self, vertex: int) -> int:
        """Number of neighbors of ``vertex``."""
        if not self._evicted:
            return self._view.degree(vertex)
        return sum(1 for _ in self.neighbors(vertex))

    def subgraph(self, vertices):
        """The induced subgraph on ``vertices``."""
        return self._graph.subgraph(vertices)

    def weighted_edges(self, vertices=None):
        """The gathered subgraph's edges as ``(weight, u, v)`` tuples."""
        return self._graph.weighted_edges(vertices)

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return self._graph.vertex_count
