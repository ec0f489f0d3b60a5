"""The in-process workloads: ``churn-distributed`` and ``churn-tree``.

One :class:`~repro.cloaking.engine.CloakingEngine` serves a fixed
schedule of ticks.  Each tick applies one random-waypoint move batch
(``engine.apply_moves``) and then serves that tick's requests one by
one, each an ``engine.request`` plus an LBS range query over the
returned region.  Speed-probe readings bracket the tick and the
requests; each phase's samples are scaled by the readings around it.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import nullcontext

import repro.cloaking.engine as engine_module
import repro.server as server
from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.errors import ClusteringError
from repro.graph.build import build_wpg_fast

from checks import classify_failure, graph_problems
from common import (
    MAX_PEERS,
    Samples,
    Shape,
    move_schedule,
    poi_database,
    population,
    uniform_hosts,
)
from probe import SpeedProbe, factor
from report import Report
from tracing import Tracer

SHAPES = {
    "churn-distributed": Shape(
        users=50_000, movers=500, requests=50, ticks_per_second=1.65
    ),
    "churn-tree": Shape(users=10_000, movers=100, requests=150, ticks_per_second=1.3),
}

#: Span names whose self time is a layer's time.
TICK_LAYERS = ("spatial.grid", "graph.wpg_patch", "clustering.tree_patch", "cloaking.churn")
REQUEST_LAYERS = ("clustering.phase1", "bounding", "cloaking.request", "server.lbs")
#: The roots' self times: whatever the named leaf layers do not cover.
CATCH_ALL = ("cloaking.churn", "cloaking.request")


def resident_mb() -> float:
    """The benchmark process's current resident set, in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


def build(base, config: SimulationConfig, clustering) -> CloakingEngine:
    """Set-up: hand the population over until the first request can be
    served — WPG build, engine (and cluster tree) construction, and the
    churn runtime's warm-up."""
    graph = build_wpg_fast(base, config.delta, config.max_peers)
    engine = CloakingEngine(base, graph, config, clustering=clustering)
    engine.apply_moves([])
    return engine


def install_spans(tracer: Tracer, engine: CloakingEngine, tree: bool) -> None:
    runtime = engine.churn_runtime
    tracer.install(engine, "apply_moves", "cloaking.churn")
    tracer.install(runtime, "apply_moves", "graph.wpg_patch")
    tracer.install(runtime.grid, "move_many", "spatial.grid")
    tracer.install(runtime.grid, "batch_query_radius", "spatial.grid")
    if tree:
        tracer.install(
            engine.clustering, "apply_churn_patch", "clustering.tree_patch",
            keep_result=True,
        )
    tracer.install(engine, "request", "cloaking.request")
    tracer.install(engine.clustering, "request", "clustering.phase1")
    tracer.install(engine_module, "secure_bounding_box", "bounding")
    tracer.install(server, "range_query", "server.lbs")


def run(name: str, seed: int, seconds: int, trace: bool) -> Report:
    shape = SHAPES[name]
    tree = name == "churn-tree"
    report = Report(name, shape, seed, seconds, trace)
    base = population(shape.users)
    db = poi_database()
    config = SimulationConfig(
        user_count=shape.users, delta=shape.delta, max_peers=MAX_PEERS
    )
    ticks = shape.ticks(seconds)
    schedule = move_schedule(base, ticks, shape.movers, shape.delta, seed)
    probe = SpeedProbe()
    # The harness's own memory (interpreter, imports, probe, POI
    # database, schedules) is resident before the first set-up; the
    # reported peak is what the program adds on top of it.
    gc.collect()
    harness_mb = resident_mb()

    engine = None
    for _ in range(shape.setups):
        engine = None
        gc.collect()
        before = probe.measure()
        t0 = time.perf_counter()
        engine = build(base, config, "tree" if tree else None)
        elapsed = time.perf_counter() - t0
        report.add_setup(elapsed, before, probe.measure())
    hosts = uniform_hosts(engine.graph, config.k, ticks, shape.requests, seed)

    tracer = Tracer() if trace else None
    ticks_raw: list[float] = []
    requests_raw: list[list[float]] = []
    traced_ticks: list[bool] = []
    counts = dict.fromkeys(
        ("moved", "dirty", "edges", "invalidated", "served", "refused",
         "defects", "errors", "involved", "cluster_hits", "region_hits",
         "bounding_runs", "bounding_messages", "candidates"),
        0,
    )
    cost_total = 0.0
    tick_factors: list[float] = []
    request_factors: list[float] = []
    gc.collect()
    last = probe.measure()
    for index, (batch, tick_hosts) in enumerate(zip(schedule, hosts)):
        traced = tracer is not None and index % 2 == 0
        traced_ticks.append(traced)
        if traced:
            install_spans(tracer, engine, tree)
        cached_before = engine.cached_regions().keys()
        t0 = time.perf_counter()
        with tracer.timed("tick") if traced else nullcontext():
            patch = engine.apply_moves(batch)
        ticks_raw.append(time.perf_counter() - t0)
        after_tick = probe.measure()
        tick_factors.append(factor(last, after_tick))
        counts["moved"] += patch.moved
        counts["dirty"] += patch.dirty_users
        counts["edges"] += patch.edges_changed
        counts["invalidated"] += len(cached_before - engine.cached_regions().keys())

        latencies: list[float] = []
        for host in tick_hosts:
            result = error = None
            t0 = time.perf_counter()
            try:
                with tracer.timed("request") if traced else nullcontext():
                    result = engine.request(host)
                    candidates = server.range_query(db, result.region.rect)
            except ClusteringError as exc:
                error = exc
            except Exception as exc:  # any other error is a failed operation
                error = exc
                counts["errors"] += 1
                report.problems.append(f"request {host}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            if result is None:
                if isinstance(error, ClusteringError):
                    verdict = classify_failure(
                        engine.graph, host, config.k,
                        engine.clustering.registry.assigned_view(),
                    )
                    counts["refused" if verdict == "sub_k" else "defects"] += 1
                continue
            counts["served"] += 1
            counts["involved"] += result.cluster.involved
            counts["cluster_hits"] += result.cluster.from_cache
            counts["region_hits"] += result.region_from_cache
            if not result.region_from_cache:
                counts["bounding_runs"] += 1
                counts["bounding_messages"] += result.bounding_messages
            counts["candidates"] += len(candidates)
            cost_total += server.total_request_cost(
                db, result.region.rect, result.clustering_messages,
                result.bounding_messages, config,
            )
        requests_raw.append(latencies)
        last = probe.measure()
        request_factors.append(factor(after_tick, last))
        if traced:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.counts.update(process_peak_rss_mb=peak_mb, harness_rss_mb=harness_mb)
    peak_rss_mb = peak_mb - harness_mb

    # Drift-normalise every sample with the probe readings around it.
    tick_samples, request_samples = Samples(), Samples()
    per_tick_wall = []
    for index, (tick, latencies) in enumerate(zip(ticks_raw, requests_raw)):
        tick_samples.add(tick, tick_factors[index])
        for latency in latencies:
            request_samples.add(latency, request_factors[index])
        per_tick_wall.append(tick + sum(latencies))

    attempted = sum(len(t) for t in hosts)
    failed = counts["refused"] + counts["defects"] + counts["errors"]
    report.set_serving(
        ticks=tick_samples,
        requests=request_samples,
        moved=counts["moved"],
        answered=attempted,
        answer_samples=request_samples,
        attempted=attempted,
        refused=failed,
        cost_total=cost_total,
        peak_rss_mb=peak_rss_mb,
    )
    report.attempted = attempted
    report.failed = counts["defects"] + counts["errors"]
    report.counts.update(counts)
    report.deterministic.update(
        {
            "attempted": attempted,
            "refused": failed,
            "request_cost_total": cost_total,
            "moved": counts["moved"],
            "dirty_users": counts["dirty"],
            "edges_changed": counts["edges"],
            "regions_invalidated": counts["invalidated"],
            "involved_users": counts["involved"],
            "candidates": counts["candidates"],
        }
    )

    ticks_n, served = len(ticks_raw), max(1, counts["served"])
    layer = report.layer
    layer["graph.dirty_users_per_tick"] = counts["dirty"] / ticks_n
    layer["graph.edges_changed_per_tick"] = counts["edges"] / ticks_n
    layer["graph.edges_changed_per_dirty_user"] = counts["edges"] / max(1, counts["dirty"])
    layer["cloaking.regions_invalidated_per_tick"] = counts["invalidated"] / ticks_n
    layer["clustering.involved_users_per_request"] = counts["involved"] / served
    layer["clustering.cache_hit_rate"] = counts["cluster_hits"] / served
    layer["cloaking.region_cache_hit_rate"] = counts["region_hits"] / served
    layer["bounding.messages_per_run"] = counts["bounding_messages"] / max(
        1, counts["bounding_runs"]
    )
    layer["server.candidates_per_request"] = counts["candidates"] / served

    if tracer is not None:
        traced_n = sum(traced_ticks)
        traced_requests = sum(
            len(lat) for lat, on in zip(requests_raw, traced_ticks) if on
        )
        selfs = tracer.self_times()
        ms = probe.overall_factor() * 1e3
        per_tick = lambda key: selfs.get(key, 0.0) * ms / traced_n  # noqa: E731
        per_request = lambda key: (  # noqa: E731
            selfs.get(key, 0.0) * ms / max(1, traced_requests)
        )
        layer["spatial.grid_ms_per_tick"] = per_tick("spatial.grid")
        layer["graph.wpg_patch_ms_per_tick"] = per_tick("graph.wpg_patch")
        layer["clustering.tree_patch_ms_per_tick"] = per_tick("clustering.tree_patch")
        layer["cloaking.churn_self_ms_per_tick"] = per_tick("cloaking.churn")
        layer["clustering.phase1_ms_per_request"] = per_request("clustering.phase1")
        layer["cloaking.request_self_ms"] = per_request("cloaking.request")
        layer["server.lbs_ms_per_request"] = per_request("server.lbs")
        bounding_calls = sum(1 for span in tracer.spans if span[0] == "bounding")
        layer["bounding.ms_per_run"] = (
            selfs.get("bounding", 0.0) * ms / max(1, bounding_calls)
        )
        rebuilt = tracer.results.get("clustering.tree_patch", [])
        layer["clustering.tree_components_rebuilt_per_tick"] = (
            sum(rebuilt) / traced_n if tree else 0.0
        )
        if tree:
            report.deterministic["tree_components_rebuilt_traced"] = sum(rebuilt)
        covered = sum(selfs.get(key, 0.0) for key in TICK_LAYERS + REQUEST_LAYERS)
        remainder = sum(selfs.get(key, 0.0) for key in CATCH_ALL)
        wall = sum(
            span[2] - span[1] for span in tracer.spans
            if span[0] in ("tick", "request")
        )
        report.set_trace_summary(
            tracer,
            coverage=covered / wall,
            named=(covered - remainder) / wall,
            traced=[w for w, on in zip(per_tick_wall, traced_ticks) if on],
            untraced=[w for w, on in zip(per_tick_wall, traced_ticks) if not on],
            layer_seconds={key: selfs.get(key, 0.0) for key in TICK_LAYERS + REQUEST_LAYERS},
            wall_seconds=wall,
        )

    # Correctness, outside every timed window.
    rebuilt_graph = build_wpg_fast(engine.dataset, config.delta, config.max_peers)
    report.problems.extend(graph_problems(engine.graph, rebuilt_graph, name))
    if counts["defects"]:
        report.problems.append(
            f"{counts['defects']} failed request(s) had a valid cluster "
            "by the exact oracle (defect)"
        )
    report.probe = probe
    return report
