"""The ``service-2shard`` workload: the sharded daemon over TCP.

``python -m repro.service --shards 2`` runs as a subprocess; one client
connection drives it in a closed loop.  Each tick sends one ``churn``
op (the fleet-wide barrier), then one ``request_many`` batch of hosts
drawn from the clusterable pool, which the dispatcher splits across
both workers (throughput), then single ``request`` ops from members of
the clusters that batch just formed, re-requesting their cloak
(latency samples).  The serving order is fixed, so the answers are
deterministic and must equal a single in-process engine replaying the
same schedule, which runs after the daemon has stopped.

The singles re-request on purpose.  A fresh request costs about three
times a repeat one, and as the registry fills over a run the mix of the
two crosses one half, which put the median in the gap between the two
modes and moved it by up to 40% from run to run.  Phase-1 clustering
latency is measured on ``churn-distributed``; here the singles measure
the wire, the dispatcher and the worker's cache path.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro.server as server
from repro.config import SimulationConfig
from repro.experiments.workloads import clusterable_users
from repro.geometry.rect import Rect
from repro.graph.build import build_wpg_fast
from repro.service import ServiceSpec, ShardMap, build_engine, outcome_of, route_users

from checks import classify_failure, graph_problems, transcript_problems
from common import (
    MAP_SEED,
    MAX_PEERS,
    OUT_DIR,
    Samples,
    Shape,
    move_schedule,
    poi_database,
)
from engine_bench import install_spans
from probe import SpeedProbe, factor
from report import Report
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SHAPE = Shape(
    users=50_000, movers=100, requests=20, batch=400, delta_scale=0.5, k=5,
    ticks_per_second=1.4,
)
SHARDS = 2
_LENGTH = struct.Struct(">I")
_SERVING = re.compile(r"serving on ([\d.]+):(\d+)")


class ServiceCallError(Exception):
    """An op came back with ``status: "error"``."""


class Client:
    """One length-prefixed JSON connection to the daemon's front door."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=120.0)
        self._ids = 0

    def call(self, op: str, **fields) -> dict:
        self._ids += 1
        body = json.dumps({"op": op, "id": self._ids, **fields}).encode()
        self._sock.sendall(_LENGTH.pack(len(body)) + body)
        (length,) = _LENGTH.unpack(self._read(_LENGTH.size))
        reply = json.loads(self._read(length))
        if reply.get("status") != "ok":
            raise ServiceCallError(reply.get("error"))
        return reply

    def _read(self, size: int) -> bytes:
        chunks, remaining = [], size
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ServiceCallError("connection closed by the service")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self._sock.close()


class Daemon:
    """The service process: launched, warmed up, stopped and reaped."""

    def __init__(self, spec: ServiceSpec, log: Path) -> None:
        params = spec.source["synthetic"]
        command = [
            sys.executable, "-m", "repro.service",
            "--users", str(params["users"]), "--seed", str(params["seed"]),
            "--kind", params["kind"], "--delta", repr(params["delta"]),
            "--max-peers", str(params["max_peers"]), "--k", str(params["k"]),
            "--shards", str(spec.shards), "--port", "0",
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log_path = log
        self._log = open(log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        self.client: Client | None = None

    def connect(self, timeout: float = 150.0) -> Client:
        """Wait for the front door, then ping and warm the churn path up.

        The warm-up (an empty ``churn``) builds every replica's lazy
        churn runtime, which would otherwise land in the first tick.
        """
        deadline = time.monotonic() + timeout
        while True:
            match = _SERVING.search(self._log_path.read_text(encoding="utf-8"))
            if match:
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "service did not come up: "
                    + self._log_path.read_text(encoding="utf-8")[-2000:]
                )
            time.sleep(0.005)
        self.client = Client(match.group(1), int(match.group(2)))
        self.client.call("ping")
        self.client.call("churn", moves=[])
        return self.client

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the daemon and its worker processes."""
        pids = [self.process.pid]
        for task in Path(f"/proc/{self.process.pid}/task").iterdir():
            pids += [int(p) for p in (task / "children").read_text().split()]
        total_kb = 0
        for pid in pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._log.close()


def slab_buckets(hosts, table) -> list[list[int]]:
    """``hosts`` split by the slab that owns them, in slab order."""
    buckets: dict[int, list[int]] = {}
    for host in hosts:
        buckets.setdefault(table[host], []).append(host)
    return [buckets[slab] for slab in sorted(buckets)]


def stratified(buckets: list[list[int]], count: int, rng) -> list[int]:
    """``count`` draws with repeats, alternating between the slabs."""
    buckets = [bucket for bucket in buckets if bucket]
    picks = []
    for j in range(count if buckets else 0):
        bucket = buckets[j % len(buckets)]
        picks.append(int(bucket[rng.integers(len(bucket))]))
    return picks


def _busy(stats: dict) -> list[float]:
    return [worker["busy_wall"] for worker in stats["stats"]]


def _delta(after: dict, before: dict) -> list[float]:
    return [a - b for a, b in zip(_busy(after), _busy(before))]


def run(name: str, seed: int, seconds: int, trace: bool) -> Report:
    shape = SHAPE
    report = Report(name, shape, seed, seconds, trace)
    spec = ServiceSpec.synthetic(
        users=shape.users, seed=MAP_SEED, kind="california", delta=shape.delta,
        max_peers=MAX_PEERS, k=shape.k, shards=SHARDS,
    )
    config = SimulationConfig(
        user_count=shape.users, delta=shape.delta, max_peers=MAX_PEERS, k=shape.k
    )
    db = poi_database()
    replay = build_engine(spec)
    ticks = shape.ticks(seconds)
    schedule = move_schedule(replay.dataset, ticks, shape.movers, shape.delta, seed)
    rng = np.random.default_rng(seed + 2)
    table = route_users(
        replay.graph, replay.dataset.points, ShardMap(SHARDS, shape.delta)
    )
    pool = slab_buckets(clusterable_users(replay.graph, shape.k), table)
    batches = [stratified(pool, shape.batch, rng) for _ in range(ticks)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()

    daemon = None
    try:
        for attempt in range(shape.setups):
            if daemon is not None:
                daemon.stop()
            before = probe.measure()
            t0 = time.perf_counter()
            daemon = Daemon(spec, OUT_DIR / f"daemon-{name}-seed{seed}-{attempt}.log")
            client = daemon.connect()
            elapsed = time.perf_counter() - t0
            report.add_setup(elapsed, before, probe.measure())

        ticks_raw, singles_raw, lbs_raw, batches_raw = [], [], [], []
        singles: list[list[int]] = []
        traced_ticks: list[bool] = []
        transcript: list[dict] = []
        summaries: list[dict] = []
        phases: list[tuple[list[float], list[float], list[float]]] = []
        errors = 0
        # Probe readings around each phase: before the churn, after it,
        # after the batch and after the singles (the next tick's first).
        readings = [probe.measure()]
        for index, batch in enumerate(schedule):
            traced = trace and index % 2 == 0
            traced_ticks.append(traced)
            wire_moves = [[user, p.x, p.y] for user, p in batch]
            marks = [client.call("stats")] if traced else []
            t0 = time.perf_counter()
            reply = client.call("churn", moves=wire_moves)
            ticks_raw.append(time.perf_counter() - t0)
            summaries.append(reply["summary"])
            readings.append(probe.measure())
            if traced:
                marks.append(client.call("stats"))

            t0 = time.perf_counter()
            try:
                outcomes = client.call("request_many", hosts=batches[index])["outcomes"]
            except ServiceCallError as exc:
                outcomes = [
                    {"ok": False, "host": h, "error": exc.args[0]} for h in batches[index]
                ]
                errors += len(outcomes)
            batches_raw.append(time.perf_counter() - t0)
            readings.append(probe.measure())
            transcript.extend(outcomes)
            if traced:
                marks.append(client.call("stats"))
            formed = sorted(
                {m for outcome in outcomes for m in outcome.get("members", ())}
            )
            singles.append(stratified(slab_buckets(formed, table), shape.requests, rng))
            latencies, lbs_times = [], []
            for host in singles[index]:
                t0 = time.perf_counter()
                try:
                    outcome = client.call("request", host=host)["outcome"]
                except ServiceCallError as exc:
                    outcome = {"ok": False, "host": host, "error": exc.args[0]}
                    errors += 1
                t1 = time.perf_counter()
                if outcome["ok"]:
                    server.range_query(db, Rect(*outcome["rect"]))
                t2 = time.perf_counter()
                latencies.append(t2 - t0)
                lbs_times.append(t2 - t1)
                transcript.append(outcome)
            singles_raw.append(latencies)
            lbs_raw.append(lbs_times)
            readings.append(probe.measure())
            if traced:
                marks.append(client.call("stats"))
                phases.append(
                    (_delta(marks[1], marks[0]), _delta(marks[2], marks[1]),
                     _delta(marks[3], marks[2]))
                )
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    # Drift-normalise every sample with the probe readings around it.
    tick_samples, request_samples, batch_samples = Samples(), Samples(), Samples()
    per_tick_wall = []
    for index in range(ticks):
        r = readings[3 * index : 3 * index + 4]
        tick_samples.add(ticks_raw[index], factor(r[0], r[1]))
        batch_samples.add(batches_raw[index], factor(r[1], r[2]))
        for latency in singles_raw[index]:
            request_samples.add(latency, factor(r[2], r[3]))
        per_tick_wall.append(
            ticks_raw[index] + sum(singles_raw[index]) + batches_raw[index]
        )

    attempted = len(transcript)
    refused = sum(1 for outcome in transcript if not outcome["ok"])
    cost_total = candidates = involved = cluster_hits = region_hits = 0.0
    bounding_runs = bounding_messages = 0
    for outcome in transcript:
        if not outcome["ok"]:
            continue
        rect = Rect(*outcome["rect"])
        candidates += len(server.range_query(db, rect))
        cost_total += server.total_request_cost(
            db, rect, outcome["clustering_messages"],
            outcome["bounding_messages"], config,
        )
        involved += outcome["involved"]
        cluster_hits += outcome["cluster_from_cache"]
        region_hits += outcome["region_from_cache"]
        if not outcome["region_from_cache"]:
            bounding_runs += 1
            bounding_messages += outcome["bounding_messages"]
    served = attempted - refused
    report.set_serving(
        ticks=tick_samples,
        requests=request_samples,
        moved=sum(s["moved"] for s in summaries),
        answered=sum(len(b) for b in batches),
        answer_samples=batch_samples,
        attempted=attempted,
        refused=refused,
        cost_total=cost_total,
        peak_rss_mb=peak_rss_mb,
    )
    halo = sum(sum(s["halo_refreshes"]) for s in summaries)
    rerouted = sum(s["rerouted_users"] for s in summaries)
    synced = sum(s["synced_clusters"] for s in summaries)
    report.deterministic.update(
        {
            "attempted": attempted,
            "refused": refused,
            "request_cost_total": cost_total,
            "halo_refreshes": halo,
            "rerouted_users": rerouted,
            "synced_clusters": synced,
            "transcript_sha256": hashlib.sha256(
                json.dumps(transcript, sort_keys=True).encode()
            ).hexdigest(),
        }
    )
    layer = report.layer
    served_n = max(1, served)
    layer["service.synced_clusters_per_tick"] = synced / ticks
    layer["service.rerouted_users_per_tick"] = rerouted / ticks
    layer["service.halo_refreshes_per_tick"] = halo / ticks
    layer["clustering.involved_users_per_request"] = involved / served_n
    layer["clustering.cache_hit_rate"] = cluster_hits / served_n
    layer["cloaking.region_cache_hit_rate"] = region_hits / served_n
    layer["bounding.messages_per_run"] = bounding_messages / max(1, bounding_runs)
    layer["server.candidates_per_request"] = candidates / served_n

    # The single-engine replay: same schedule, same serving order.  It
    # checks the transcript, classifies every refusal by the oracle and,
    # when tracing, attributes the per-replica engine work to layers.
    tracer = Tracer() if trace else None
    replayed: list[dict] = []
    defects = 0
    replay_ticks = dirty = edges = invalidated = 0
    replay.apply_moves([])
    for index, batch in enumerate(schedule):
        if tracer is not None:
            install_spans(tracer, replay, tree=False)
        cached_before = replay.cached_regions().keys()
        patch = replay.apply_moves(batch)
        invalidated += len(cached_before - replay.cached_regions().keys())
        replay_ticks += 1
        dirty += patch.dirty_users
        edges += patch.edges_changed
        for host in batches[index] + singles[index]:
            outcome = outcome_of(replay, host)
            replayed.append(outcome)
            if not outcome["ok"] and outcome["error"]["type"] == "ClusteringError":
                verdict = classify_failure(
                    replay.graph, host, config.k,
                    replay.clustering.registry.assigned_view(),
                )
                defects += verdict == "defect"
        if tracer is not None:
            tracer.uninstall()
    report.problems.extend(transcript_problems(transcript, replayed))
    rebuilt = build_wpg_fast(replay.dataset, config.delta, config.max_peers)
    report.problems.extend(graph_problems(replay.graph, rebuilt, "replay"))
    if defects:
        report.problems.append(
            f"{defects} refused request(s) had a valid cluster by the exact "
            "oracle (defect)"
        )
    report.attempted = attempted
    report.failed = errors + defects
    report.counts.update(
        {"served": served, "refused": refused, "errors": errors, "defects": defects}
    )
    layer["graph.dirty_users_per_tick"] = dirty / replay_ticks
    layer["graph.edges_changed_per_tick"] = edges / replay_ticks
    layer["graph.edges_changed_per_dirty_user"] = edges / max(1, dirty)
    layer["cloaking.regions_invalidated_per_tick"] = invalidated / replay_ticks
    report.deterministic.update(
        {"dirty_users": dirty, "edges_changed": edges, "regions_invalidated": invalidated}
    )

    if trace:
        ms = probe.overall_factor() * 1e3
        traced = [i for i in range(ticks) if traced_ticks[i]]
        churn_busy = [max(p[0]) for p in phases]
        single_busy = [sum(p[2]) for p in phases]
        request_busy = [
            [a + b for a, b in zip(p[1], p[2])] for p in phases
        ]
        per_worker = [sum(col) for col in zip(*request_busy)]
        n_single = sum(len(singles[i]) for i in traced)
        n_batch = sum(len(batches[i]) for i in traced)
        rt_single = sum(
            sum(singles_raw[i]) - sum(lbs_raw[i]) for i in traced
        )
        layer["service.worker_churn_ms_per_tick"] = (
            sum(churn_busy) * ms / len(traced)
        )
        barrier = sum(ticks_raw[i] for i in traced) - sum(churn_busy)
        layer["service.barrier_ms_per_tick"] = barrier * ms / len(traced)
        layer["service.worker_busy_ms_per_request"] = (
            sum(per_worker) * ms / (n_single + n_batch)
        )
        layer["service.wire_ms_per_request"] = (
            (rt_single - sum(single_busy)) * ms / n_single
        )
        layer["service.worker_busy_imbalance"] = max(per_worker) / statistics.mean(
            per_worker
        )
        lbs_total = sum(sum(lbs_raw[i]) for i in traced)
        layer["server.lbs_ms_per_request"] = lbs_total * ms / n_single
        batch_busy = sum(max(p[1]) for p in phases)
        wall = sum(
            ticks_raw[i] + sum(singles_raw[i]) + batches_raw[i] for i in traced
        )
        batch_rest = sum(batches_raw[i] for i in traced) - batch_busy
        layers_s = {
            "service.worker_churn": sum(churn_busy),
            "service.barrier": barrier,
            "service.worker_busy_singles": sum(single_busy),
            "service.wire_singles": rt_single - sum(single_busy),
            "server.lbs": lbs_total,
            "service.worker_busy_batch": batch_busy,
            "service.wire_batch": batch_rest,
        }
        measured = sum(churn_busy) + sum(single_busy) + batch_busy + lbs_total
        # Replica engine layers, from the traced in-process replay.
        selfs = tracer.self_times()
        per_tick = lambda key: selfs.get(key, 0.0) * ms / replay_ticks  # noqa: E731
        replay_requests = len(replayed)
        per_request = lambda key: (  # noqa: E731
            selfs.get(key, 0.0) * ms / replay_requests
        )
        layer["spatial.grid_ms_per_tick"] = per_tick("spatial.grid")
        layer["graph.wpg_patch_ms_per_tick"] = per_tick("graph.wpg_patch")
        layer["cloaking.churn_self_ms_per_tick"] = per_tick("cloaking.churn")
        layer["clustering.phase1_ms_per_request"] = per_request("clustering.phase1")
        layer["cloaking.request_self_ms"] = per_request("cloaking.request")
        bounding_calls = sum(1 for span in tracer.spans if span[0] == "bounding")
        layer["bounding.ms_per_run"] = (
            selfs.get("bounding", 0.0) * ms / max(1, bounding_calls)
        )
        report.set_trace_summary(
            tracer,
            coverage=sum(layers_s.values()) / wall,
            named=measured / wall,
            traced=[per_tick_wall[i] for i in traced],
            untraced=[w for w, on in zip(per_tick_wall, traced_ticks) if not on],
            layer_seconds=layers_s,
            wall_seconds=wall,
        )
    report.probe = probe
    return report
