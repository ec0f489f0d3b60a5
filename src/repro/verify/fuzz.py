"""The seed-replay invariant fuzzer: ``python -m repro.verify.fuzz``.

Runs N seeded worlds end to end through the real engines
(:class:`~repro.cloaking.engine.CloakingEngine`, and
:class:`~repro.cloaking.p2p_engine.P2PCloakingSession` for the worlds
flagged for message-level replay), checks every registered invariant,
and:

* prints a per-invariant summary;
* dumps a minimal JSON repro (the world dict plus the violations) for
  every failing world into ``--repro-dir``;
* exits nonzero when anything failed.

``world = random_world(seed)`` is a pure function, so replaying a
failure needs only its seed (``--seed S --worlds 1``) or its repro file
(``--replay path.json``).  The harness reports its own activity through
the observability registry under ``verify.*``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import obs
from repro.cloaking.engine import CloakingEngine, CloakingResult
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.clustering.distributed import DistributedClustering
from repro.errors import ClusteringError
from repro.network.failures import FailurePlan
from repro.network.node import populate_network
from repro.network.reliability import ProtocolAbort, ReliabilityPolicy
from repro.network.simulator import PeerNetwork
from repro.obs import names as metric
from repro.obs import trace as _trace
from repro.verify.invariants import (
    ChurnObservation,
    P2PObservation,
    RequestRecord,
    TreeObservation,
    Violation,
    WorldRun,
    check_world,
    registered_invariants,
)
from repro.verify.transcript import TranscriptRecorder
from repro.verify.worlds import (
    BuiltWorld,
    World,
    build_world,
    churn_schedule,
    random_world,
)


def _make_engine(built: BuiltWorld) -> CloakingEngine | P2PCloakingSession:
    world = built.world
    if world.churn_moves:
        # The churn runtime patches the engine's graph in place; each
        # serving pass gets its own copy so built.graph stays the
        # pristine t=0 graph the differential invariants compare against.
        return CloakingEngine(
            built.dataset,
            built.graph.copy(),
            built.config,
            mode=world.mode,
            policy=world.policy,
        )
    if world.faulty:
        # Fault worlds run the message-level session itself, with the
        # reliability policy on and the world's failure plan injected.
        return P2PCloakingSession.bootstrapped(
            built.dataset,
            built.graph,
            built.config,
            network=PeerNetwork(
                FailurePlan(
                    world.drop_probability, crashed=world.crashed, seed=world.seed
                )
            ),
            policy_name=world.policy,
            reliability=ReliabilityPolicy(),
        )
    return CloakingEngine(
        built.dataset, built.graph, built.config, mode=world.mode, policy=world.policy
    )


def _request_loop(
    server: CloakingEngine | P2PCloakingSession, hosts: Sequence[int]
) -> List[RequestRecord]:
    """Serve ``hosts`` in order, recording results and typed failures.

    A session's results are recorded in the engine's result shape, the
    one every invariant reads.
    """
    if isinstance(server, P2PCloakingSession):
        registry = server.registry

        def serve(host: int) -> CloakingResult:
            wire = server.request(host)
            return CloakingResult(
                host=wire.host,
                region=wire.region,
                cluster=wire.cluster,
                clustering_messages=wire.clustering_messages,
                bounding_messages=wire.bounding_messages,
                region_from_cache=wire.region_from_cache,
            )
    else:
        registry = server.clustering.registry
        serve = server.request
    records: List[RequestRecord] = []
    recording = obs.enabled()
    for host in hosts:
        record = RequestRecord(
            host=host, assigned_before=frozenset(registry.assigned_view())
        )
        if recording:
            obs.inc(metric.VERIFY_REQUESTS)
        try:
            record.result = serve(host)
        except ClusteringError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            record.error_kind = "clustering"
        except ProtocolAbort as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            record.error_kind = "abort"
        except Exception as exc:  # anything else is itself a finding
            record.error = f"{type(exc).__name__}: {exc}"
            record.error_kind = "unexpected"
        if record.error is not None and recording:
            obs.inc(metric.VERIFY_CLEAN_FAILURES)
        records.append(record)
    return records


def _serve(
    built: BuiltWorld,
) -> tuple[
    CloakingEngine | P2PCloakingSession,
    List[RequestRecord],
    Optional[ChurnObservation],
]:
    """One full pass over the world's request sequence (plus churn).

    Churn worlds continue after the first pass: the seeded movement
    schedule streams through ``engine.apply_moves`` and the same hosts
    are served again from the incrementally-patched world — the
    ``churn-incremental-equal`` invariant then compares that world
    against a from-scratch rebuild.
    """
    engine = _make_engine(built)
    records = _request_loop(engine, built.hosts)
    churn: Optional[ChurnObservation] = None
    if built.world.churn_moves:
        moves_applied = 0
        for batch in churn_schedule(built.world):
            engine.apply_moves(batch)
            moves_applied += len(batch)
        churn = ChurnObservation(
            final_points=engine.dataset.points,
            moves_applied=moves_applied,
            post_records=_request_loop(engine, built.hosts),
        )
    return engine, records, churn


def _serve_tree(built: BuiltWorld) -> TreeObservation:
    """Serve the world twice more: cluster-tree fast path vs its reference.

    Runs independently of the world's own mode: both engines use the
    distributed closure reading of Algorithm 2 — one resolved on the
    persistent cluster tree, one by Prim spans and t-floods — over
    private graph copies, so churn worlds patch the tree incrementally
    while the pristine ``built.graph`` stays untouched.  The
    ``cluster-tree-equal`` invariant compares the record streams.
    """
    world = built.world
    tree_engine = CloakingEngine(
        built.dataset,
        built.graph.copy(),
        built.config,
        policy=world.policy,
        clustering="tree",
    )
    reference_graph = built.graph.copy()
    reference = CloakingEngine(
        built.dataset,
        reference_graph,
        built.config,
        policy=world.policy,
        clustering=DistributedClustering(
            reference_graph, built.config.k, closure=True
        ),
    )
    observation = TreeObservation(
        engine=tree_engine,
        reference=reference,
        records=_request_loop(tree_engine, built.hosts),
        reference_records=_request_loop(reference, built.hosts),
    )
    if world.churn_moves:
        for batch in churn_schedule(world):
            tree_engine.apply_moves(batch)
            reference.apply_moves(batch)
        observation.post_records = _request_loop(tree_engine, built.hosts)
        observation.reference_post_records = _request_loop(
            reference, built.hosts
        )
    return observation


#: Flight-recorder capacity for fuzzed worlds: far above any world's
#: event volume, so an overflow inside a run is itself a finding.
_FUZZ_FLIGHT_CAPACITY = 1 << 20


def _serve_p2p(built: BuiltWorld) -> P2PObservation:
    """Replay the same request sequence message-level, with a wire tap.

    A fresh flight recorder is active for the whole pass; the
    ``trace-ledger-agree`` invariant reconciles its event stream against
    the network counters and every device's disclosure ledger.
    """
    network = PeerNetwork()
    devices = populate_network(network, built.graph, list(built.dataset.points))
    recorder = TranscriptRecorder()
    recorder.tap_network(network, devices)
    session = P2PCloakingSession(
        network,
        built.graph,
        built.dataset,
        built.config,
        policy_name=built.world.policy,
    )
    analytic_engine = CloakingEngine(
        built.dataset,
        built.graph,
        built.config,
        mode="distributed",
        policy=built.world.policy,
    )
    flight = _trace.install_recorder(
        _trace.FlightRecorder(capacity=_FUZZ_FLIGHT_CAPACITY)
    )
    observation = P2PObservation(
        results=[],
        recorder=recorder,
        devices=devices,
        analytic=[],
        flight=flight,
        network=network,
    )
    try:
        for host in built.hosts:
            wire = wire_error = None
            analytic = analytic_error = None
            try:
                wire = session.request(host)
            except ClusteringError as exc:
                wire_error = str(exc)
            try:
                analytic = analytic_engine.request(host)
            except ClusteringError as exc:
                analytic_error = str(exc)
            if (wire is None) != (analytic is None):
                observation.mismatches.append(
                    f"host {host}: wire "
                    f"{'failed: ' + str(wire_error) if wire is None else 'succeeded'}"
                    f", analytic "
                    f"{'failed: ' + str(analytic_error) if analytic is None else 'succeeded'}"
                )
                continue
            if wire is not None and analytic is not None:
                observation.results.append(wire)
                observation.analytic.append(analytic)
    finally:
        _trace.uninstall_recorder()
    return observation


def run_world(world: World) -> WorldRun:
    """Build and serve one world, twice (determinism), plus p2p replay.

    The first serving pass runs under a fresh flight recorder (stashed on
    the :class:`WorldRun` for ``trace-ledger-agree``); the determinism
    replay runs without one, so it also witnesses that recording does not
    change results.
    """
    built = build_world(world)
    with obs.span(metric.SPAN_VERIFY_WORLD):
        flight = _trace.install_recorder(
            _trace.FlightRecorder(capacity=_FUZZ_FLIGHT_CAPACITY)
        )
        try:
            engine, records, churn = _serve(built)
        finally:
            _trace.uninstall_recorder()
        _replay_engine, replay_records, _replay_churn = _serve(built)
        tree = _serve_tree(built)
        p2p = None
        if world.p2p:
            if obs.enabled():
                obs.inc(metric.VERIFY_P2P_WORLDS)
            p2p = _serve_p2p(built)
    if obs.enabled():
        obs.inc(metric.VERIFY_WORLDS)
    session = engine if isinstance(engine, P2PCloakingSession) else None
    return WorldRun(
        built=built,
        engine=None if session is not None else engine,
        session=session,
        records=records,
        replay_records=replay_records,
        p2p=p2p,
        churn=churn,
        tree=tree,
        flight=flight,
    )


def _dump_repro(
    directory: Path, world: World, violations: List[Violation]
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"world-{world.seed}.json"
    payload = {
        "world": world.to_dict(),
        "violations": [
            {"invariant": v.invariant, "detail": v.detail} for v in violations
        ],
        "replay": (
            f"python -m repro.verify.fuzz --replay {path}"
        ),
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def fuzz(
    worlds: int,
    seed: int,
    repro_dir: Path,
    invariants: Optional[List[str]] = None,
    verbose: bool = False,
    replay_worlds: Optional[List[World]] = None,
) -> int:
    """Run the fuzzer; returns the number of failing worlds."""
    if not obs.enabled():
        obs.enable()
    failures = 0
    checked = 0
    per_invariant: dict[str, int] = {}
    pool = (
        replay_worlds
        if replay_worlds is not None
        else [random_world(seed + i) for i in range(worlds)]
    )
    for world in pool:
        run = run_world(world)
        violations = check_world(run, names=invariants)
        checked += 1
        if verbose:
            served = sum(1 for r in run.records if r.result is not None)
            print(
                f"world seed={world.seed} kind={world.kind} n={world.n} "
                f"k={world.k} policy={world.policy} served={served}/"
                f"{len(run.records)}"
                + (" [p2p]" if world.p2p else "")
                + (" [faults]" if world.faulty else "")
                + (f" [churn={world.churn_moves}]" if world.churn_moves else "")
            )
        if violations:
            failures += 1
            path = _dump_repro(repro_dir, world, violations)
            print(f"FAIL world seed={world.seed}: repro written to {path}")
            for violation in violations:
                per_invariant[violation.invariant] = (
                    per_invariant.get(violation.invariant, 0) + 1
                )
                print(f"  [{violation.invariant}] {violation.detail}")
    checked_names = (
        invariants if invariants is not None else registered_invariants()
    )
    print(
        f"fuzz: {checked} worlds, {len(checked_names)} invariants, "
        f"{failures} failing world(s)"
    )
    if per_invariant:
        for name, count in sorted(per_invariant.items()):
            print(f"  {name}: {count} violation(s)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="Seed-replay invariant fuzzer over end-to-end worlds.",
    )
    parser.add_argument(
        "--worlds", type=int, default=50, help="number of worlds to run"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the first world"
    )
    parser.add_argument(
        "--repro-dir",
        type=Path,
        default=Path("fuzz-failures"),
        help="directory for failing-world JSON repros",
    )
    parser.add_argument(
        "--invariant",
        action="append",
        dest="invariants",
        metavar="NAME",
        help="check only this invariant (repeatable)",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        help="replay one failing-world JSON repro instead of fuzzing",
    )
    parser.add_argument(
        "--list-invariants",
        action="store_true",
        help="print the registered invariants and exit",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_invariants:
        for name in registered_invariants():
            print(name)
        return 0
    if args.invariants:
        unknown = set(args.invariants) - set(registered_invariants())
        if unknown:
            parser.error(f"unknown invariant(s): {sorted(unknown)}")
    replay_worlds = None
    if args.replay is not None:
        payload = json.loads(args.replay.read_text())
        replay_worlds = [World.from_dict(payload["world"])]
    failures = fuzz(
        worlds=args.worlds,
        seed=args.seed,
        repro_dir=args.repro_dir,
        invariants=args.invariants,
        verbose=args.verbose,
        replay_worlds=replay_worlds,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
