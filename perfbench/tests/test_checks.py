"""Each correctness check trips on deliberately corrupted output."""

import dataclasses

import pytest

from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.experiments.workloads import clusterable_users
from repro.graph.build import build_wpg_fast
from repro.service import outcome_of

import common
import engine_bench
import report
import service_bench
from checks import classify_failure, graph_problems, transcript_problems
from common import population, scaled_delta

USERS = 2000


@pytest.fixture(scope="module")
def world():
    delta = scaled_delta(USERS)
    base = population(USERS)
    graph = build_wpg_fast(base, delta, 10)
    config = SimulationConfig(user_count=USERS, delta=delta, max_peers=10)
    return base, graph, config


def test_graph_check_trips_on_a_missing_edge(world):
    base, graph, config = world
    rebuilt = build_wpg_fast(base, config.delta, config.max_peers)
    assert graph_problems(graph, rebuilt, "final") == []
    edge = next(iter(rebuilt.edges()))
    rebuilt.remove_edge(edge.u, edge.v)
    assert graph_problems(graph, rebuilt, "final")


def test_graph_check_trips_on_a_reweighted_edge(world):
    base, graph, config = world
    rebuilt = build_wpg_fast(base, config.delta, config.max_peers)
    edge = next(iter(rebuilt.edges()))
    rebuilt.remove_edge(edge.u, edge.v)
    rebuilt.add_edge(edge.u, edge.v, edge.weight + 1.0)
    assert graph_problems(graph, rebuilt, "final")


def test_transcript_check_trips_on_a_changed_answer(world):
    base, graph, config = world
    engine = CloakingEngine(base, graph, config)
    hosts = clusterable_users(graph, config.k)[:5]
    transcript = [outcome_of(engine, host) for host in hosts]
    copy = [dict(outcome) for outcome in transcript]
    assert transcript_problems(copy, transcript) == []
    copy[2]["members"] = copy[2]["members"][:-1]
    assert transcript_problems(copy, transcript)
    assert transcript_problems(copy[:-1], transcript)


def test_oracle_classifies_a_missed_cluster_as_defect(world):
    base, graph, config = world
    host = clusterable_users(graph, config.k)[0]
    assert classify_failure(graph, host, config.k, frozenset()) == "defect"
    assigned = set(graph.vertices()) - {host}
    assert classify_failure(graph, host, config.k, assigned) == "sub_k"


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(
        engine_bench.SHAPES, "churn-tree",
        dataclasses.replace(
            engine_bench.SHAPES["churn-tree"], users=2000, movers=20,
            requests=10, ticks_per_second=1.0, setups=1,
        ),
    )
    monkeypatch.setattr(
        service_bench, "SHAPE",
        dataclasses.replace(
            service_bench.SHAPE, users=3000, movers=20, requests=5, batch=40,
            ticks_per_second=1.0, setups=1,
        ),
    )
    for module in (common, report, service_bench):
        monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    monkeypatch.setattr(common, "POIS", 2000)


def test_run_fails_on_a_corrupted_final_graph(tiny, monkeypatch):
    real = engine_bench.build_wpg_fast
    calls = []

    def corrupting(dataset, delta, max_peers):
        graph = real(dataset, delta, max_peers)
        calls.append(graph)
        if len(calls) == 2:  # the from-scratch rebuild after the run
            edge = next(iter(graph.edges()))
            graph.remove_edge(edge.u, edge.v)
        return graph

    monkeypatch.setattr(engine_bench, "build_wpg_fast", corrupting)
    result = engine_bench.run("churn-tree", 5, 4, False).finish()
    assert len(calls) == 2
    assert not result["correct"]


def test_run_fails_on_a_corrupted_transcript(tiny, monkeypatch):
    corrupted = []

    def corrupting(engine, host):
        outcome = outcome_of(engine, host)
        if not corrupted and outcome["ok"]:
            corrupted.append(host)
            outcome = dict(outcome, anonymity=outcome["anonymity"] + 1)
        return outcome

    monkeypatch.setattr(service_bench, "outcome_of", corrupting)
    result = service_bench.run("service-2shard", 5, 4, False).finish()
    assert corrupted
    assert not result["correct"]


def test_component_restricted_oracle_agrees_with_the_full_graph(world):
    from repro.verify.oracles import oracle_smallest_cluster

    base, graph, config = world
    hosts = clusterable_users(graph, config.k)
    assigned = set(hosts[::3])
    for host in hosts[1:400:7]:
        if host in assigned:
            continue
        full = oracle_smallest_cluster(graph, host, config.k, exclude=assigned)
        verdict = classify_failure(graph, host, config.k, assigned)
        assert verdict == ("sub_k" if full is None else "defect")
