"""Correctness checks, run outside every timed window.

Each returns a list of problems (empty when the check passes) or a
verdict, so a run can report every failure and exit nonzero.
"""

from __future__ import annotations

from repro.verify.invariants import graph_equality_details
from repro.verify.oracles import oracle_smallest_cluster


def classify_failure(graph, host: int, k: int, assigned) -> str:
    """Classify one refused request by the exact level-scan oracle.

    ``sub_k`` when no valid cluster of unassigned users exists (a clean
    refusal, the paper's Fig. 5 regime); ``defect`` when the oracle
    finds one the engine missed.
    """
    # The oracle's level components never leave the host's component
    # among unassigned users, so its answer on that induced subgraph is
    # its answer on the whole graph — at the cost of the component
    # instead of a scan of every edge.
    reach, frontier = {host}, [host]
    while frontier:
        for neighbor, _ in graph.neighbor_weights(frontier.pop()):
            if neighbor not in reach and neighbor not in assigned:
                reach.add(neighbor)
                frontier.append(neighbor)
    answer = oracle_smallest_cluster(
        graph.subgraph(reach), host, k, exclude=assigned
    )
    return "sub_k" if answer is None else "defect"


def graph_problems(final, rebuilt, label: str) -> list[str]:
    """The incrementally maintained graph must equal a from-scratch build."""
    details = graph_equality_details(final, rebuilt, label, "rebuild")
    if not details:
        return []
    return [f"{label} final graph differs from build_wpg_fast: {details[:3]}"]


def transcript_problems(service: list, replay: list) -> list[str]:
    """The service's answers must equal a single engine's replay, in order."""
    if len(service) != len(replay):
        return [
            f"service transcript has {len(service)} answers, replay {len(replay)}"
        ]
    for index, (got, want) in enumerate(zip(service, replay)):
        if got != want:
            return [
                f"service answer {index} differs from the single-engine "
                f"replay: service {got!r}, replay {want!r}"
            ]
    return []
