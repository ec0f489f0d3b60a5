"""The speed probe stands apart from the program it normalises."""

import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

from probe import SpeedProbe

BENCH = Path(__file__).resolve().parent.parent


def test_probe_imports_nothing_from_repro():
    tree = ast.parse((BENCH / "probe.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys; import probe; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        cwd=BENCH, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "[]"


# A second probe in a fresh process, read in strict alternation with the
# one under test on the same CPU: both see the same host speed at the
# same moment, so their ratio cancels the host's drift (which can reach
# 2x in seconds).
_CONTROL = """
import os, sys
from probe import SpeedProbe
os.sched_setaffinity(0, {int(sys.argv[1])})
probe = SpeedProbe()
for _ in sys.stdin:
    print(probe.measure(), flush=True)
"""


def _paired_ratio(probe: SpeedProbe, control, count: int = 30) -> float:
    ratios = []
    for _ in range(count):
        mine = probe.measure()
        control.stdin.write("x\n")
        control.stdin.flush()
        ratios.append(mine / float(control.stdout.readline()))
    return statistics.median(ratios)


def test_probe_timing_unmoved_by_a_live_50k_engine():
    from repro.cloaking.engine import CloakingEngine
    from repro.config import SimulationConfig
    from repro.graph.build import build_wpg_fast

    from common import population, scaled_delta

    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    control = subprocess.Popen(
        [sys.executable, "-c", _CONTROL, str(cpu)], cwd=BENCH,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    os.sched_setaffinity(0, {cpu})
    try:
        probe = SpeedProbe()
        _paired_ratio(probe, control, 5)  # warm both
        before = _paired_ratio(probe, control)
        users = 50_000
        delta = scaled_delta(users)
        base = population(users)
        engine = CloakingEngine(
            base, build_wpg_fast(base, delta, 10),
            SimulationConfig(user_count=users, delta=delta, max_peers=10),
        )
        engine.apply_moves([])
        with_engine = _paired_ratio(probe, control)
        assert engine.graph.vertex_count == users  # alive while measured
    finally:
        os.sched_setaffinity(0, cpus)
        control.stdin.close()
        control.wait(timeout=30)
    assert abs(with_engine / before - 1.0) < 0.15, (before, with_engine)


def test_probe_triggers_no_collection_with_a_large_heap():
    import gc

    heap = [[i] for i in range(200_000)]  # many tracked objects
    probe = SpeedProbe()
    collections = []
    callback = lambda phase, info: collections.append(phase)  # noqa: E731
    gc.callbacks.append(callback)
    try:
        for _ in range(10):
            probe.measure()
    finally:
        gc.callbacks.remove(callback)
    assert len(heap) == 200_000
    assert collections == []


def test_gc_state_is_restored():
    import gc

    probe = SpeedProbe()
    gc.enable()
    probe.measure()
    assert gc.isenabled()
    gc.disable()
    try:
        probe.measure()
        assert not gc.isenabled()
    finally:
        gc.enable()

