"""The runner's output matches BENCHMARK.json, and it refuses to run
without the program under test."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import engine_bench
import report
import service_bench

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "churn-distributed": dataclasses.replace(
        engine_bench.SHAPES["churn-distributed"],
        users=3000, movers=30, requests=10, ticks_per_second=1.0, setups=2,
    ),
    "churn-tree": dataclasses.replace(
        engine_bench.SHAPES["churn-tree"],
        users=2000, movers=20, requests=10, ticks_per_second=1.0, setups=2,
    ),
    "service-2shard": dataclasses.replace(
        service_bench.SHAPE,
        users=3000, movers=20, requests=5, batch=40, ticks_per_second=1.0, setups=2,
    ),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep run records out of the real ``out/``."""
    for name, shape in TINY.items():
        if name == "service-2shard":
            monkeypatch.setattr(service_bench, "SHAPE", shape)
        else:
            monkeypatch.setitem(engine_bench.SHAPES, name, shape)
    for module in (common, report, service_bench):
        monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    monkeypatch.setattr(common, "POIS", 2000)
    return tmp_path


def run(name: str, trace: bool, seed: int = 5) -> dict:
    bench = service_bench if name == "service-2shard" else engine_bench
    return bench.run(name, seed, 4, trace).finish()


def test_spec_lists_the_runner_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(report.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == [
        "churn-distributed", "churn-tree", "service-2shard"
    ]


#: Least share of the timed wall the named leaf layers must hold in a
#: traced run of the tiny worlds: grid, WPG patch, tree patch, phase 1,
#: bounding and LBS in-process; worker busy time and LBS on the service,
#: where the wire and the barrier are the remainders.  Measured: about
#: 0.98 in-process and 0.5 on the service.
NAMED_SHARE = {"churn-distributed": 0.9, "churn-tree": 0.9, "service-2shard": 0.3}


@pytest.mark.parametrize("name", sorted(TINY))
def test_runner_prints_every_metric_with_its_unit(tiny, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run(name, trace)
        assert result["correct"], name
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["trace.coverage_of_wall"] >= 0.9
    assert layers["trace.named_share_of_wall"] >= NAMED_SHARE[name]


def test_deterministic_values_repeat_and_a_mismatch_fails(tiny, monkeypatch):
    assert run("churn-tree", False)["correct"]
    assert run("churn-tree", True)["correct"]  # traced run: same counts
    record = next((tiny / "fingerprints").glob("churn-tree-*.json"))
    values = json.loads(record.read_text())
    assert "tree_components_rebuilt_traced" in values
    values["dirty_users"] += 1
    record.write_text(json.dumps(values))
    assert not run("churn-tree", False)["correct"]
    # Changed code is compared only with itself: a fresh record.
    monkeypatch.setattr(common, "program_digest", lambda: "changed code")
    assert run("churn-tree", False)["correct"]
    assert len(list((tiny / "fingerprints").glob("churn-tree-*.json"))) == 2


def test_changed_code_starts_a_fresh_determinism_record(tiny, monkeypatch):
    def record(dirty, program):
        monkeypatch.setattr(common, "program_digest", lambda: program)
        return common.check_fingerprint(
            "churn-tree", TINY["churn-tree"], 1, 4, {"dirty_users": dirty}
        )

    assert record(10, "old") == []
    assert record(11, "old")  # same code, another count: nondeterminism
    assert record(11, "new") == []
    assert record(11, "new") == []
    assert record(10, "old") == []


def test_program_digest_follows_every_source_file(tmp_path):
    package = tmp_path / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "tests").mkdir()
    (package / "a.py").write_text("x = 1\n")
    (package / "sub" / "b.py").write_text("y = 2\n")
    (package / "tests" / "test_a.py").write_text("pass\n")
    first = common.program_digest([package])
    (package / "tests" / "test_a.py").write_text("assert True\n")
    (package / "notes.txt").write_text("not code\n")
    assert common.program_digest([package]) == first
    (package / "sub" / "b.py").write_text("y = 3\n")
    changed = common.program_digest([package])
    assert changed != first
    (package / "sub" / "b.py").rename(package / "c.py")
    assert common.program_digest([package]) not in (first, changed)
    assert common.program_digest() == common.program_digest(common.SOURCES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "churn-tree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
