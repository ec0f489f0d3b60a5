"""Run a workload over several seeds and report run-to-run spread.

For every end-to-end metric this prints the median over the runs and
the spread — the distance between the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) over the median — of
the value the benchmark reports, and for timings also of the raw
wall-clock values and of both probe normalisations recorded beside
them::

    python3 perfbench/steadiness.py --workload churn-tree --seeds 1 2 3 4 5

Each run is a separate ``run.py`` process, exactly as the benchmark is
invoked; a run that fails or reports ``correct: false`` stops the study.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    records = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(done.stderr, file=sys.stderr)
            return 1
        path = BENCH / "out" / f"{args.workload}-seed{seed}-s{args.seconds}-trace0.json"
        records.append(json.loads(path.read_text())["end_to_end"])
        print(f"seed {seed}: " + ", ".join(
            f"{m['name']}={records[-1][m['name']]['value']:.4g}" for m in SPEC["end_to_end"]
        ), flush=True)
    kinds = ("raw", "norm")
    print(
        f"\n| {args.workload} | median | spread | "
        + " | ".join(f"spread ({kind})" for kind in kinds) + " | bound |"
    )
    print("|---" * (4 + len(kinds)) + "|")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r[name]["value"] for r in records]
        cells = [
            f"{spread([r[name][kind] for r in records]):.3f}" if kind in records[0][name]
            else "-"
            for kind in kinds
        ]
        print(
            f"| {name} | {statistics.median(values):.4g} | {spread(values):.3f} | "
            + " | ".join(cells) + f" | {metric['bound']} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
