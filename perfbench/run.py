"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn-distributed --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` every end-to-end metric, with ``--trace 1`` every
per-layer metric.  Each run also writes a full record (raw and
drift-normalised values, counts, checks) to ``perfbench/out/``.  The
exit code is nonzero when any correctness check fails; no result line
is printed when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("churn-distributed", "churn-tree", "service-2shard")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _terminate(signum, frame):
    # Unwind through every ``finally`` so a started service is stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program under test (src/repro) is not in {ROOT}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "service-2shard":
        import service_bench as bench
    else:
        import engine_bench as bench
    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.finish()
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
