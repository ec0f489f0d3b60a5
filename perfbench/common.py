"""Shared pieces of the benchmark: workload shapes, input generation,
sample statistics and the per-seed determinism record.

Everything here builds inputs through the program's public modules
(datasets, mobility, WPG builder); the program itself only ever sees
the generated populations, move batches and host lists.

The map — the California-like population and the POI set — is fixed;
the workload seed draws everything that happens on it: each walker's
waypoints and speed, who moves in each tick, and who requests.  With
the map drawn from the seed too, request latency swung by up to a
third between seeds (the cities land in different places), which no
bound of a quarter can absorb.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.california import california_like_poi
from repro.experiments.workloads import clusterable_users
from repro.mobility.waypoint import RandomWaypointModel
from repro.server import POIDatabase

PAPER_USERS = 104_770
PAPER_DELTA = 2e-3
MAX_PEERS = 10
#: Seed of the fixed map (``bench_churn``'s default population seed).
MAP_SEED = 3
#: POIs in the LBS server's database.
POIS = 20_000

#: Where runs leave their records, traces and determinism fingerprints.
OUT_DIR = Path(__file__).resolve().parent / "out"


def scaled_delta(users: int) -> float:
    """The paper's radio range, scaled to keep the WPG's density."""
    return PAPER_DELTA * (PAPER_USERS / users) ** 0.5


@dataclass(frozen=True)
class Shape:
    """The fixed size of one workload.

    ``ticks_per_second`` converts ``--seconds`` into a fixed number of
    ticks, so one seed always does exactly the same work (and every
    deterministic count repeats); it is calibrated so that a run's timed
    work lasts about ``--seconds`` at reference speed.
    """

    users: int
    movers: int
    requests: int
    ticks_per_second: float
    delta_scale: float = 1.0
    k: int | None = None
    batch: int = 0
    setups: int = 3

    @property
    def delta(self) -> float:
        return scaled_delta(self.users) * self.delta_scale

    def ticks(self, seconds: int) -> int:
        return max(4, round(seconds * self.ticks_per_second))


def population(users: int):
    """The user population every workload starts from."""
    return california_like_poi(users, seed=MAP_SEED)


def poi_database() -> POIDatabase:
    """The LBS server's fixed POI set.

    Drawn from the map's own seed, so the POIs crowd the same urban
    centres as the users.
    """
    return POIDatabase(california_like_poi(POIS, seed=MAP_SEED))


def move_schedule(dataset, ticks: int, movers: int, delta: float, seed: int):
    """Per-tick random-waypoint move batches (``bench_churn``'s generator)."""
    walkers = RandomWaypointModel(
        dataset, min_speed=delta, max_speed=10 * delta, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    n = len(dataset)
    return [
        walkers.step_subset(np.sort(rng.choice(n, size=movers, replace=False)))
        for _ in range(ticks)
    ]


def uniform_hosts(graph, k: int, ticks: int, per_tick: int, seed: int):
    """Per-tick hosts drawn uniformly, with repeats, from the t=0
    clusterable pool."""
    pool = clusterable_users(graph, k)
    rng = np.random.default_rng(seed + 2)
    return [
        [int(h) for h in rng.choice(pool, size=per_tick, replace=True)]
        for _ in range(ticks)
    ]


# -- sample statistics ---------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100)."""
    ranked = sorted(values)
    index = max(0, math.ceil(q / 100.0 * len(ranked)) - 1)
    return ranked[index]


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond it)``.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        beyond = n - math.ceil(q / 100.0 * n)
        if beyond >= 10:
            return percentile(values, q), q, beyond
    return max(values), 100.0, 0


class Samples:
    """Timed samples, each kept raw and drift-normalised."""

    def __init__(self) -> None:
        self.series: dict[str, list[float]] = {"raw": [], "norm": []}

    def add(self, seconds: float, factor: float) -> None:
        self.series["raw"].append(seconds)
        self.series["norm"].append(seconds * factor)

    def __len__(self) -> int:
        return len(self.series["raw"])


# -- determinism record ----------------------------------------------------------

BENCH_DIR = Path(__file__).resolve().parent
#: The code whose behaviour the deterministic values record: the program
#: under test and the benchmark's own input and counting code.
SOURCES = (BENCH_DIR.parent / "src" / "repro", BENCH_DIR)


def program_digest(sources=SOURCES) -> str:
    """sha256 over every ``.py`` file under ``sources`` (names and
    contents, in sorted order; the benchmark's self-tests excluded)."""
    digest = hashlib.sha256()
    for root in sources:
        for path in sorted(Path(root).rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_fingerprint(
    workload: str,
    shape: Shape,
    seed: int,
    seconds: int,
    values: dict,
) -> list[str]:
    """Compare deterministic values with earlier runs of the same seed.

    The first run of a workload (at this shape), seed and length under
    one version of the code (:func:`program_digest`) records its values;
    every later run of the same code must reproduce each value it
    shares with the record exactly.  Changed code starts a fresh record,
    so a change that legitimately alters a count is never compared with
    the old code's values.  Returns the mismatches (empty when
    consistent) and merges new keys into the record.
    """
    folder = OUT_DIR / "fingerprints"
    folder.mkdir(parents=True, exist_ok=True)
    version = hashlib.sha256(f"{shape!r}|{program_digest()}".encode())
    path = folder / f"{workload}-{version.hexdigest()[:16]}-seed{seed}-s{seconds}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    mismatches = [
        f"{key}: recorded {known[key]!r}, this run {value!r}"
        for key, value in sorted(values.items())
        if key in known and known[key] != value
    ]
    if not mismatches:
        known.update(values)
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return mismatches
