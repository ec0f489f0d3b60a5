"""One run's results: metrics, the per-run record, and the result line.

Every timing enters twice — raw and drift-normalised — and the record
written to ``out/`` keeps both; the result line carries the normalised
values.  Every per-layer metric is present on every workload; a layer a
workload never calls reads 0.
"""

from __future__ import annotations

import json
import statistics
import time

from common import OUT_DIR, Samples, check_fingerprint, tail
from probe import REFERENCE_S, factor

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("tick_p50_ms", "ms"),
    ("moves_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("request_cost_msgs", "msgs"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER = (
    ("cloaking.failure_rate", "ratio"),
    ("spatial.grid_ms_per_tick", "ms"),
    ("graph.wpg_patch_ms_per_tick", "ms"),
    ("graph.dirty_users_per_tick", "count"),
    ("graph.edges_changed_per_tick", "count"),
    ("graph.edges_changed_per_dirty_user", "ratio"),
    ("clustering.tree_patch_ms_per_tick", "ms"),
    ("clustering.tree_components_rebuilt_per_tick", "count"),
    ("cloaking.churn_self_ms_per_tick", "ms"),
    ("cloaking.regions_invalidated_per_tick", "count"),
    ("clustering.phase1_ms_per_request", "ms"),
    ("clustering.involved_users_per_request", "count"),
    ("clustering.cache_hit_rate", "ratio"),
    ("bounding.ms_per_run", "ms"),
    ("bounding.messages_per_run", "msgs"),
    ("cloaking.region_cache_hit_rate", "ratio"),
    ("cloaking.request_self_ms", "ms"),
    ("server.lbs_ms_per_request", "ms"),
    ("server.candidates_per_request", "count"),
    ("service.worker_busy_ms_per_request", "ms"),
    ("service.wire_ms_per_request", "ms"),
    ("service.worker_busy_imbalance", "ratio"),
    ("service.worker_churn_ms_per_tick", "ms"),
    ("service.barrier_ms_per_tick", "ms"),
    ("service.synced_clusters_per_tick", "count"),
    ("service.rerouted_users_per_tick", "count"),
    ("service.halo_refreshes_per_tick", "count"),
    ("trace.coverage_of_wall", "ratio"),
    ("trace.named_share_of_wall", "ratio"),
    ("trace.overhead", "ratio"),
)


class Report:
    def __init__(
        self, workload: str, shape, seed: int, seconds: int, trace: bool
    ) -> None:
        self.workload = workload
        self.shape = shape
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup = Samples()
        self.end_to_end: dict[str, dict] = {}
        self.layer: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.deterministic: dict[str, object] = {}
        self.problems: list[str] = []
        self.trace_summary: dict = {}
        self.attempted = 0
        self.failed = 0
        self.probe = None
        self.tracer = None
        self.started = time.perf_counter()
        self.samples_raw: dict[str, list[float]] = {}

    # -- filling in ----------------------------------------------------------------

    def add_setup(self, seconds: float, before: float, after: float) -> None:
        """One set-up sample, scaled by the probes taken around it."""
        self.setup.add(seconds, factor(before, after))

    def set_serving(
        self,
        ticks: Samples,
        requests: Samples,
        moved: int,
        answered: int,
        answer_samples: Samples,
        attempted: int,
        refused: int,
        cost_total: float,
        peak_rss_mb: float,
    ) -> None:
        """Derive the end-to-end metrics from the serving samples.

        ``answer_samples`` are the round trips ``requests_per_s`` divides
        ``answered`` by; ``refused`` counts every request that got no
        region (sub-k, overload, any error).
        """
        served = attempted - refused
        out = self.end_to_end
        for series in requests.series:
            req_ms = [v * 1e3 for v in requests.series[series]]
            tail_ms, q, beyond = tail(req_ms)
            values = {
                "setup_s": statistics.median(self.setup.series[series]),
                "tick_p50_ms": statistics.median(ticks.series[series]) * 1e3,
                "moves_per_s": moved / sum(ticks.series[series]),
                "request_p50_ms": statistics.median(req_ms),
                "request_tail_ms": tail_ms,
                "requests_per_s": answered / sum(answer_samples.series[series]),
            }
            for name, value in values.items():
                out.setdefault(name, {})[series] = value
        for name in values:
            out[name]["value"] = out[name]["norm"]
        out["request_tail_ms"].update(percentile=q, beyond=beyond, samples=len(req_ms))
        self.samples_raw = {
            "tick_s": ticks.series["raw"],
            "request_s": requests.series["raw"],
        }
        out["tick_p50_ms"]["samples"] = len(ticks)
        out["setup_s"]["samples"] = len(self.setup)
        out["peak_rss_mb"] = {"value": peak_rss_mb}
        out["request_cost_msgs"] = {"value": cost_total / max(1, served)}
        # An exact function of the answers, pinned per seed by the
        # determinism record; reported per layer (README, "End-to-end
        # metrics").
        self.layer["cloaking.failure_rate"] = refused / attempted

    def set_trace_summary(
        self, tracer, coverage: float, named: float, traced, untraced,
        layer_seconds, wall_seconds,
    ) -> None:
        """Coverage of the timed wall by layer self times, the share of
        it the named leaf layers hold (``named``: coverage without the
        catch-all remainders), and the tracing overhead: median traced
        tick wall (tick plus its requests) over the untraced ticks'
        median, minus 1.  Traced and untraced ticks alternate, so drift
        reaches both alike."""
        self.tracer = tracer
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        self.layer["trace.coverage_of_wall"] = coverage
        self.layer["trace.named_share_of_wall"] = named
        self.layer["trace.overhead"] = overhead
        self.trace_summary = {
            "coverage_of_wall": coverage,
            "named_share_of_wall": named,
            "overhead": overhead,
            "traced_ticks": len(traced),
            "untraced_ticks": len(untraced),
            "timed_wall_s": wall_seconds,
            "layer_self_s": layer_seconds,
        }

    # -- output ----------------------------------------------------------------------

    def finish(self) -> dict:
        """Run the determinism check, write the record, return the result."""
        mismatches = check_fingerprint(
            self.workload, self.shape, self.seed, self.seconds, self.deterministic
        )
        self.problems.extend(f"nondeterministic {m}" for m in mismatches)
        if self.trace:
            metrics = {
                name: {"value": float(self.layer.get(name, 0.0)), "unit": unit}
                for name, unit in PER_LAYER
            }
        else:
            metrics = {
                name: {"value": float(self.end_to_end[name]["value"]), "unit": unit}
                for name, unit in END_TO_END
            }
        result = {
            "correct": not self.problems,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        }
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}-s{self.seconds}-trace{int(self.trace)}"
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "run_wall_s": time.perf_counter() - self.started,
            "end_to_end": self.end_to_end,
            "per_layer": self.layer,
            "counts": self.counts,
            "deterministic": self.deterministic,
            "trace_summary": self.trace_summary,
            "samples_raw": self.samples_raw,
            "probe": {
                "reference_s": REFERENCE_S,
                "median_s": statistics.median(self.probe.samples),
                "min_s": min(self.probe.samples),
                "max_s": max(self.probe.samples),
                "samples": len(self.probe.samples),
                "readings_s": self.probe.samples,
            },
            "problems": self.problems,
            "result": result,
        }
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if self.tracer is not None:
            self.tracer.write(OUT_DIR / f"{stem}.spans.json")
        return result
