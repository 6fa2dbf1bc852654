"""The per-layer metrics of the traced run, and what each should move.

Each entry names the end-to-end metric and workload a change to that
layer should move (``target``); on every other workload the prediction
is no change.  ``value(total, own, counts, layers)`` computes the metric
for one traced pass from the recorder's inclusive (``total``) and self
(``own``) seconds per span name, its call/row ``counts``, and the
``layers`` counts the workload read from the program's own counters.
Layers a workload never reaches read 0.  Units live in
``BENCHMARK.json``; ``trace.overhead_pct`` (traced minus untraced pass
time, as a share of untraced) is computed by ``run.py``.

On paper-tools the per-pass p50 job is the middle Bonito job and the p99
job the Racon polish job, so ``job_p50_ms`` there is basecall time and
``job_p99_ms`` polish time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Top-level layers whose summed span self time is reported.
LAYERS = ("galaxy", "core", "gpusim", "resilience", "tools", "cluster")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    target: str
    value: Callable


def _span_s(span: str, self_time: bool = False, scale: float = 1.0) -> Callable:
    def value(total, own, counts, layers):
        return (own if self_time else total).get(span, 0.0) * scale
    return value


def _span_ms(span: str, self_time: bool = False) -> Callable:
    return _span_s(span, self_time, scale=1e3)


def _count(key: str) -> Callable:
    def value(total, own, counts, layers):
        return layers.get(key, 0)
    return value


def _layer_self_ms(prefix: str) -> Callable:
    def value(total, own, counts, layers):
        return sum(
            seconds for span, seconds in own.items()
            if span.split(".", 1)[0] == prefix
        ) * 1e3
    return value


def _job_overhead_ms(total, own, counts, layers):
    """run_tool minus the wrapped executors: the Galaxy + GYAN cost."""
    if "galaxy.run_tool" not in total:
        return 0.0
    return (
        total["galaxy.run_tool"]
        - total.get("tools.racon.polish", 0.0)
        - total.get("tools.bonito.basecall", 0.0)
    ) * 1e3


def _ratio(numerator: str, *denominator: str) -> Callable:
    """One count over the sum of others; 0 when nothing was counted."""
    def value(total, own, counts, layers):
        whole = sum(layers.get(key, 0) for key in denominator)
        return layers.get(numerator, 0) / whole if whole else 0.0
    return value


def _rows_per_call(total, own, counts, layers):
    calls = counts.get("cluster.jobstore.calls", 0)
    return counts.get("cluster.jobstore.rows", 0) / calls if calls else 0.0


def _calls(span: str) -> Callable:
    def value(total, own, counts, layers):
        return counts.get(span + ".calls", 0)
    return value


P50 = "job_p50_ms @ job-stream"
FLEETS = "jobs_per_s @ fleet-static-day, fleet-elastic-storm"
POLISH = "job_p99_ms, jobs_per_s @ paper-tools"
BASECALL = "job_p50_ms @ paper-tools"

METRICS: tuple[LayerMetric, ...] = (
    # -- Galaxy job path --------------------------------------------- #
    LayerMetric("galaxy.app.submit_ms", P50,
                _span_ms("galaxy.app.submit")),
    LayerMetric("galaxy.app.map_destination_ms", P50,
                _span_ms("galaxy.app.map_destination")),
    LayerMetric("galaxy.runners.launch_ms", P50,
                _span_ms("galaxy.runners.launch")),
    LayerMetric("galaxy.runners.launch_self_ms", P50,
                _span_ms("galaxy.runners.launch", self_time=True)),
    LayerMetric("galaxy.runners.finish_ms", P50,
                _span_ms("galaxy.runners.finish")),
    LayerMetric("galaxy.runners.finish_self_ms", P50,
                _span_ms("galaxy.runners.finish", self_time=True)),
    LayerMetric("galaxy.runners.launch_accept_ratio",
                "jobs_per_s @ job-stream",
                _ratio("galaxy.runners.launch_accepts",
                       "galaxy.runners.launch_attempts")),
    LayerMetric("galaxy.job_overhead_ms",
                "job_p99_ms @ paper-tools (E13: under 1% of it)",
                _job_overhead_ms),
    # -- GYAN core: mapper and monitor ------------------------------- #
    LayerMetric("core.mapper.prepare_environment_ms",
                "job_p50_ms, jobs_per_s @ job-stream",
                _span_ms("core.mapper.prepare_environment")),
    LayerMetric("core.mapper.snapshot_probes",
                "job_p50_ms, jobs_per_s @ job-stream",
                _count("core.mapper.snapshot_probes")),
    LayerMetric("core.mapper.snapshot_cache_hits",
                "job_p50_ms, jobs_per_s @ job-stream",
                _count("core.mapper.snapshot_cache_hits")),
    LayerMetric("core.mapper.probe_hit_ratio",
                "job_p50_ms, jobs_per_s @ job-stream",
                _ratio("core.mapper.snapshot_cache_hits",
                       "core.mapper.snapshot_cache_hits",
                       "core.mapper.snapshot_probes")),
    LayerMetric("core.monitor.start_stop_ms",
                "jobs_per_s @ job-stream",
                _span_ms("core.monitor.start_stop")),
    LayerMetric("core.monitor.samples",
                "jobs_per_s @ job-stream", _count("core.monitor.samples")),
    # -- gpusim ------------------------------------------------------ #
    LayerMetric("gpusim.launch_process_ms",
                "job_p99_ms @ job-stream",
                _span_ms("gpusim.launch_process")),
    LayerMetric("gpusim.terminate_process_ms",
                "job_p99_ms @ job-stream",
                _span_ms("gpusim.terminate_process")),
    LayerMetric("gpusim.clock.advance_ms",
                "job_p99_ms @ job-stream",
                _span_ms("gpusim.clock.advance")),
    LayerMetric("gpusim.kernels", POLISH,
                _count("gpusim.kernels")),
    # -- resilience and containers ----------------------------------- #
    LayerMetric("resilience.admit_ms",
                "jobs_per_s @ job-stream", _span_ms("resilience.admit")),
    LayerMetric("resilience.admit_rejects",
                "jobs_per_s @ job-stream",
                _count("resilience.admit_rejects")),
    LayerMetric("resilience.redirects",
                "jobs_per_s @ job-stream", _count("resilience.redirects")),
    *(
        LayerMetric(f"resilience.shed.{reason}",
                    "jobs_per_s @ job-stream",
                    _count(f"resilience.shed.{reason}"))
        for reason in ("queue_full", "deadline_expired",
                       "runtime_budget_exceeded", "breaker_open",
                       "brownout_shed")
    ),
    LayerMetric("containers.jobs",
                "jobs_per_s @ job-stream", _count("containers.jobs")),
    # -- tool numerics ----------------------------------------------- #
    LayerMetric("tools.mapping.map_reads_ms", POLISH,
                _span_ms("tools.mapping.map_reads")),
    LayerMetric("tools.racon.polish_ms", POLISH,
                _span_ms("tools.racon.polish")),
    LayerMetric("tools.racon.windows", POLISH,
                _count("tools.racon.windows")),
    LayerMetric("tools.racon.poa_cells", POLISH,
                _count("tools.racon.poa_cells")),
    LayerMetric("tools.racon.identity_ms", POLISH,
                _span_ms("tools.racon.identity")),
    LayerMetric("tools.racon.identity_cells", POLISH,
                _count("tools.racon.identity_cells")),
    LayerMetric("tools.bonito.basecall_ms", BASECALL,
                _span_ms("tools.bonito.basecall")),
    LayerMetric("tools.bonito.flops", BASECALL,
                _count("tools.bonito.flops")),
    LayerMetric("tools.bonito.events", BASECALL,
                _count("tools.bonito.events")),
    LayerMetric("tools.bonito.reads", BASECALL,
                _count("tools.bonito.reads")),
    # -- fleet tier -------------------------------------------------- #
    LayerMetric("workloads.diurnal.batches_s",
                "setup_s @ fleet-static-day, fleet-elastic-storm",
                _count("workloads.diurnal.batches_s")),
    LayerMetric("cluster.fleet.run_s", FLEETS,
                _span_s("cluster.fleet.run")),
    LayerMetric("cluster.fleet.self_s", FLEETS,
                _span_s("cluster.fleet.run", self_time=True)),
    LayerMetric("cluster.jobstore.s", FLEETS,
                _span_s("cluster.jobstore")),
    LayerMetric("cluster.jobstore.calls", FLEETS,
                _calls("cluster.jobstore")),
    LayerMetric("cluster.jobstore.rows_per_call", FLEETS,
                _rows_per_call),
    LayerMetric("cluster.autoscale.evaluate_s",
                "jobs_per_s @ fleet-elastic-storm (0 on fleet-static-day)",
                _span_s("cluster.autoscale.evaluate")),
    LayerMetric("cluster.autoscale.evaluations",
                "jobs_per_s @ fleet-elastic-storm (0 on fleet-static-day)",
                _count("cluster.autoscale.evaluations")),
    # Simulated statistics: identical under any speed-only change.
    *(
        LayerMetric(f"cluster.fleet.{stat}",
                    "none: simulated, must not change",
                    _count(f"cluster.fleet.{stat}"))
        for stat in (
            "mapping_decisions", "degraded", "queued", "resubmitted", "shed",
            "scale_ups", "scale_downs", "node_seconds", "decisions_per_job",
        )
    ),
    # -- where the host time went ------------------------------------ #
    *(
        LayerMetric(f"layer.{layer}.self_ms",
                    "the end-to-end metrics its spans target",
                    _layer_self_ms(layer))
        for layer in LAYERS
    ),
)
