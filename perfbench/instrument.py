"""Span wrappers and layer counts for one GYAN deployment.

Shared by the two workloads that drive a single-host deployment
(``paper-tools`` and ``job-stream``).  Every wrapper shadows a public
method on an object the deployment exposes; counts are read from the
public counters those objects already keep.
"""

from __future__ import annotations

from repro.resilience.shedding import ShedReason


def instrument_deployment(deployment, rec) -> None:
    """Wrap the Galaxy, mapper, monitor, gpusim and resilience entries."""
    app = deployment.app
    rec.wrap_method(app, "submit", "galaxy.app.submit")
    rec.wrap_method(app, "map_destination", "galaxy.app.map_destination")
    for runner in (deployment.local_runner, deployment.docker_runner,
                   deployment.singularity_runner):
        for method in ("launch", "finish"):
            rec.wrap_method(runner, method, f"galaxy.runners.{method}")
    rec.wrap_method(deployment.mapper, "prepare_environment",
                    "core.mapper.prepare_environment")
    if deployment.monitor is not None:
        rec.wrap_method(deployment.monitor, "start", "core.monitor.start_stop")
        rec.wrap_method(deployment.monitor, "stop", "core.monitor.start_stop")
    host = deployment.gpu_host
    rec.wrap_method(host, "launch_process", "gpusim.launch_process")
    rec.wrap_method(host, "terminate_process", "gpusim.terminate_process")
    clock = deployment.clock
    rec.wrap_method(clock, "advance", "gpusim.clock.advance")
    rec.wrap_method(clock, "advance_to", "gpusim.clock.advance")
    if deployment.overload is not None:
        rec.wrap_method(deployment.overload, "admit", "resilience.admit")


def deployment_counts(deployment, job_ids) -> dict[str, float]:
    """Per-layer counts the deployment's own counters hold after a pass."""
    samples = 0
    if deployment.monitor is not None:
        for job_id in job_ids:
            try:
                samples += len(deployment.monitor.session_for(job_id).samples)
            except KeyError:
                continue  # never launched (shed before a runner saw it)
    counts = {
        "core.mapper.snapshot_probes": deployment.mapper.snapshot_probes,
        "core.mapper.snapshot_cache_hits":
            deployment.mapper.snapshot_cache_hits,
        "core.monitor.samples": samples,
        "containers.jobs": len(deployment.docker_runtime.run_log)
        + len(deployment.singularity_runtime.run_log),
    }
    overload = deployment.overload
    shed = overload.shed_by_reason() if overload is not None else {}
    for reason in ShedReason:
        counts[f"resilience.shed.{reason.value}"] = shed.get(reason.value, 0)
    return counts
