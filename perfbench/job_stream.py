"""``job-stream``: burst-storm traces through hardened deployments.

A pass replays :data:`STREAMS` seeded storm traces of unit jobs from the
paper tool mix, each open-loop on the virtual clock against its own
``build_deployment(overload=True)`` with the ``burst-storm`` fault plan
armed.  Jobs launch at their arrival instants and finish when their
virtual duration elapses, so bursts stack up in the bounded destination
queues.  Bonito is pinned to the ``docker_dynamic`` destination so
container command assembly is on the path.  Tool bodies are stubbed: the
Galaxy path, mapper probes, gpusim process tables, the monitor and the
resilience layer do all the work.

The replay loop calls ``app.submit`` -> ``app.map_destination`` ->
``runner.launch`` (walking degrade arms on ``RejectedBusy``, then holding
the job under backpressure) -> ``runner.finish`` itself and times each
call, so a job's latency is the host time of its own calls, at the
reference speed (see ``speed.py``).
"""

from __future__ import annotations

import hashlib
import heapq
import random

from repro.core.orchestrator import build_deployment
from repro.galaxy.app import ToolExecutionResult
from repro.galaxy.job import JobState
from repro.galaxy.runners.base import is_transient_launch_error
from repro.gpusim.faults import build_scenario
from repro.resilience.shedding import RejectedBusy, ShedReason
from repro.tools.executors import register_paper_tools
from repro.workloads.storm import generate_storm_trace

from instrument import deployment_counts, instrument_deployment
from outcome import PassOutcome

#: Jobs per stream: enough for the process-table history to cost, and
#: for 20 samples to lie beyond a stream's p99.
JOBS = 2000
#: Independent streams per pass.  The brownout ladder makes how many
#: jobs reach a GPU (and so the history cost, which sets the p99) swing
#: between traces, so a pass replays several and a run is steady across
#: seeds.
STREAMS = 4

_SHED_REASONS = frozenset(reason.value for reason in ShedReason)


def _stub_executor(argv, ctx) -> ToolExecutionResult:
    return ToolExecutionResult(stdout="job-stream stub")


class Stream:
    def __init__(self, seed: int) -> None:
        self.deployment = build_deployment(overload=True)
        app = self.deployment.app
        register_paper_tools(app)
        for name in list(app.executors):
            app.register_executor(name, _stub_executor)
        self.deployment.route_tool_to("bonito", "docker_dynamic")
        self.deployment.inject(build_scenario("burst-storm", seed=seed))
        self.trace = generate_storm_trace(JOBS, seed=seed)


def setup(seed: int, clock) -> list[Stream]:
    rng = random.Random(seed)
    return [Stream(rng.randrange(2**31)) for _ in range(STREAMS)]


def run_pass(streams: list[Stream], meter, rec=None) -> PassOutcome:
    timed = [_replay(stream, k * JOBS, meter.now, rec)
             for k, stream in enumerate(streams)]
    to_reference = meter.reference()
    replays = [replay for replay, _, _ in timed]
    layers: dict[str, float] = {}
    for replay in replays:
        for key, value in replay.layers.items():
            layers[key] = layers.get(key, 0) + value
    return PassOutcome(
        seconds=sum(to_reference(end) - to_reference(start)
                    for _, _, (start, end) in timed),
        jobs=sum(r.jobs for r in replays),
        latencies_ms=[
            1e3 * sum(to_reference(b) - to_reference(a) for a, b in job_calls)
            for _, calls, _ in timed for job_calls in calls.values()
        ],
        failed=sum(r.failed for r in replays),
        checks={
            name: all(r.checks[name] for r in replays)
            for name in replays[0].checks
        },
        digests={"ledger-and-states": hashlib.sha256(
            " ".join(r.digests["stream"] for r in replays).encode()
        ).hexdigest()},
        layers=layers,
    )


def _replay(stream: Stream, first: int, perf, rec):
    """Replay one stream; span requests count from ``first``.

    Returns the stream's outcome (its times left at zero), each job's
    timed calls as (start, end) readings of ``perf``, keyed by job id in
    arrival order, and the (start, end) readings of the replay.
    """
    deployment = stream.deployment
    app = deployment.app
    overload = app.overload
    clock = deployment.clock
    if rec is not None:
        instrument_deployment(deployment, rec)
    calls: dict[int, list[tuple[float, float]]] = {}
    # (end_time, seq, runner, handle); seq breaks end-time ties in
    # launch order.
    running: list[tuple] = []
    stats = {"attempts": 0, "accepted": 0, "rejects": 0, "redirects": 0}
    admitted: list = []
    jobs: list = []

    def finish_due(now: float) -> None:
        while running and running[0][0] <= now:
            end, index, runner, handle = heapq.heappop(running)
            if rec is not None:
                waiting, rec.request = rec.request, first + index
            if clock.now < end:
                clock.advance_to(end)
            t = perf()
            runner.finish(handle)
            calls[handle.job.job_id].append((t, perf()))
            if rec is not None:
                rec.request = waiting

    def launch(job, destination):
        """Launch along degrade arms, then under backpressure."""
        target, seen = destination, {destination.destination_id}
        attempt = 1
        while True:
            runner = app.runner_for(target)
            breaker = runner.launch_breaker
            if breaker is not None and not breaker.allows():
                overload.shed(job, ShedReason.BREAKER_OPEN)
                return None, None
            stats["attempts"] += 1
            t = perf()
            try:
                handle = runner.launch(job, target)
            except RejectedBusy:
                calls[job.job_id].append((t, perf()))
                stats["rejects"] += 1
                next_id = target.resubmit_destination
                if next_id is not None and next_id not in seen:
                    target = app.job_config.destination(next_id)
                    seen.add(next_id)
                    overload.record_redirect()
                    stats["redirects"] += 1
                    continue
                if overload.expired(job):
                    overload.shed(job, ShedReason.DEADLINE_EXPIRED)
                    return None, None
                if not running:
                    overload.shed(job, ShedReason.QUEUE_FULL)
                    return None, None
                finish_due(running[0][0])
                target, seen = destination, {destination.destination_id}
                continue
            except Exception as exc:
                calls[job.job_id].append((t, perf()))
                if not is_transient_launch_error(exc) or job.is_terminal:
                    raise
                if breaker is not None:
                    breaker.record_failure()
                policy = runner.launch_retry
                if policy is None or attempt >= policy.max_attempts:
                    if job.state is JobState.NEW:
                        job.transition(JobState.QUEUED, clock.now)
                    job.fail(f"launch failed: {exc}", clock.now)
                    overload.release(job)
                    return None, None
                clock.advance(policy.delay_for(attempt))
                attempt += 1
                continue
            calls[job.job_id].append((t, perf()))
            stats["accepted"] += 1
            if breaker is not None:
                breaker.record_success()
            return handle, target

    start = perf()
    for index, entry in enumerate(stream.trace.entries):
        if rec is not None:
            rec.request = first + index
        finish_due(entry.arrival_time)
        if clock.now < entry.arrival_time:
            clock.advance_to(entry.arrival_time)
        t = perf()
        job = app.submit(entry.tool_id, {"workload": "unit"})
        calls[job.job_id] = [(t, perf())]
        jobs.append(job)
        if overload.should_shed(entry.tool_id):
            overload.shed(job, ShedReason.BROWNOUT_SHED, note=entry.tool_id)
            continue
        t = perf()
        destination = app.map_destination(job)
        calls[job.job_id].append((t, perf()))
        if job.metrics.deadline is None:
            job.metrics.deadline = overload.deadline_for(
                destination, job.metrics.submit_time
            )
        handle, destination = launch(job, destination)
        if handle is None:
            continue
        admitted.append(job)
        heapq.heappush(
            running,
            (clock.now + entry.duration, index, app.runner_for(destination),
             handle),
        )
    if rec is not None:
        rec.request = None
    finish_due(float("inf"))
    end = perf()

    ok = sum(1 for job in jobs if job.state is JobState.OK)
    errored = sum(1 for job in jobs if job.state is JobState.ERROR)
    shed = [job for job in jobs if job.metrics.shed_reason is not None]
    lost = sum(1 for job in admitted if job.state is not JobState.OK)
    checks = {
        "ledger_balances": len(stream.trace.entries) == ok + len(shed) + errored,
        "all_terminal": all(job.is_terminal for job in jobs),
        "no_admitted_job_lost": lost == 0,
        "sheds_typed": all(
            job.metrics.shed_reason in _SHED_REASONS
            and job.state is JobState.DELETED
            for job in shed
        ),
    }
    counts = deployment_counts(deployment, [job.job_id for job in jobs])
    counts.update({
        "resilience.admit_rejects": stats["rejects"],
        "resilience.redirects": stats["redirects"],
        "galaxy.runners.launch_attempts": stats["attempts"],
        "galaxy.runners.launch_accepts": stats["accepted"],
    })
    return PassOutcome(
        seconds=0.0,
        jobs=len(jobs),
        latencies_ms=[],
        failed=len(jobs) - ok - len(shed),
        checks=checks,
        digests={"stream": _digest(jobs, clock.now, ok, shed, errored)},
        layers=counts,
    ), calls, (start, end)


def _digest(jobs, end_time: float, ok: int, shed: list, errored: int) -> str:
    """SHA-256 of the ledger plus every job's final state and placement.

    Job ids are process-global, so jobs are keyed by arrival index.
    """
    by_reason: dict[str, int] = {}
    for job in shed:
        by_reason[job.metrics.shed_reason] = (
            by_reason.get(job.metrics.shed_reason, 0) + 1
        )
    lines = [
        f"arrived={len(jobs)} ok={ok} errored={errored} "
        f"shed={sorted(by_reason.items())} end={end_time!r}"
    ]
    for index, job in enumerate(jobs):
        m = job.metrics
        lines.append(
            f"{index} {job.tool.tool_id} {job.state.value} {m.destination_id} "
            f"{','.join(m.gpu_ids)} {m.container} {m.shed_reason} "
            f"{m.submit_time!r} {m.start_time!r} {m.end_time!r}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()

