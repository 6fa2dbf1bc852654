"""``fleet-static-day`` and ``fleet-elastic-storm``: one diurnal day each.

Both feed a seeded ~1.1 M-job diurnal day into the columnar
:class:`~repro.cluster.fleet.FleetSimulator` over 1000 nodes x 8 GPUs.

* static: spread placement, no storm, no failures, no autoscaling — the
  fleet engine's hot loop with every elasticity feature off;
* elastic: the same day with a 4x midday burst storm, two node failures,
  benefit-aware placement and an autoscaled pool (min 250, max 1000) —
  queues, degrades, sheds, resubmits and autoscale evaluations.

The arrival batches are handed to ``run`` through a generator that reads
the clock each time the engine asks for the next batch, so each batch's
jobs get the host time of the engine step that admitted them (the drain
up to their arrival instant plus their placement).
"""

from __future__ import annotations

from repro.cluster.autoscale import AutoscalerConfig
from repro.cluster.fleet import FleetConfig, FleetSimulator, NodeFailure
from repro.workloads.diurnal import BurstStorm, DiurnalProfile, diurnal_batches

from outcome import PassOutcome

NODES = 1000
GPUS_PER_NODE = 8
JOBS = 1_100_000
STORM = BurstStorm(start=43_200.0, duration=7_200.0, multiplier=4.0)
FAILURES = (
    NodeFailure(time=44_000.0, node=0, recovery_seconds=3_600.0),
    NodeFailure(time=45_000.0, node=1, recovery_seconds=1_800.0),
)

#: Public JobStore methods the engine calls, with each call's row count.
JOBSTORE_METHODS = {
    "append_batch": lambda args: args[0],
    "start_range": lambda args: args[1] - args[0],
    "queue_range": lambda args: args[1] - args[0],
    "complete_range": lambda args: args[1] - args[0],
    "shed_range": lambda args: args[1] - args[0],
    "fail_range": lambda args: args[1] - args[0],
    "resubmit_range": lambda args: args[1] - args[0],
}


class Context:
    def __init__(self, config, tools, batches, batches_span) -> None:
        self.config = config
        self.tools = tools
        self.batches = batches
        #: Clock readings before and after the batches were built.
        self.batches_span = batches_span


class FleetDay:
    """One fleet workload; ``elastic`` selects the storm-day variant."""

    def __init__(self, elastic: bool) -> None:
        self.elastic = elastic

    def setup(self, seed: int, clock) -> Context:
        if self.elastic:
            profile = DiurnalProfile(seed=seed, storms=(STORM,))
            config = FleetConfig(
                nodes=NODES, gpus_per_node=GPUS_PER_NODE,
                placement="benefit-aware", failures=FAILURES,
                autoscale=AutoscalerConfig(min_nodes=250, max_nodes=NODES),
            )
        else:
            profile = DiurnalProfile(seed=seed)
            config = FleetConfig(nodes=NODES, gpus_per_node=GPUS_PER_NODE)
        profile = profile.scaled_to(JOBS)
        start = clock()
        batches = diurnal_batches(profile)
        return Context(config, profile.tools, batches, (start, clock()))

    def run_pass(self, ctx: Context, meter, rec=None) -> PassOutcome:
        perf = meter.now
        marks: list[float] = []
        counts: list[int] = []

        def feed():
            marks.append(perf())
            for batch in ctx.batches:
                yield batch
                marks.append(perf())
                counts.append(batch.count)

        start = perf()
        simulator = FleetSimulator(ctx.config, ctx.tools)
        if rec is not None:
            for method, rows in JOBSTORE_METHODS.items():
                rec.wrap_method(simulator.store, method, "cluster.jobstore",
                                rows)
            # The autoscale controller is reachable only through this
            # private attribute (None on a static fleet).
            if simulator._controller is not None:
                rec.wrap_method(simulator._controller, "evaluate",
                                "cluster.autoscale.evaluate")
            result = rec.time_call("cluster.fleet.run", simulator.run, feed())
        else:
            result = simulator.run(feed())
        end = perf()
        to_reference = meter.reference()
        marks = [to_reference(mark) for mark in marks]
        batches_start, batches_end = map(to_reference, ctx.batches_span)

        shed = sum(result.shed.values())
        checks = {
            # FleetSimulator already raises on an unbalanced ledger (an
            # exception fails the pass); the check states the contract.
            "ledger_balances":
                result.jobs_submitted == result.completed + shed + result.failed,
            "pool_scaled_only_if_elastic":
                (result.scale_ups > 0) == self.elastic,
        }
        layers = {
            "workloads.diurnal.batches_s": batches_end - batches_start,
            "cluster.fleet.mapping_decisions": result.mapping_decisions,
            "cluster.fleet.degraded": result.degraded,
            "cluster.fleet.queued": result.queued,
            "cluster.fleet.resubmitted": result.resubmitted,
            "cluster.fleet.shed": shed,
            "cluster.fleet.scale_ups": result.scale_ups,
            "cluster.fleet.scale_downs": result.scale_downs,
            "cluster.fleet.node_seconds": result.node_seconds,
            "cluster.fleet.decisions_per_job":
                result.mapping_decisions / result.jobs_submitted,
            # The timeline opens with the starting pool and gains one
            # entry per autoscale evaluation.
            "cluster.autoscale.evaluations": len(result.pool_timeline) - 1,
        }
        return PassOutcome(
            seconds=to_reference(end) - to_reference(start),
            jobs=result.jobs_submitted,
            latencies_ms=[(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
            weights=counts,
            failed=result.failed,
            checks=checks,
            digests={"store": result.store_digest},
            layers=layers,
        )


STATIC = FleetDay(elastic=False)
ELASTIC = FleetDay(elastic=True)
