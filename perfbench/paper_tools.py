"""``paper-tools``: the paper's two tools on real data, miniature scale.

One pass is the ``examples/polish_assembly.py`` and
``examples/basecall_squiggles.py`` pipelines on freshly seeded inputs,
each tool submitted through a GYAN deployment on the simulated K80:

* polish job: map reads to the draft -> Racon GPU job through
  ``run_tool`` -> polished identity against the truth;
* basecall jobs: :data:`BASECALL_JOBS` Bonito GPU payload jobs through
  ``run_tool``, each on its own squiggle reads, each scoring its own
  identity against the truth.

Tool numerics do nearly all the work here and the Galaxy path almost
none.  The jobs are the pass's latency samples: the per-pass
nearest-rank p50 is the median basecall job and the p99 the polish job,
which takes several times as long as a basecall job.
"""

from __future__ import annotations

import hashlib
import random

from repro import build_deployment, register_paper_tools
from repro.galaxy.job import JobState
from repro.gpusim.profiler import CudaProfiler
from repro.tools.bonito.signal import PoreModel, SquiggleSimulator
from repro.tools.mapping import MinimizerMapper
from repro.tools.racon.alignment import identity
from repro.tools.racon.consensus import RaconPolisher
from repro.workloads.generator import (
    corrupted_backbone,
    simulate_genome,
    simulate_read_set,
)

from instrument import deployment_counts, instrument_deployment
from outcome import PassOutcome

#: A third of the examples' 3 kb genome at 12x instead of 14x: a pass
#: then takes a few seconds, so a run holds enough fresh-process passes
#: for its medians to be steady.
GENOME_LENGTH = 1000
COVERAGE = 12
READ_LENGTH = 400
WINDOW_LENGTH = 250
SQUIGGLE_GENOME_LENGTH = 2000
SQUIGGLE_READS = 5
SQUIGGLE_READ_LENGTH = 300
BASECALL_JOBS = 5
#: Bonito's mean basecall identity must stay above this (about 0.92 on
#: the simulated pore model).
BONITO_IDENTITY_FLOOR = 0.85


class Context:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        reads_seed, draft_seed = rng.randrange(2**31), rng.randrange(2**31)
        self.read_set = simulate_read_set(
            genome_length=GENOME_LENGTH, coverage=COVERAGE,
            mean_read_length=READ_LENGTH, seed=reads_seed,
        )
        self.draft = corrupted_backbone(self.read_set, seed=draft_seed)
        self.pore = PoreModel(k=3, seed=2021)
        simulator = SquiggleSimulator(
            self.pore, samples_per_base=8, dwell_jitter=2, noise_sd_pa=1.0
        )
        self.squiggle_sets = [
            simulator.simulate_reads(
                simulate_genome(SQUIGGLE_GENOME_LENGTH,
                                seed=rng.randrange(2**31)),
                n_reads=SQUIGGLE_READS, mean_length=SQUIGGLE_READ_LENGTH,
                seed=rng.randrange(2**31),
            )
            for _ in range(BASECALL_JOBS)
        ]
        self.deployment = build_deployment()
        register_paper_tools(self.deployment.app)
        self.polished_identity = 0.0


def setup(seed: int, clock) -> Context:
    return Context(seed)


def _map_reads(draft, reads):
    return MinimizerMapper(draft, k=13, w=5).map_reads(reads)


def run_pass(ctx: Context, meter, rec=None) -> PassOutcome:
    deployment = ctx.deployment
    app = deployment.app
    truth = ctx.read_set.genome.sequence
    map_reads = _map_reads
    run_tool = deployment.run_tool
    score = identity
    if rec is not None:
        instrument_deployment(deployment, rec)
        app.profiler = CudaProfiler()
        for executable, name in (("racon_gpu", "tools.racon.polish"),
                                 ("bonito", "tools.bonito.basecall")):
            app.register_executor(
                executable, rec.wrap(name, app.executors[executable])
            )
        map_reads = rec.wrap("tools.mapping.map_reads", map_reads)
        run_tool = rec.wrap("galaxy.run_tool", run_tool)
        score = rec.wrap("tools.racon.identity", identity)
    perf = meter.now

    start = perf()
    mappings = map_reads(ctx.draft, ctx.read_set.records)
    polish_job = run_tool("racon", {
        "threads": 4, "batches": 4, "workload": "payload",
        "window_length": WINDOW_LENGTH,
        "payload": {"backbone": ctx.draft, "reads": ctx.read_set.records,
                    "mappings": mappings},
    })
    polished = polish_job.result.polished.sequence
    ctx.polished_identity = score(polished, truth)
    marks = [perf()]
    basecall_jobs = []
    for squiggles in ctx.squiggle_sets:
        basecall_jobs.append(run_tool("bonito", {
            "workload": "payload",
            "payload": {"pore": ctx.pore, "reads": squiggles},
        }))
        marks.append(perf())

    to_reference = meter.reference()
    start, *marks = map(to_reference, [start, *marks])
    jobs = (polish_job, *basecall_jobs)
    basecalls = [job.result for job in basecall_jobs]
    checks = {
        "jobs_ok": all(job.state is JobState.OK for job in jobs),
        "jobs_on_gpu": all(job.metrics.gpu_ids for job in jobs),
        "bonito_identity_above_floor": all(
            result.mean_identity > BONITO_IDENTITY_FLOOR for result in basecalls
        ),
    }
    layers = deployment_counts(deployment, [job.job_id for job in jobs])
    if rec is not None:
        windows = RaconPolisher(window_length=WINDOW_LENGTH).build_windows(
            ctx.draft, ctx.read_set.records, mappings
        )[0]
        layers.update({
            "tools.racon.windows": polish_job.result.windows_total,
            "tools.racon.poa_cells": sum(w.workload_cells() for w in windows),
            "tools.racon.identity_cells": len(polished) * len(truth),
            "tools.bonito.flops": sum(r.total_flops for r in basecalls),
            "tools.bonito.events": sum(r.total_events for r in basecalls),
            "tools.bonito.reads": sum(len(r.records) for r in basecalls),
            "gpusim.kernels": sum(
                1 for record in app.profiler.records
                if record.category == "kernel"
            ),
        })
    return PassOutcome(
        seconds=marks[-1] - start,
        jobs=len(jobs),
        latencies_ms=[(b - a) * 1e3 for a, b in zip([start, *marks], marks)],
        failed=sum(1 for job in jobs if job.state is not JobState.OK),
        checks=checks,
        digests={
            "polished-consensus": hashlib.sha256(polished.encode()).hexdigest(),
            "basecalls": hashlib.sha256("\n".join(
                record.sequence for r in basecalls for record in r.records
            ).encode()).hexdigest(),
        },
        layers=layers,
    )


def final_checks(ctx: Context, outcome: PassOutcome) -> dict[str, bool]:
    """The draft's identity is input-only: score it once per run, untimed."""
    draft_identity = identity(ctx.draft.sequence, ctx.read_set.genome.sequence)
    return {"polish_beats_draft": ctx.polished_identity > draft_identity}
