#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload job-stream --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

A run repeats passes until the next one would overrun ``--seconds``.
Each pass is a fresh child process, as a user's one-shot run of the
program is: it imports the program, sets the workload up, settles the
heap with ``gc.collect()`` (GC stays on while timing) and times one
pass.  Each pair of passes shares one set of inputs, drawn from
``--seed`` and the pair's index: a run then covers several input sets,
so its medians do not hang on one draw, and each pair checks that equal
inputs give equal outcome digests.  The run checks every pass's outputs
and prints each metric with its unit, the outcome digests of its first
pass, and finally one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.
An exception escaping the program fails its pass, which counts as one
failed operation; the other passes still report.

Every time is read from a :class:`speed.SpeedMeter` and reported at a
reference host speed: the speed of a shared VM drifts by up to 2x
within seconds, so the meter runs short probes between the program's
calls and scales each interval by the speed measured on both sides of
it.  ``peak_rss_mb`` leaves out the memory the probe holds.  Each pass
prints its times and, beside them, the host seconds and number of
probes its timed region took.  A workload's ``setup(seed, clock)`` may
read ``clock`` (the meter's ``now``) to time parts of its set-up; its
``run_pass(ctx, meter, rec)`` reads ``meter.now`` around what it times
and maps the readings with ``meter.reference()``.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of :mod:`layers` (medians over traced passes) plus the
tracing overhead; the spans of the last traced pass are written to
``perfbench/.traces/``.  The program under ``src/`` is the same in
both modes: tracing only wraps objects from outside.

Metric names and units come from ``BENCHMARK.json``.

The simulated K80 (gpusim) is not validated against real hardware, so
the benchmark quotes host-time costs of the software layers only, never
modelled device times or an accuracy figure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import ComputeProbe, ScatterProbe, SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload name -> (module, attribute holding the workload or None,
#: the speed probe matching what bounds its calls: tool numerics, or
#: walks over a large heap of jobs and process tables or job columns).
WORKLOADS = {
    "paper-tools": ("paper_tools", None, ComputeProbe),
    "job-stream": ("job_stream", None, ScatterProbe),
    "fleet-static-day": ("fleet_days", "STATIC", ScatterProbe),
    "fleet-elastic-storm": ("fleet_days", "ELASTIC", ScatterProbe),
}

#: A child that outlives this many seconds is stopped and counted failed.
PASS_TIMEOUT_S = 150.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one pass in this process and print its JSON record.
    parser.add_argument("--pass-index", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def _run_all(args) -> int:
    """Run each workload in a child process; fail if any fails."""
    worst = 0
    for name in sorted(WORKLOADS):
        print(f"== {name}", flush=True)
        child = subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        worst = max(worst, child.returncode)
    return worst


# -- one pass, in a child process ------------------------------------ #


def _load(name: str):
    """Import the workload (and with it the program)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    module_name, attribute, _ = WORKLOADS[name]
    module = importlib.import_module(module_name)
    return getattr(module, attribute) if attribute else module


def _inputs_seed(seed: int, index: int) -> int:
    """Seed of the inputs of pass ``index``; passes 2k and 2k+1 share one."""
    return random.Random(f"{seed}:{index // 2}").randrange(2**31)


def _one_pass(args) -> dict:
    """Set up and time one pass; its record for the parent run."""
    meter = SpeedMeter(WORKLOADS[args.workload][2]())
    start = meter.now()
    workload = _load(args.workload)
    ctx = workload.setup(_inputs_seed(args.seed, args.pass_index), meter.now)
    setup_end = meter.now()
    from outcome import percentile
    from spans import Recorder

    traced = bool(args.trace) and args.pass_index % 2 == 1
    rec = Recorder(meter.now) if traced else None
    gc.collect()
    probes = meter.probes
    host_start = time.perf_counter()
    outcome = workload.run_pass(ctx, meter, rec)
    host_s = time.perf_counter() - host_start
    probes = meter.probes - probes
    to_reference = meter.reference()
    setup_s = to_reference(setup_end) - to_reference(start)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                   - meter.probe.held_bytes / 2**20)
    checks = dict(outcome.checks)
    final_checks = getattr(workload, "final_checks", None)
    if args.pass_index == 0 and final_checks is not None:
        checks.update(final_checks(ctx, outcome))
    record = {
        "traced": traced,
        "seconds": outcome.seconds,
        "jobs": outcome.jobs,
        "failed": outcome.failed,
        "checks": checks,
        "digests": outcome.digests,
        "setup_s": setup_s,
        "host_s": host_s,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "job_p50_ms": percentile(outcome.latencies_ms, outcome.weights, 0.50),
        "job_p99_ms": percentile(outcome.latencies_ms, outcome.weights, 0.99),
    }
    if traced:
        import layers

        total, own = rec.totals(to_reference)
        record["layers"] = {
            m.name: m.value(total, own, rec.counts, outcome.layers)
            for m in layers.METRICS
        }
        trace_dir = os.path.join(HERE, ".traces")
        os.makedirs(trace_dir, exist_ok=True)
        rec.write(os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl"
        ), to_reference)
    return record


def _child_main(args) -> int:
    try:
        record = _one_pass(args)
    except Exception as exc:
        traceback.print_exc()
        record = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(record))
    return 0


# -- the run, in the parent process ---------------------------------- #


def _spawn_pass(args, index: int) -> dict:
    """Run pass ``index`` in a fresh child; an error record if it broke."""
    try:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--pass-index", str(index)],
            stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} timed out"}
    lines = child.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"pass {index} exited {child.returncode} "
                         "without a record"}


def _passes(args) -> list[dict]:
    """Run a pair of passes, then more until the next would overrun
    ``--seconds``."""
    records = []
    begin = time.perf_counter()
    while True:
        records.append(_spawn_pass(args, len(records)))
        done = len(records)
        elapsed = time.perf_counter() - begin
        if done >= 2 and elapsed * (done + 1) / done > args.seconds:
            return records


def _end_to_end(passes: list[dict]) -> dict[str, float]:
    def median(value):
        return statistics.median(value(p) for p in passes)

    return {
        "setup_s": median(lambda p: p["setup_s"]),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
        "jobs_per_s": median(lambda p: p["jobs"] / p["seconds"]),
        "job_p50_ms": median(lambda p: p["job_p50_ms"]),
        "job_p99_ms": median(lambda p: p["job_p99_ms"]),
    }


def _per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    result = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    untraced_s = statistics.median(p["seconds"] for p in plain)
    traced_s = statistics.median(p["seconds"] for p in traced)
    result["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program under {ROOT}/src to measure",
              file=sys.stderr)
        return 2
    if args.pass_index is not None:
        return _child_main(args)
    if args.workload == "all":
        return _run_all(args)

    end_to_end_units, per_layer_units = _metric_units()
    records = _passes(args)
    passes = [r for r in records if "error" not in r]
    errors = [r["error"] for r in records if "error" in r]

    checks: dict[str, bool] = {}
    for record in passes:
        for name, ok in record["checks"].items():
            checks[name] = checks.get(name, True) and ok
    pairs = [records[i:i + 2] for i in range(0, len(records) - 1, 2)]
    checks["digests_repeat_on_equal_inputs"] = all(
        a["digests"] == b["digests"] for a, b in pairs
        if "error" not in a and "error" not in b
    )
    # An exception escaping the program fails its pass as one operation.
    attempted = sum(p["jobs"] for p in passes) + len(checks) + len(errors)
    failed = (sum(p["failed"] for p in passes) + len(errors)
              + sum(1 for ok in checks.values() if not ok))
    for index, record in enumerate(records):
        if "error" in record:
            print(f"pass {index} error {record['error']}")
        else:
            print(f"pass {index} setup_s {record['setup_s']:.4f} "
                  f"seconds {record['seconds']:.4f} "
                  f"p50_ms {record['job_p50_ms']:.4f} "
                  f"p99_ms {record['job_p99_ms']:.4f} "
                  f"host_s {record['host_s']:.4f} "
                  f"probes {record['probes']}"
                  f"{' traced' if record['traced'] else ''}")
    for name, ok in sorted(checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if passes:
        for name, digest in sorted(passes[0]["digests"].items()):
            print(f"digest {args.workload} {name} {digest}")
        print(f"passes {len(records)} "
              f"(traced {sum(1 for p in passes if p['traced'])}, "
              f"failed {len(errors)}), jobs per pass {passes[0]['jobs']}")

    values: dict[str, float] = {}
    units = per_layer_units if args.trace else end_to_end_units
    if args.trace and any(p["traced"] for p in passes) and any(
        not p["traced"] for p in passes
    ):
        values = _per_layer(passes)
    elif not args.trace and passes:
        values = _end_to_end(passes)
    if values and set(values) != set(units):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 2
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    correct = failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
