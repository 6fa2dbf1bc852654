"""What one measured pass of a workload reports back to run.py."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class PassOutcome:
    """One pass: timings, the outcome digest, checks and layer counts."""

    #: Seconds of the pass's timed region (set-up excluded), read from
    #: the pass's clock: host time at the reference speed (speed.py).
    seconds: float
    #: Operations that reached a terminal state (jobs: ok, error, shed).
    jobs: int
    #: Per-job time in milliseconds, on the same clock, with how many
    #: jobs share each value (fleet jobs share the engine step that
    #: admitted them).
    latencies_ms: list[float]
    weights: list[int] | None = None
    #: Admitted jobs that did not end OK.
    failed: int = 0
    #: Named output checks; all must hold.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Digests of the simulated outcome; equal across passes on a seed.
    digests: dict[str, str] = field(default_factory=dict)
    #: Per-layer counts read from the program's counters and results,
    #: keyed by per-layer metric name (span times come from the recorder).
    layers: dict[str, float] = field(default_factory=dict)


def percentile(values: list[float], weights: list[int] | None, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of weighted samples."""
    if weights is None:
        weights = [1] * len(values)
    pairs = sorted(zip(values, weights))
    rank = math.ceil(q * sum(weights))
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    return pairs[-1][0]
