"""Host time, and the host speed along it, for timing at a reference speed.

The speed of a shared VM drifts by up to 2x within seconds, far more
than any change worth measuring, and other tenants crowding the shared
caches slow memory-bound code more than compute-bound code.
:class:`SpeedMeter` tracks the speed as the pass runs, with a probe of
the workload's kind: :class:`ComputeProbe` for tool numerics,
:class:`ScatterProbe` for code that walks a large heap.

Whenever :meth:`SpeedMeter.now` is read at least :data:`INTERVAL_S`
after the last probes, it first runs a round of probes: one, or after a
long interval as many as keep probing to :data:`PROBE_SHARE` of the
time.  ``now()`` counts host seconds with the probes left out.

After the timed region, :meth:`SpeedMeter.reference` maps those readings
to reference seconds: the interval between two rounds is scaled by
``probe.ref_s / median(probes on both sides of it)``, widening to
neighbouring rounds until the median is over at least :data:`WINDOW`
probes.  Differences of mapped readings are host time at the reference
speed, and the mapping never runs backwards.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
import time
from typing import Callable

#: Host seconds between rounds of probes.
INTERVAL_S = 0.1
#: Share of host time spent probing after a long interval.
PROBE_SHARE = 0.02
#: Most probes in one round.
MAX_ROUND = 20
#: Fewest probes a median is taken over.
WINDOW = 5


class ComputeProbe:
    """Integer arithmetic, dict inserts, sorting, tuple and strings."""

    #: What one probe takes on the reference host (a 2-vCPU VM at its
    #: typical speed).
    ref_s = 0.0004
    #: Memory the probe holds, which is not the program's.
    held_bytes = 0
    #: What :meth:`work` computes, checked so it cannot be skipped.
    checksum = 5_746

    def __call__(self) -> float:
        """Host seconds the probe takes in this process now.

        GC is off while it runs, so the program's live heap adds no
        collection work.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            total = self.work()
            seconds = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if total != self.checksum:
            raise RuntimeError("speed probe computed a wrong result")
        return seconds

    def work(self) -> int:
        table = {i: (i * 7919) % 1_000_003 for i in range(1_500)}
        values = sorted(table.values())
        total = sum(v & 7 for v in values)
        pairs = sorted(((v, str(v)) for v in values[:500]),
                       key=lambda pair: pair[1])
        return total + len(pairs)


class ScatterProbe(ComputeProbe):
    """The compute probe, then reads scattered over a buffer larger than
    the caches hold, as the program's heap is; the reads take most of
    the time."""

    ref_s = 0.004
    held_bytes = 64 << 20
    reads = 14_400

    def __init__(self) -> None:
        # Byte i of the buffer is i & 255.
        self.buffer = bytearray(range(256)) * (self.held_bytes // 256)
        self.at = random.Random(0).sample(range(self.held_bytes), self.reads)
        self.checksum = ComputeProbe.checksum + sum(i & 255 for i in self.at)

    def work(self) -> int:
        total = super().work()
        buffer = self.buffer
        for i in self.at:
            total += buffer[i]
        return total


class SpeedMeter:
    """Host seconds since the meter was made, probes left out."""

    def __init__(self, probe: ComputeProbe) -> None:
        self.probe = probe
        self._probed_s = 0.0
        #: Rounds of probes: (reading they were taken at, probe seconds).
        self._rounds: list[tuple[float, list[float]]] = []
        self._reference: Callable[[float], float] | None = None
        # The origin has no probes: every probe runs right after the
        # program, so all find the caches as the program leaves them.
        self._rounds.append((0.0, []))
        self._origin = self._mark = time.perf_counter()

    @property
    def probes(self) -> int:
        """Probes run so far."""
        return sum(len(seconds) for _, seconds in self._rounds)

    def now(self) -> float:
        t = time.perf_counter()
        reading = t - self._origin - self._probed_s
        elapsed = t - self._mark
        if elapsed >= INTERVAL_S and self._reference is None:
            self._round(reading, math.ceil(
                elapsed * PROBE_SHARE / self.probe.ref_s
            ))
        return reading

    def _round(self, reading: float, count: int) -> None:
        start = time.perf_counter()
        seconds = [self.probe() for _ in range(min(count, MAX_ROUND))]
        self._rounds.append((reading, seconds))
        self._mark = time.perf_counter()
        self._probed_s += self._mark - start

    def reference(self) -> Callable[[float], float]:
        """Map readings of :meth:`now` to reference seconds.

        The first call probes once more and stops probing, so every
        reading taken so far lies between two rounds; later readings
        are scaled like the last interval.
        """
        if self._reference is None:
            reading = time.perf_counter() - self._origin - self._probed_s
            self._round(reading, 1)
            self._reference = self._mapping()
        return self._reference

    def _mapping(self) -> Callable[[float], float]:
        rounds = self._rounds
        bounds = [reading for reading, _ in rounds]
        factors = []
        for i in range(len(rounds) - 1):
            lo, hi = i, i + 1
            samples = rounds[lo][1] + rounds[hi][1]
            while len(samples) < WINDOW and (lo > 0 or hi < len(rounds) - 1):
                if lo > 0:
                    lo -= 1
                    samples += rounds[lo][1]
                if hi < len(rounds) - 1:
                    hi += 1
                    samples += rounds[hi][1]
            factors.append(self.probe.ref_s / statistics.median(samples))
        at = [0.0]
        for i, factor in enumerate(factors):
            at.append(at[-1] + (bounds[i + 1] - bounds[i]) * factor)

        def to_reference(reading: float) -> float:
            i = min(max(bisect.bisect_right(bounds, reading) - 1, 0),
                    len(factors) - 1)
            return at[i] + (reading - bounds[i]) * factors[i]

        return to_reference
