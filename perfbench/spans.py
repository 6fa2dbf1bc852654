"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Recorder.wrap`
replaces a bound method or a registered callable with a wrapper that
opens a span around each call.  Nothing inside ``src/`` changes, so an
untraced run executes exactly the code users run.

A span is ``(span_id, parent_id, request, name, start, end)``, where
``request`` is the job (or pass) the benchmark is working on when the
span opens and ``start``/``end`` are readings of the pass's clock.  A
span's self time is its duration minus the time covered by its child
spans.  Calls run on one thread and nest strictly, so the children of a
span never overlap and their durations simply add.

A layer that re-enters itself (``VirtualClock.advance`` calling
``advance_to`` on the same wrapped instance) is recorded once, at its
outermost call, so inclusive totals never count the same interval twice.
"""

from __future__ import annotations

import json
from collections import defaultdict


class Recorder:
    """Collects spans and per-layer counts for one traced pass."""

    def __init__(self, clock) -> None:
        #: Reads the time spans start and end at, in seconds.
        self.clock = clock
        #: (span_id, parent_id, request, name, start, end)
        self.spans: list[tuple] = []
        #: Layer counts measured at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)
        #: Identifier shared by every span opened for one request.
        self.request: int | None = None
        # Ids of the open spans.
        self._stack: list[int] = []
        # Names with an open span (inner re-entries are not recorded).
        self._active: set[str] = set()
        self._next_id = 0

    def wrap(self, name: str, fn, rows=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``rows(args)``, when given, returns the number of rows the call
        handles; the total lands in ``counts[name + ".rows"]``.
        """
        perf = self.clock
        stack = self._stack
        active = self._active
        counts = self.counts
        spans = self.spans
        calls_key, rows_key = name + ".calls", name + ".rows"

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            active.add(name)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active.discard(name)
                spans.append((span_id, parent, self.request, name, start, end))
                counts[calls_key] += 1
                if rows is not None:
                    counts[rows_key] += rows(args)

        return wrapper

    def wrap_method(self, obj, method: str, name: str, rows=None) -> None:
        """Shadow ``obj.method`` with a traced instance attribute.

        Objects of a ``__slots__`` class take no instance attributes;
        they get a subclass with the same (empty) slot layout whose
        ``method`` is traced, which leaves their data access untouched.
        """
        try:
            setattr(obj, method, self.wrap(name, getattr(obj, method), rows))
        except AttributeError:
            cls = type(obj)
            traced = self.wrap(
                name, getattr(cls, method),
                None if rows is None else (lambda args: rows(args[1:])),
            )
            obj.__class__ = type(
                cls.__name__, (cls,), {"__slots__": (), method: traced}
            )

    def time_call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` once inside a span (the benchmark's own calls)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def totals(self, to_seconds) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        ``to_seconds`` maps clock readings to the seconds reported.
        Spans are appended as they close, so a span's children all come
        before it.
        """
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for span_id, parent, _, name, start, end in self.spans:
            duration = to_seconds(end) - to_seconds(start)
            total[name] += duration
            own[name] += duration - children.pop(span_id, 0.0)
            children[parent] += duration
        return total, own

    def write(self, path, to_seconds) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        origin = min((to_seconds(span[4]) for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request, name, start, end in self.spans:
                out.write(json.dumps(
                    [span_id, parent, request, name,
                     round(to_seconds(start) - origin, 9),
                     round(to_seconds(end) - origin, 9)]
                ) + "\n")
