"""Phase-span tracing with Chrome trace-event export.

:class:`SpanTracer` times named engine phases (``schedule``, ``coalesce``,
``power``, ``cooling``, ``stats``) plus run-lifecycle spans. The design
constraint is the *disabled* cost, not the enabled one: the engine holds a
plain attribute that is ``None`` when tracing is off, so an uninstrumented
step pays one identity check per phase and never calls into this module;
perfbench's ``cpu_s`` measures that uninstrumented path. When enabled,
each span costs two ``perf_counter_ns`` reads and a couple of dict updates.

Aggregates (per-phase wall total and call count) are always maintained;
individual span events are retained up to :attr:`SpanTracer.max_events` so
a frontier-scale run cannot balloon memory — spans beyond the cap still
count into the aggregates and are tallied in
:attr:`SpanTracer.dropped_events`.

:meth:`SpanTracer.to_chrome_trace` writes the retained spans in the Chrome
trace-event JSON format (an object with a ``traceEvents`` list of complete
``"ph": "X"`` events, timestamps/durations in microseconds), loadable in
``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator

__all__ = ["SpanTracer"]


class SpanTracer:
    """Collects named wall-clock spans for one run.

    Parameters
    ----------
    max_events:
        Retention cap on individual spans (kept for Chrome trace export);
        aggregates are unaffected.
    """

    __slots__ = (
        "max_events",
        "dropped_events",
        "totals_ns",
        "counts",
        "_names",
        "_starts_ns",
        "_durs_ns",
        "_epoch_ns",
    )

    def __init__(self, *, max_events: int = 1_000_000) -> None:
        self.max_events = max_events
        self.dropped_events = 0
        self.totals_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._names: list[str] = []
        self._starts_ns: list[int] = []
        self._durs_ns: list[int] = []
        #: All exported timestamps are relative to tracer creation, so the
        #: trace starts near t=0 regardless of the process clock.
        self._epoch_ns = perf_counter_ns()

    # -- recording -------------------------------------------------------------

    def add(self, name: str, start_ns: int, end_ns: int | None = None) -> int:
        """Record one completed span and return its end timestamp (ns).

        ``end_ns`` defaults to "now", so the returned value doubles as the
        start of the next back-to-back phase without a second clock read.
        """
        if end_ns is None:
            end_ns = perf_counter_ns()
        dur = end_ns - start_ns
        totals = self.totals_ns
        if name in totals:
            totals[name] += dur
            self.counts[name] += 1
        else:
            totals[name] = dur
            self.counts[name] = 1
        if len(self._names) < self.max_events:
            self._names.append(name)
            self._starts_ns.append(start_ns)
            self._durs_ns.append(dur)
        else:
            self.dropped_events += 1
        return end_ns

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager form for lifecycle spans (``run``, ``init``)."""
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.add(name, start)

    # -- reporting -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of retained individual spans."""
        return len(self._names)

    def phase_report(self) -> dict[str, dict[str, float]]:
        """Per-phase aggregate: wall seconds, call count, share of the total.

        The share denominator is the sum over *leaf* phases only — spans
        that enclose others (the ``run`` lifecycle span) are excluded so
        shares add up to ~1 instead of ~2.
        """
        leaf = {
            name: total
            for name, total in self.totals_ns.items()
            if name not in _ENCLOSING_SPANS
        }
        denominator = sum(leaf.values()) or 1
        report: dict[str, dict[str, float]] = {}
        for name, total in sorted(self.totals_ns.items(), key=lambda kv: -kv[1]):
            count = self.counts[name]
            row = {
                "wall_s": total / 1e9,
                "calls": float(count),
                "mean_us": total / count / 1e3 if count else 0.0,
            }
            if name in leaf:
                row["share"] = total / denominator
            report[name] = row
        return report

    def trace_events(self) -> list[dict[str, object]]:
        """The retained spans as Chrome trace-event dicts (microseconds)."""
        epoch = self._epoch_ns
        events: list[dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": "repro simulation engine"},
            }
        ]
        for name, start, dur in zip(self._names, self._starts_ns, self._durs_ns):
            events.append(
                {
                    "name": name,
                    "cat": "engine",
                    "ph": "X",
                    "ts": (start - epoch) / 1e3,
                    "dur": dur / 1e3,
                    "pid": 1,
                    "tid": 1,
                }
            )
        return events

    def to_chrome_trace(self, path: str | Path) -> None:
        """Write the trace in Chrome trace-event JSON format.

        The file is an object with a ``traceEvents`` list — the variant
        both ``chrome://tracing`` and Perfetto load directly.
        """
        payload = {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_events": self.dropped_events,
                "phase_report": self.phase_report(),
            },
        }
        Path(path).write_text(json.dumps(payload) + "\n")


#: Span names that enclose other spans and are excluded from share math.
_ENCLOSING_SPANS = frozenset({"run"})
