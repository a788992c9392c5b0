"""Engine observability: phase tracing, metrics, run events, heartbeats.

The run-introspection substrate of the simulator (the subject of the
source paper is telemetry — the simulator itself should be observable
too). Four independent instruments, bundled by :class:`Observability` and
threaded through :class:`~repro.engine.SimulationEngine` via the ``obs=``
parameter:

:class:`SpanTracer`
    Wall-clock spans of the named engine phases (``schedule``,
    ``coalesce``, ``power``, ``cooling``, ``stats``) plus the ``run``
    lifecycle, exportable as Chrome trace-event JSON
    (``chrome://tracing`` / Perfetto).

:class:`MetricsRegistry`
    Counters, gauges and histograms (steps, coalesced grid ticks,
    end-time-heap pops, journal drains, queue depth, backfill
    reservations, per-phase wall histograms) snapshotting to JSON or CSV.

:class:`EventLog`
    Structured JSON-lines job-lifecycle and milestone events on stdlib
    :mod:`logging` (logger ``repro.run``), so library consumers keep
    handler control.

:class:`ProgressReporter`
    Wall-clock-cadence heartbeats (simulated %, steps/s, ETA) to stderr
    or a callback — the subscription hook for service/sweep front ends.

Everything is off by default: ``SimulationEngine(..., obs=None)`` runs the
uninstrumented hot path (one ``is None`` check per phase), the path
perfbench's ``cpu_s`` measures.
"""

from .core import Observability
from .events import EventLog, JsonLinesFormatter, RUN_LOGGER_NAME
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .progress import ProgressReporter, ProgressSnapshot
from .tracing import SpanTracer

__all__ = [
    "Observability",
    "SpanTracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "JsonLinesFormatter",
    "RUN_LOGGER_NAME",
    "ProgressReporter",
    "ProgressSnapshot",
]
