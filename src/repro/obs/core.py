"""The :class:`Observability` bundle the engine is configured with.

One object groups the four independent instruments — span tracer, metrics
registry, structured event log, progress reporter — each individually
optional (``None`` = off). The engine unpacks the bundle once at
construction into plain attributes, so a disabled instrument costs one
``is None`` check on the hot path and nothing else.
"""

from __future__ import annotations

from .events import EventLog
from .metrics import MetricsRegistry
from .progress import ProgressReporter
from .tracing import SpanTracer

__all__ = ["Observability"]


class Observability:
    """Bundle of (individually optional) run instruments.

    Attributes
    ----------
    tracer:
        Times named engine phases; exports Chrome trace-event JSON.
    metrics:
        Counter/gauge/histogram registry, published at run finalisation.
    events:
        Structured JSON-lines job-lifecycle / milestone log.
    progress:
        Wall-clock-cadence heartbeat reporter (stderr or callback).
    """

    __slots__ = ("tracer", "metrics", "events", "progress")

    def __init__(
        self,
        *,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        progress: ProgressReporter | None = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.events = events
        self.progress = progress

    @property
    def enabled(self) -> bool:
        """Whether any instrument is active."""
        return (
            self.tracer is not None
            or self.metrics is not None
            or self.events is not None
            or self.progress is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        on = [
            name
            for name in self.__slots__
            if getattr(self, name) is not None
        ]
        return f"Observability({', '.join(on) or 'disabled'})"
