"""Structured run events: JSON-lines on top of stdlib ``logging``.

Job lifecycle (submit / start / finish / dismiss) and engine milestones
(run start / horizon / run end) are emitted as one JSON object per line
through a standard :mod:`logging` logger (``repro.run`` by default), so
*library* consumers keep full control: with no handler configured the
events cost one ``isEnabledFor`` check and vanish; an application can
attach any handler/formatter it likes; and :meth:`EventLog.to_jsonl` is
the one-call setup the CLI's ``--log-json PATH`` uses (a file handler with
:class:`JsonLinesFormatter`, detached again by :meth:`EventLog.close`).

Event schema (every line)::

    {"event": "<type>", "t_s": <simulated time>, ...type-specific fields}

See the README "Observability" section for the per-type field table.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path
from typing import IO

from ..telemetry.job import JobRun

__all__ = ["EventLog", "JsonLinesFormatter", "RUN_LOGGER_NAME"]

#: Default logger events are emitted through (a child of ``repro``).
RUN_LOGGER_NAME = "repro.run"


def _json_value(value: object) -> object:
    """One field value made strict-JSON safe (non-finite floats → None)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_value(item) for key, item in value.items()}
    return str(value)


class JsonLinesFormatter(logging.Formatter):
    """Format one log record as one JSON object per line.

    The record message is the event type; structured fields travel in the
    record's ``fields`` attribute (set via ``extra=``). Records emitted by
    ordinary loggers (no ``fields``) still format cleanly, so the formatter
    can be attached to any ``repro.*`` logger.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, object] = {"event": record.getMessage()}
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            payload.update({key: _json_value(value) for key, value in fields.items()})
        if record.levelno != logging.INFO:
            payload["level"] = record.levelname.lower()
        return json.dumps(payload, allow_nan=False)


class EventLog:
    """Emits structured run events through a stdlib logger.

    Parameters
    ----------
    logger:
        Logger to emit through; defaults to ``repro.run``. With no handler
        and an effective level above INFO every emission is a cheap no-op.
    """

    def __init__(self, logger: logging.Logger | None = None) -> None:
        self._logger = logger if logger is not None else logging.getLogger(RUN_LOGGER_NAME)
        self._owned_handlers: list[logging.Handler] = []
        self._prev_level: int | None = None
        #: Events emitted through this log (published as a metric).
        self.events_emitted = 0

    @classmethod
    def to_jsonl(cls, path: str | Path) -> "EventLog":
        """Event log writing JSON lines to ``path`` (the ``--log-json`` setup).

        Attaches a file handler with :class:`JsonLinesFormatter` to the
        ``repro.run`` logger and lowers the logger's level to INFO so the
        events actually flow; :meth:`close` detaches the handler again.
        """
        log = cls()
        handler = logging.FileHandler(Path(path), mode="w")
        log._attach(handler)
        return log

    @classmethod
    def to_stream(cls, stream: IO[str]) -> "EventLog":
        """Event log writing JSON lines to an open text stream."""
        log = cls()
        log._attach(logging.StreamHandler(stream))
        return log

    def _attach(self, handler: logging.Handler) -> None:
        handler.setFormatter(JsonLinesFormatter())
        handler.setLevel(logging.INFO)
        self._logger.addHandler(handler)
        if self._logger.getEffectiveLevel() > logging.INFO:
            if self._prev_level is None:
                self._prev_level = self._logger.level
            self._logger.setLevel(logging.INFO)
        self._owned_handlers.append(handler)

    def close(self) -> None:
        """Detach (and close) every handler this instance attached.

        Also restores the logger level the attachment lowered, so repeated
        CLI invocations in one process leave the logging tree untouched.
        """
        for handler in self._owned_handlers:
            self._logger.removeHandler(handler)
            handler.close()
        self._owned_handlers.clear()
        if self._prev_level is not None:
            self._logger.setLevel(self._prev_level)
            self._prev_level = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- emission --------------------------------------------------------------

    def emit(self, event: str, **fields: object) -> None:
        """Emit one structured event (INFO level, skipped when disabled)."""
        if self._logger.isEnabledFor(logging.INFO):
            self.events_emitted += 1
            self._logger.info(event, extra={"fields": fields})

    def milestone(self, name: str, t_s: float, **fields: object) -> None:
        """Engine milestone (``run_started``, ``horizon_reached``, ...)."""
        self.emit(name, t_s=t_s, **fields)

    def job_submitted(self, run: JobRun, t_s: float) -> None:
        job = run.job
        self.emit(
            "job_submitted",
            t_s=t_s,
            job_id=run.job_id,
            submit_s=job.submit_time,
            nodes=job.nodes_required,
            partition=job.partition,
        )

    def job_started(self, run: JobRun, t_s: float) -> None:
        self.emit(
            "job_started",
            t_s=t_s,
            job_id=run.job_id,
            start_s=run.sim_start_time,
            wait_s=run.wait_time,
            nodes=run.job.nodes_required,
            partition=run.job.partition,
        )

    def job_finished(
        self, run: JobRun, t_s: float, *, energy_kwh: float | None = None
    ) -> None:
        """Job completion, with node-hour and (optional) energy attribution."""
        duration = run.sim_duration
        nodes = run.job.nodes_required
        self.emit(
            "job_finished",
            t_s=t_s,
            job_id=run.job_id,
            start_s=run.sim_start_time,
            end_s=run.sim_end_time,
            runtime_s=duration,
            wait_s=run.wait_time,
            nodes=nodes,
            node_hours=nodes * duration / 3600.0 if duration is not None else None,
            energy_kwh=energy_kwh,
            truncated=run.truncated_by_horizon,
        )

    def job_dismissed(self, run: JobRun, t_s: float) -> None:
        """Job dismissal, with the reason its run record carries."""
        self.emit(
            "job_dismissed",
            t_s=t_s,
            job_id=run.job_id,
            nodes=run.job.nodes_required,
            reason=run.dismiss_reason,
        )
