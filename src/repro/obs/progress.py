"""Progress heartbeats for long simulation runs.

:class:`ProgressReporter` emits a compact status line (or calls back with a
:class:`ProgressSnapshot`) on a *wall-clock* cadence while the engine
loops: simulated time, fraction done, steps/s, ETA, running/queued jobs.
The callback form is the subscription hook the planned
simulation-as-a-service front end and the sweep driver consume — an engine
run becomes observable from outside the process loop without polling the
engine's internals.

Per-step cost when enabled is one ``time.monotonic`` read and a compare
(:meth:`ProgressReporter.due`); snapshots are only built on the cadence.
Disabled runs never see this module (the engine holds ``None``).

The fraction-done estimate uses the best bound available: with a horizon
it is simulated time over the horizon window; without one it is jobs
retired over total jobs (simulated end time is not known in advance). ETA
extrapolates wall time from that fraction and is ``None`` until the
fraction is meaningful.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable

from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import SimulationEngine

__all__ = ["ProgressReporter", "ProgressSnapshot"]


@dataclass(frozen=True)
class ProgressSnapshot:
    """One heartbeat's view of a running simulation."""

    #: Wall seconds since the run started.
    wall_s: float
    #: Current simulated time and span simulated so far, seconds.
    sim_time_s: float
    sim_elapsed_s: float
    #: Fraction done in [0, 1], or ``None`` when no bound is available.
    fraction_done: float | None
    #: Engine steps taken and the wall-clock step rate.
    steps: int
    steps_per_s: float
    #: Estimated wall seconds remaining (``None`` until estimable).
    eta_s: float | None
    running_jobs: int
    queued_jobs: int
    jobs_done: int
    jobs_total: int
    #: True only for the snapshot emitted after the run completed.
    final: bool = False

    def format_line(self) -> str:
        """The stderr heartbeat line."""
        percent = (
            f"{100.0 * self.fraction_done:5.1f}%"
            if self.fraction_done is not None
            else "  ???%"
        )
        eta = f" eta {self.eta_s:.0f}s" if self.eta_s is not None else ""
        state = "done " if self.final else ""
        return (
            f"[progress] {state}{percent}  sim t={self.sim_time_s:.0f}s  "
            f"steps={self.steps} ({self.steps_per_s:.0f}/s)  "
            f"jobs {self.jobs_done}/{self.jobs_total}  "
            f"running={self.running_jobs} queued={self.queued_jobs}{eta}"
        )


class ProgressReporter:
    """Emits heartbeats on a wall-clock cadence.

    Parameters
    ----------
    interval_s:
        Minimum wall seconds between heartbeats (0 reports every step).
    callback:
        Called with each :class:`ProgressSnapshot`. When ``None``, the
        formatted line is written to ``stream`` instead.
    stream:
        Text stream for the line form; defaults to ``sys.stderr``.
    """

    def __init__(
        self,
        interval_s: float = 1.0,
        *,
        callback: Callable[[ProgressSnapshot], None] | None = None,
        stream: IO[str] | None = None,
    ) -> None:
        if interval_s < 0:
            raise ConfigurationError(f"interval_s must be >= 0, got {interval_s}")
        self.interval_s = interval_s
        self.callback = callback
        self.stream = stream
        self.heartbeats = 0
        self._wall_start = 0.0
        self._next_due = 0.0
        self._started = False

    # -- engine hooks ----------------------------------------------------------

    def start(self) -> None:
        """Reset the cadence clock at the top of a run (idempotent)."""
        self._wall_start = time.monotonic()
        self._next_due = self._wall_start + self.interval_s
        self._started = True

    def due(self) -> bool:
        """Whether a heartbeat is due — the only per-step call."""
        return time.monotonic() >= self._next_due

    def report(self, engine: "SimulationEngine", *, final: bool = False) -> None:
        """Build and emit one snapshot from the live engine state."""
        if not self._started:
            self.start()
        now_wall = time.monotonic()
        self._next_due = now_wall + self.interval_s
        self.heartbeats += 1
        snapshot = self._snapshot(engine, now_wall - self._wall_start, final)
        if self.callback is not None:
            self.callback(snapshot)
        else:
            stream = self.stream if self.stream is not None else sys.stderr
            print(snapshot.format_line(), file=stream)

    # -- snapshot assembly -----------------------------------------------------

    def _snapshot(
        self, engine: "SimulationEngine", wall_s: float, final: bool
    ) -> ProgressSnapshot:
        stats = engine.stats
        steps = len(stats.ticks)
        jobs_total = len(engine.runs)
        jobs_done = len(stats.completed_jobs) + len(stats.dismissed_jobs)
        sim_elapsed = engine.now - engine._start_time
        fraction: float | None
        if final:
            fraction = 1.0
        elif engine.horizon_s is not None and engine.horizon_s > 0:
            fraction = min(1.0, sim_elapsed / engine.horizon_s)
        elif jobs_total > 0:
            fraction = jobs_done / jobs_total
        else:
            fraction = None
        eta: float | None = None
        if not final and fraction is not None and 0.0 < fraction < 1.0 and wall_s > 0:
            eta = wall_s * (1.0 - fraction) / fraction
        return ProgressSnapshot(
            wall_s=wall_s,
            sim_time_s=engine.now,
            sim_elapsed_s=sim_elapsed,
            fraction_done=fraction,
            steps=steps,
            steps_per_s=steps / wall_s if wall_s > 0 else 0.0,
            eta_s=eta,
            running_jobs=len(engine.resource_manager.running_by_id),
            queued_jobs=len(engine.queued_jobs),
            jobs_done=jobs_done,
            jobs_total=jobs_total,
            final=final,
        )
