"""Parallel sweep driver: process-pool fan-out with resumable ingest.

:func:`run_sweep` materialises a :class:`~repro.sweep.spec.SweepSpec`, skips
runs already completed in the results store (resume), fans the remainder
across a :class:`concurrent.futures.ProcessPoolExecutor` in chunks, and
ingests results into the store as the single writer.

Design points:

* **Requests cross the boundary as JSON dicts.** Every run rebuilds its
  request with :meth:`~repro.sweep.request.RunRequest.from_json_dict`
  inside its own failure boundary, so the serialisation contract the store
  depends on is exercised by every run, and a request that does not parse
  becomes that run's failed row.
* **Chunked dispatch.** One pool task executes ``chunk_size`` runs back to
  back, amortising task overhead on short runs while keeping failure and
  progress granularity per run.
* **Failures never kill the sweep.** A run raising in a worker comes back
  as a traceback string and is recorded as a ``failed`` row. A chunk task
  dying wholesale (e.g. ``BrokenProcessPool``) marks every unreported run
  of that chunk failed — nothing is silently lost.
* **Per-run progress aggregates into one heartbeat.** Each worker attaches
  a throttled :class:`~repro.obs.ProgressReporter` whose callback ships
  ``(run_id, fraction_done)`` beats over the queue; the parent folds all
  active runs into a single sweep-level line on its own cadence.
* **One ingest.** Every message the parent takes off a queue — serial,
  pooled, or salvaged after an interrupt — goes through one
  :class:`_Ingest`, which records each run's outcome exactly once and
  keeps the heartbeat and the tallies.
* **Resume is id-based and idempotent.** Completed run ids are read from
  the store before dispatch and skipped; failed rows stay eligible and are
  retried. Killing the driver loses at most in-flight runs — every ingested
  result was committed individually.
* **Ctrl-C is safe.** ``KeyboardInterrupt`` during ingest salvages the
  outcomes already sitting in the results queue into the store, shuts the
  pool and manager down (no orphaned workers), and re-raises with a resume
  hint — the interrupted sweep continues from the store on the next run.
* **Ingest terminates by accounting, not by peeking.** ``Queue.empty()``
  is unreliable across processes, so the loop runs until every pending run
  has either reported its outcome or been reaped from a dead chunk.
"""

from __future__ import annotations

import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from queue import Empty
from typing import IO, TYPE_CHECKING, Mapping

import numpy as np

from ..exceptions import ConfigurationError
from ..obs import Observability, ProgressReporter
from .request import RunRequest, run_request
from .spec import SweepRun, SweepSpec
from .store import ResultsStore

if TYPE_CHECKING:
    from multiprocessing.managers import SyncManager
    from queue import Queue

__all__ = ["SweepOutcome", "run_sweep"]


@dataclass(frozen=True)
class SweepOutcome:
    """What one :func:`run_sweep` invocation did.

    ``total`` counts the materialised grid; ``skipped`` the runs resume
    found already completed; ``executed = completed + failed`` the runs
    this invocation actually performed. ``stopped_early`` is only set by
    the test-oriented ``stop_after_runs`` kill switch.
    """

    sweep: str
    total: int
    skipped: int
    executed: int
    completed: int
    failed: int
    stopped_early: bool
    wall_s: float
    runs_per_s: float


@dataclass(frozen=True)
class _RunPayload:
    """What the parent ships to a worker for one run (picklable)."""

    run_id: str
    sweep: str
    run_index: int
    workload: str
    request: dict[str, object]
    progress_interval_s: float | None


@dataclass(frozen=True)
class _RunOutcome:
    """What a worker ships back for one run (picklable)."""

    run_id: str
    status: str
    summary: dict[str, float] | None
    error: str | None
    wall_s: float


@dataclass(frozen=True)
class _ProgressBeat:
    """One throttled in-run progress sample from a worker."""

    run_id: str
    fraction: float


def _execute_one(payload: _RunPayload, queue: "Queue[object]") -> _RunOutcome:
    """Run one request in a worker, streaming progress beats to ``queue``.

    The payload's JSON dict is parsed here, inside the failure boundary.
    """
    start = time.monotonic()
    try:
        request = RunRequest.from_json_dict(payload.request)
        obs: Observability | None = None
        if payload.progress_interval_s is not None:

            def _beat(snapshot: object) -> None:
                fraction = getattr(snapshot, "fraction_done", None)
                if fraction is not None:
                    queue.put(_ProgressBeat(run_id=payload.run_id, fraction=fraction))

            obs = Observability(
                progress=ProgressReporter(
                    payload.progress_interval_s, callback=_beat
                )
            )
        result = run_request(request, obs=obs)
        return _RunOutcome(
            run_id=payload.run_id,
            status="completed",
            summary=result.summary(),
            error=None,
            wall_s=time.monotonic() - start,
        )
    except Exception:
        # Any failure becomes data: the traceback travels back as a string
        # and is recorded as a failed row. The sweep itself never dies.
        return _RunOutcome(
            run_id=payload.run_id,
            status="failed",
            summary=None,
            error=traceback.format_exc(),
            wall_s=time.monotonic() - start,
        )


def _execute_chunk(tasks: tuple[_RunPayload, ...], queue: "Queue[object]") -> None:
    """Pool task: run a chunk of runs, shipping each outcome as it lands."""
    for task in tasks:
        queue.put(_execute_one(task, queue))


def _chunks(
    items: list[_RunPayload], size: int
) -> list[tuple[_RunPayload, ...]]:
    return [tuple(items[i : i + size]) for i in range(0, len(items), size)]


class _Heartbeat:
    """Folds per-run beats into one throttled sweep-level line."""

    def __init__(
        self,
        sweep: str,
        total: int,
        interval_s: float,
        stream: IO[str] | None,
    ) -> None:
        self.sweep = sweep
        self.total = total
        self.interval_s = interval_s
        self.stream = stream
        self.done = 0
        self.fractions: dict[str, float] = {}
        self._start = time.monotonic()
        self._next_due = self._start + interval_s

    def on_beat(self, beat: _ProgressBeat) -> None:
        self.fractions[beat.run_id] = beat.fraction

    def on_done(self, run_id: str) -> None:
        self.done += 1
        self.fractions.pop(run_id, None)

    def maybe_emit(self) -> None:
        if self.stream is None or time.monotonic() < self._next_due:
            return
        self._next_due = time.monotonic() + self.interval_s
        active = len(self.fractions)
        mean_fraction = (
            sum(self.fractions.values()) / active if active > 0 else 0.0
        )
        wall = time.monotonic() - self._start
        self.stream.write(
            f"[sweep {self.sweep}] {self.done}/{self.total} done  "
            f"active={active} mean_progress={mean_fraction:.0%}  "
            f"wall={wall:.0f}s\n"
        )
        self.stream.flush()


def _record_outcome(
    store: ResultsStore, run: SweepRun, outcome: _RunOutcome
) -> None:
    common = dict(
        run_id=run.run_id,
        sweep=run.sweep,
        run_index=run.run_index,
        system=run.request.system,
        policy=run.request.policy,
        workload=run.workload,
        seed=run.request.seed,
        request_json=run.request.to_json(),
    )
    if outcome.status == "completed" and outcome.summary is not None:
        store.record_completed(
            **common,  # type: ignore[arg-type]
            summary=outcome.summary,
            wall_s=outcome.wall_s,
            finished_unix_s=time.time(),
        )
    else:
        store.record_failed(
            **common,  # type: ignore[arg-type]
            error=outcome.error or "worker returned no error detail",
            wall_s=outcome.wall_s,
            finished_unix_s=time.time(),
        )


class _Ingest:
    """The parent's one consumer of worker messages (the single writer).

    :meth:`take` feeds progress beats to the heartbeat and records each
    run's outcome in the store exactly once, keeping the tallies the
    driver reports.
    """

    def __init__(
        self, store: ResultsStore, by_id: Mapping[str, SweepRun], heartbeat: _Heartbeat
    ) -> None:
        self.store = store
        self.by_id = by_id
        self.heartbeat = heartbeat
        self.reported: set[str] = set()
        self.completed = 0
        self.failed = 0

    def take(self, message: object) -> bool:
        """Handle one message; ``True`` when it recorded a new outcome."""
        if isinstance(message, _ProgressBeat):
            self.heartbeat.on_beat(message)
            return False
        if not isinstance(message, _RunOutcome) or message.run_id in self.reported:
            return False
        _record_outcome(self.store, self.by_id[message.run_id], message)
        self.reported.add(message.run_id)
        self.heartbeat.on_done(message.run_id)
        if message.status == "completed":
            self.completed += 1
        else:
            self.failed += 1
        return True


def _run_serial(
    tasks: list[_RunPayload], ingest: _Ingest, stop_after_runs: int | None
) -> bool:
    """In-process path for ``workers=1``: the honest single-process baseline.

    No pool, no pickling of results — but every task still goes through
    the JSON round-trip (each task runs as its own single-task chunk, so
    the ``stop_after_runs`` kill switch keeps per-task granularity) and
    both paths execute the identical computation. Returns whether the kill
    switch stopped it.
    """
    import queue as queue_module

    for task in tasks:
        if stop_after_runs is not None and len(ingest.reported) >= stop_after_runs:
            return True
        beats: "Queue[object]" = queue_module.Queue()
        _execute_chunk((task,), beats)
        while True:
            try:
                ingest.take(beats.get_nowait())
            except queue_module.Empty:
                break
        ingest.heartbeat.maybe_emit()
    return False


def run_sweep(
    spec: SweepSpec,
    store_path: str | Path,
    *,
    workers: int | None = None,
    chunk_size: int = 8,
    resume: bool = True,
    heartbeat_interval_s: float | None = 10.0,
    stop_after_runs: int | None = None,
    shuffle_seed: int | None = None,
    stream: IO[str] | None = None,
) -> SweepOutcome:
    """Execute a sweep into a results store, in parallel, resumably.

    Parameters
    ----------
    spec:
        The sweep to run; materialised with :meth:`SweepSpec.materialize`.
    store_path:
        SQLite results store (created if absent).
    workers:
        Pool size; ``None`` means ``os.cpu_count()``. ``1`` runs in-process
        with no pool.
    chunk_size:
        Runs per pool submission.
    resume:
        Skip run ids already stored as completed. Failed rows are always
        retried. ``False`` re-executes (and overwrites) everything.
    heartbeat_interval_s:
        Cadence of the sweep-level progress line on ``stream`` (default
        stderr); ``None`` disables it. Workers ship *per-run* progress
        beats at half this cadence; with ``None`` they ship none, leaving
        only per-run completion granularity.
    stop_after_runs:
        Stop dispatch after ingesting this many run outcomes — simulates a
        killed driver for resume tests. In-flight chunk remainders are
        abandoned (not recorded), exactly like a real kill.
    shuffle_seed:
        Execute runs in a shuffled order (results must be identical — seeds
        are keyed by materialisation index, and tests rely on this).
    stream:
        Heartbeat destination; defaults to ``sys.stderr``.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if stop_after_runs is not None and stop_after_runs < 0:
        raise ConfigurationError("stop_after_runs must be >= 0")

    wall_start = time.monotonic()
    runs = spec.materialize()
    by_id = {run.run_id: run for run in runs}

    if heartbeat_interval_s is not None and stream is None:
        stream = sys.stderr
    progress_interval_s = (
        None if heartbeat_interval_s is None else heartbeat_interval_s / 2.0
    )

    with ResultsStore(store_path) as store:
        done_ids = store.known_run_ids(status="completed") if resume else set()
        pending = [run for run in runs if run.run_id not in done_ids]
        skipped = len(runs) - len(pending)

        if shuffle_seed is not None:
            order = np.random.default_rng(shuffle_seed).permutation(len(pending))
            pending = [pending[int(i)] for i in order]

        tasks = [
            _RunPayload(
                run_id=run.run_id,
                sweep=run.sweep,
                run_index=run.run_index,
                workload=run.workload,
                request=run.request.to_json_dict(),
                progress_interval_s=progress_interval_s,
            )
            for run in pending
        ]
        heartbeat = _Heartbeat(
            spec.name,
            len(runs),
            heartbeat_interval_s if heartbeat_interval_s is not None else 3600.0,
            stream if heartbeat_interval_s is not None else None,
        )
        heartbeat.done = skipped
        ingest = _Ingest(store, by_id, heartbeat)

        if workers == 1 or not pending:
            stopped = _run_serial(tasks, ingest, stop_after_runs)
        else:
            stopped = _run_pooled(
                tasks,
                ingest,
                workers=workers,
                chunk_size=chunk_size,
                stop_after_runs=stop_after_runs,
            )

    wall_s = time.monotonic() - wall_start
    completed, failed = ingest.completed, ingest.failed
    executed = completed + failed
    return SweepOutcome(
        sweep=spec.name,
        total=len(runs),
        skipped=skipped,
        executed=executed,
        completed=completed,
        failed=failed,
        stopped_early=stopped,
        wall_s=wall_s,
        runs_per_s=executed / wall_s if wall_s > 0 else 0.0,
    )


def _run_pooled(
    tasks: list[_RunPayload],
    ingest: _Ingest,
    *,
    workers: int | None,
    chunk_size: int,
    stop_after_runs: int | None,
) -> bool:
    """Fan chunks across a process pool, ingesting results as they stream in.

    Returns whether the kill switch stopped it.
    """
    import multiprocessing

    manager: "SyncManager" = multiprocessing.Manager()

    def _reap_dead_chunk(
        chunk: tuple[_RunPayload, ...], error: BaseException
    ) -> None:
        """Record every unreported run of a chunk whose task died wholesale.

        Covers worker crashes / ``BrokenProcessPool``: the runs never got
        to report, and silence is not an option for a warehouse.
        """
        for payload in chunk:
            ingest.take(
                _RunOutcome(
                    run_id=payload.run_id,
                    status="failed",
                    summary=None,
                    error=f"chunk task died before the run reported: {error!r}",
                    wall_s=0.0,
                )
            )

    try:
        queue: "Queue[object]" = _results_queue(manager)
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            future_chunks: dict[Future[None], tuple[_RunPayload, ...]] = {
                pool.submit(_execute_chunk, chunk, queue): chunk
                for chunk in _chunks(tasks, chunk_size)
            }
            outstanding = set(future_chunks)
            # Termination is by deterministic accounting, never by peeking:
            # Queue.empty() is documented unreliable across processes, so
            # "all futures done and the queue looks empty" can still leave
            # the last _RunOutcome in flight. Every pending run either
            # reports over the queue or is reaped from a dead chunk, so the
            # loop runs until the two tallies meet.
            while outstanding or len(ingest.reported) < len(tasks):
                drained = False
                while True:
                    try:
                        message = queue.get(timeout=0.05)
                    except Empty:
                        break
                    drained = True
                    if (
                        ingest.take(message)
                        and stop_after_runs is not None
                        and len(ingest.reported) >= stop_after_runs
                    ):
                        # Simulated kill: stop ingesting. Queued chunks are
                        # cancelled; in-flight ones drain into the queue
                        # unread, so their runs are never recorded —
                        # exactly a kill's store footprint, without
                        # orphaning live worker processes.
                        pool.shutdown(wait=True, cancel_futures=True)
                        return True
                ingest.heartbeat.maybe_emit()
                if not outstanding:
                    continue
                if drained:
                    finished = {f for f in outstanding if f.done()}
                else:
                    finished, _ = wait(
                        outstanding, timeout=0.1, return_when=FIRST_COMPLETED
                    )
                outstanding -= finished
                for future in finished:
                    error = future.exception()
                    if error is not None:
                        _reap_dead_chunk(future_chunks[future], error)
        except BaseException:
            # KeyboardInterrupt (and anything else escaping the ingest
            # loop) must not lose work or orphan workers: persist outcomes
            # already delivered to the queue, tell the user the sweep is
            # resumable, then shut the pool down on the way out.
            salvaged = _salvage_queue(queue, ingest)
            stream = ingest.heartbeat.stream
            if stream is not None:
                stream.write(
                    f"[sweep {ingest.heartbeat.sweep}] interrupted — "
                    f"{len(ingest.reported)} run(s) recorded ({salvaged} salvaged "
                    "from the queue); re-run the same sweep to resume\n"
                )
                stream.flush()
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    finally:
        manager.shutdown()
    return False


def _results_queue(manager: "SyncManager") -> "Queue[object]":
    """The parent-side results queue (module hook so tests can wrap it)."""
    return manager.Queue()


def _salvage_queue(queue: "Queue[object]", ingest: _Ingest) -> int:
    """Drain and persist outcomes already delivered when ingest is aborted.

    Called on the interrupt path: an outcome sitting in the manager queue
    is finished work, and dropping it would re-run that simulation on
    resume for nothing. Best effort — a manager that is already gone just
    ends the drain. Returns the number of outcomes recorded.
    """
    salvaged = 0
    while True:
        try:
            message = queue.get_nowait()
        except (Empty, OSError, EOFError):
            return salvaged
        salvaged += ingest.take(message)
