"""SQLite results warehouse for scenario sweeps.

One ``runs`` table, keyed by the request's content-hash ``run_id``. Each row
carries the sweep coordinates (sweep name, run index, axis values), the full
request JSON (so any row can be re-executed verbatim), the run status and —
for completed runs — every summary metric flattened into its own ``REAL``
column plus a JSON copy. Failed runs store the worker traceback instead.

The store is strictly single-writer: the sweep driver's parent process is
the only one that ever opens the database for writing (workers send results
back over a queue), so SQLite's WAL mode plus one connection gives durable
per-run commits with no locking games. ``INSERT OR REPLACE`` keyed on
``run_id`` makes ingest idempotent — re-recording a run overwrites its row
rather than duplicating it, which is what sweep resume leans on.

The query layer (:meth:`ResultsStore.runs`, :meth:`ResultsStore.to_csv`)
covers the paper's comparison workflow: filter rows by axis values, order by
any metric for top-N ranking, export to CSV for plotting.
"""

from __future__ import annotations

import csv
import json
import math
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Mapping

from ..engine.stats import json_safe
from ..exceptions import ConfigurationError

__all__ = ["ResultsStore", "StoredRun", "SUMMARY_COLUMNS"]

#: Summary metrics flattened into dedicated REAL columns, in schema order.
#: Must stay in sync with :meth:`repro.engine.stats.StatsCollector.summary`.
SUMMARY_COLUMNS: tuple[str, ...] = (
    "total_energy_kwh",
    "it_energy_kwh",
    "cooling_energy_kwh",
    "mean_pue",
    "max_pue",
    "mean_utilization",
    "node_hours",
    "mean_wait_s",
    "max_wait_s",
    "makespan_s",
    "jobs_completed",
    "jobs_dismissed",
    "ticks",
    "simulated_s",
    "mean_cpu_util",
    "mean_gpu_util",
    "energy_cost",
    "carbon_kg",
    "cap_violation_kwh",
    "capped_hold_s",
)

#: Columns added after the first released schema: rows recorded by an older
#: store predate them, so their SQL values are NULL (decoded as NaN).
_MIGRATED_COLUMNS: tuple[str, ...] = (
    "mean_cpu_util",
    "mean_gpu_util",
    "energy_cost",
    "carbon_kg",
    "cap_violation_kwh",
    "capped_hold_s",
)

#: Columns the axis filters and ``order_by`` may reference (whitelist: these
#: names are interpolated into SQL, so nothing outside this set is allowed).
_AXIS_COLUMNS: tuple[str, ...] = (
    "sweep",
    "run_index",
    "system",
    "policy",
    "workload",
    "seed",
    "status",
)
_ORDERABLE: frozenset[str] = frozenset(_AXIS_COLUMNS) | frozenset(SUMMARY_COLUMNS) | {
    "run_id",
    "wall_s",
    "finished_unix_s",
}

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    sweep TEXT NOT NULL,
    run_index INTEGER NOT NULL,
    system TEXT NOT NULL,
    policy TEXT,
    workload TEXT NOT NULL,
    seed INTEGER NOT NULL,
    status TEXT NOT NULL CHECK (status IN ('completed', 'failed')),
    request_json TEXT NOT NULL,
    summary_json TEXT,
    error TEXT,
    wall_s REAL,
    finished_unix_s REAL,
    {", ".join(f"{name} REAL" for name in SUMMARY_COLUMNS)}
);
CREATE INDEX IF NOT EXISTS runs_sweep_status ON runs (sweep, status);
"""


@dataclass(frozen=True)
class StoredRun:
    """One warehouse row, decoded.

    ``summary`` is ``None`` for failed runs; ``error`` is ``None`` for
    completed ones. The REAL-column metrics round-trip exactly (SQLite REAL
    is an IEEE double, including ``inf`` for the idle-system PUE sentinel);
    ``summary`` is rebuilt from them, not from the lossy JSON copy.
    """

    run_id: str
    sweep: str
    run_index: int
    system: str
    policy: str | None
    workload: str
    seed: int
    status: str
    request_json: str
    summary: dict[str, float] | None
    error: str | None
    wall_s: float | None
    finished_unix_s: float | None


def _row_to_stored_run(row: sqlite3.Row) -> StoredRun:
    summary: dict[str, float] | None = None
    if row["status"] == "completed":
        # Migrated columns are NULL on rows recorded before they existed.
        summary = {
            name: math.nan if row[name] is None else float(row[name])
            for name in SUMMARY_COLUMNS
        }
    return StoredRun(
        run_id=row["run_id"],
        sweep=row["sweep"],
        run_index=int(row["run_index"]),
        system=row["system"],
        policy=row["policy"],
        workload=row["workload"],
        seed=int(row["seed"]),
        status=row["status"],
        request_json=row["request_json"],
        summary=summary,
        error=row["error"],
        wall_s=None if row["wall_s"] is None else float(row["wall_s"]),
        finished_unix_s=(
            None if row["finished_unix_s"] is None else float(row["finished_unix_s"])
        ),
    )


class ResultsStore:
    """Single-writer SQLite warehouse for sweep results.

    Usable as a context manager; every ``record_*`` call commits, so each
    run is durable the moment it is ingested (per-run resume granularity —
    a killed sweep loses at most the in-flight runs, never recorded ones).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._migrate_columns()
        self._conn.commit()

    def _migrate_columns(self) -> None:
        """Bring a pre-existing database up to the current column set.

        ``CREATE TABLE IF NOT EXISTS`` is a no-op on an old file, so metric
        columns added since it was created must be bolted on here. New
        columns start NULL on old rows (decoded as NaN) — re-running those
        requests fills them, since ingest is an idempotent upsert.
        """
        existing = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(runs)").fetchall()
        }
        for name in SUMMARY_COLUMNS:
            if name not in existing:
                self._conn.execute(f"ALTER TABLE runs ADD COLUMN {name} REAL")

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # -- ingest (single writer) ------------------------------------------------

    def record_completed(
        self,
        *,
        run_id: str,
        sweep: str,
        run_index: int,
        system: str,
        policy: str | None,
        workload: str,
        seed: int,
        request_json: str,
        summary: Mapping[str, float],
        wall_s: float,
        finished_unix_s: float,
    ) -> None:
        """Upsert a completed run with its full summary."""
        missing = sorted(set(SUMMARY_COLUMNS) - set(summary))
        if missing:
            raise ConfigurationError(
                f"run {run_id} summary is missing metric(s): {', '.join(missing)}"
            )
        columns = [
            "run_id",
            "sweep",
            "run_index",
            "system",
            "policy",
            "workload",
            "seed",
            "status",
            "request_json",
            "summary_json",
            "error",
            "wall_s",
            "finished_unix_s",
            *SUMMARY_COLUMNS,
        ]
        values = [
            run_id,
            sweep,
            run_index,
            system,
            policy,
            workload,
            seed,
            "completed",
            request_json,
            # JSON copy for humans/tools; non-finite floats (idle-PUE inf)
            # become null here but survive exactly in the REAL columns.
            json.dumps(json_safe(dict(summary)), sort_keys=True),
            None,
            wall_s,
            finished_unix_s,
            *[float(summary[name]) for name in SUMMARY_COLUMNS],
        ]
        placeholders = ", ".join("?" for _ in columns)
        self._conn.execute(
            f"INSERT OR REPLACE INTO runs ({', '.join(columns)}) "
            f"VALUES ({placeholders})",
            values,
        )
        self._conn.commit()

    def record_failed(
        self,
        *,
        run_id: str,
        sweep: str,
        run_index: int,
        system: str,
        policy: str | None,
        workload: str,
        seed: int,
        request_json: str,
        error: str,
        wall_s: float | None,
        finished_unix_s: float,
    ) -> None:
        """Upsert a failed run with its traceback text."""
        self._conn.execute(
            "INSERT OR REPLACE INTO runs (run_id, sweep, run_index, system, "
            "policy, workload, seed, status, request_json, summary_json, "
            "error, wall_s, finished_unix_s) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, 'failed', ?, NULL, ?, ?, ?)",
            (
                run_id,
                sweep,
                run_index,
                system,
                policy,
                workload,
                seed,
                request_json,
                error,
                wall_s,
                finished_unix_s,
            ),
        )
        self._conn.commit()

    # -- queries ---------------------------------------------------------------

    def known_run_ids(self, *, status: str = "completed") -> set[str]:
        """Run ids already stored with ``status`` (the resume skip-set).

        Resume deliberately asks for ``'completed'`` only: failed runs stay
        eligible so a re-run retries them.
        """
        rows = self._conn.execute(
            "SELECT run_id FROM runs WHERE status = ?", (status,)
        ).fetchall()
        return {row["run_id"] for row in rows}

    def count_by_status(self, *, sweep: str | None = None) -> dict[str, int]:
        """``{'completed': n, 'failed': m}`` counts, optionally per sweep."""
        query = "SELECT status, COUNT(*) AS n FROM runs"
        params: tuple[object, ...] = ()
        if sweep is not None:
            query += " WHERE sweep = ?"
            params = (sweep,)
        query += " GROUP BY status"
        return {
            row["status"]: int(row["n"])
            for row in self._conn.execute(query, params).fetchall()
        }

    def runs(
        self,
        *,
        sweep: str | None = None,
        system: str | None = None,
        policy: str | None = None,
        workload: str | None = None,
        seed: int | None = None,
        status: str | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[StoredRun]:
        """Query rows by axis values, optionally ordered and truncated.

        ``order_by`` must name a known column (axis, metric or bookkeeping)
        — the whitelist is what keeps the interpolation injection-safe.
        ``descending=True`` with a metric ``order_by`` plus ``limit`` is
        the top-N-by-metric query.
        """
        clauses: list[str] = []
        params: list[object] = []
        filters: tuple[tuple[str, object | None], ...] = (
            ("sweep", sweep),
            ("system", system),
            ("policy", policy),
            ("workload", workload),
            ("seed", seed),
            ("status", status),
        )
        for column, value in filters:
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        query = "SELECT * FROM runs"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        if order_by is not None:
            if order_by not in _ORDERABLE:
                raise ConfigurationError(
                    f"cannot order by {order_by!r}; known columns: "
                    + ", ".join(sorted(_ORDERABLE))
                )
            query += f" ORDER BY {order_by}" + (" DESC" if descending else " ASC")
        else:
            query += " ORDER BY sweep, run_index"
        if limit is not None:
            if limit < 1:
                raise ConfigurationError("limit must be >= 1")
            query += " LIMIT ?"
            params.append(limit)
        rows = self._conn.execute(query, params).fetchall()
        return [_row_to_stored_run(row) for row in rows]

    def to_csv(self, path: str | Path, **query_kwargs: object) -> int:
        """Export a :meth:`runs` query to CSV; returns the row count.

        Columns: run id, sweep coordinates, status, wall time, then every
        summary metric (empty for failed runs, ``inf`` rendered as ``inf``).
        """
        stored = self.runs(**query_kwargs)  # type: ignore[arg-type]
        header = [
            "run_id",
            "sweep",
            "run_index",
            "system",
            "policy",
            "workload",
            "seed",
            "status",
            "wall_s",
            *SUMMARY_COLUMNS,
        ]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for run in stored:
                metrics: list[object] = (
                    [""] * len(SUMMARY_COLUMNS)
                    if run.summary is None
                    else [_csv_number(run.summary[name]) for name in SUMMARY_COLUMNS]
                )
                writer.writerow(
                    [
                        run.run_id,
                        run.sweep,
                        run.run_index,
                        run.system,
                        "" if run.policy is None else run.policy,
                        run.workload,
                        run.seed,
                        run.status,
                        "" if run.wall_s is None else run.wall_s,
                        *metrics,
                    ]
                )
        return len(stored)


def _csv_number(value: float) -> object:
    """Render a metric for CSV (``inf`` spelled out, finite values as-is)."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value
