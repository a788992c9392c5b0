"""Command-line entry point: ``repro-sweep`` / ``python -m repro.sweep``.

Subcommands:

``run``
    Execute a sweep spec (JSON/YAML) into a SQLite results store, in
    parallel, resuming past completed runs by default.
``status``
    Completed/failed counts for a store (optionally one sweep).
``query``
    Filter rows by axis values, order by any metric (top-N), print a table
    or export CSV.
``example``
    Write a commented-by-construction example spec to get started.

Examples
--------
Run a two-policy, 8-seed comparison on the tiny system with 4 workers::

    repro-sweep example --out sweep.json
    repro-sweep run sweep.json --store results.sqlite --workers 4
    repro-sweep status results.sqlite
    repro-sweep query results.sqlite --order-by total_energy_kwh --limit 5
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from ..exceptions import SRapsError
from .driver import run_sweep
from .spec import WORKLOAD_VARIANTS, SweepSpec, load_sweep_spec
from .store import SUMMARY_COLUMNS, ResultsStore, StoredRun

__all__ = ["main", "build_parser"]

_EXAMPLE_SPEC: dict[str, object] = {
    "name": "tiny-policy-compare",
    "duration": "12h",
    "systems": ["tiny"],
    "policies": ["fcfs", "backfill"],
    "workloads": ["default", "busy_trace"],
    "n_seeds": 4,
    "root_seed": 42,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description=(
            "Fan a grid of S-RAPS simulation runs across a process pool and "
            "stream the results into a queryable SQLite warehouse."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep spec into a results store")
    run_p.add_argument("spec", help="sweep spec file (JSON, or YAML if available)")
    run_p.add_argument(
        "--store", required=True, metavar="PATH", help="SQLite results store"
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size; 1 = in-process, default: cpu count",
    )
    run_p.add_argument(
        "--chunk-size",
        type=int,
        default=8,
        help="runs per pool submission (default: 8)",
    )
    run_p.add_argument(
        "--no-resume",
        action="store_true",
        help="re-execute runs already completed in the store (overwrites rows)",
    )
    run_p.add_argument(
        "--heartbeat",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="sweep progress line cadence on stderr; 0 disables (default: 10)",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress the outcome summary"
    )

    status_p = sub.add_parser("status", help="completed/failed counts for a store")
    status_p.add_argument("store", help="SQLite results store")
    status_p.add_argument(
        "--sweep", default=None, help="restrict to one sweep name"
    )

    query_p = sub.add_parser("query", help="filter, rank and export stored runs")
    query_p.add_argument("store", help="SQLite results store")
    query_p.add_argument("--sweep", default=None, help="filter: sweep name")
    query_p.add_argument("--system", default=None, help="filter: system name")
    query_p.add_argument("--policy", default=None, help="filter: policy name")
    query_p.add_argument("--workload", default=None, help="filter: workload variant")
    query_p.add_argument("--seed", type=int, default=None, help="filter: seed")
    query_p.add_argument(
        "--status",
        default=None,
        choices=("completed", "failed"),
        help="filter: run status",
    )
    query_p.add_argument(
        "--order-by",
        default=None,
        metavar="COLUMN",
        help="order by an axis or metric column, e.g. total_energy_kwh",
    )
    query_p.add_argument(
        "--descending", action="store_true", help="order descending (top-N first)"
    )
    query_p.add_argument(
        "--limit", type=int, default=None, help="return at most this many rows"
    )
    query_p.add_argument(
        "--csv", metavar="PATH", default=None, help="export the result as CSV"
    )
    query_p.add_argument(
        "--metrics",
        default="total_energy_kwh,mean_pue,mean_utilization,mean_wait_s",
        help="comma-separated metric columns for the printed table",
    )

    example_p = sub.add_parser("example", help="write an example sweep spec")
    example_p.add_argument(
        "--out", metavar="PATH", default=None, help="destination (default: stdout)"
    )
    return parser


def _fmt_metric(value: float) -> str:
    if not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.4g}"


def _print_query_table(rows: list[StoredRun], metrics: list[str]) -> None:
    header = ["run_id", "system", "policy", "workload", "seed", "status", *metrics]
    table = [header]
    for run in rows:
        cells = [
            run.run_id,
            run.system,
            run.policy or "-",
            run.workload,
            str(run.seed),
            run.status,
        ]
        for name in metrics:
            if run.summary is None:
                cells.append("-")
            else:
                cells.append(_fmt_metric(run.summary[name]))
        table.append(cells)
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.spec)
    heartbeat = None if args.heartbeat <= 0 else args.heartbeat
    outcome = run_sweep(
        spec,
        args.store,
        workers=args.workers,
        chunk_size=args.chunk_size,
        resume=not args.no_resume,
        heartbeat_interval_s=heartbeat,
    )
    if not args.quiet:
        print(
            f"sweep {outcome.sweep!r}: {outcome.total} runs "
            f"({outcome.skipped} resumed, {outcome.completed} completed, "
            f"{outcome.failed} failed) in {outcome.wall_s:.1f}s "
            f"[{outcome.runs_per_s:.2f} runs/s]"
        )
    return 0 if outcome.failed == 0 else 1


def _cmd_status(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        counts = store.count_by_status(sweep=args.sweep)
    completed = counts.get("completed", 0)
    failed = counts.get("failed", 0)
    scope = f"sweep {args.sweep!r}" if args.sweep else "store"
    print(f"{scope}: {completed} completed, {failed} failed")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    metrics = [name.strip() for name in args.metrics.split(",") if name.strip()]
    unknown = sorted(set(metrics) - set(SUMMARY_COLUMNS))
    if unknown:
        print(
            f"unknown metric column(s): {', '.join(unknown)}; known: "
            + ", ".join(SUMMARY_COLUMNS),
            file=sys.stderr,
        )
        return 2
    query_kwargs = dict(
        sweep=args.sweep,
        system=args.system,
        policy=args.policy,
        workload=args.workload,
        seed=args.seed,
        status=args.status,
        order_by=args.order_by,
        descending=args.descending,
        limit=args.limit,
    )
    with ResultsStore(args.store) as store:
        if args.csv:
            count = store.to_csv(args.csv, **query_kwargs)
            print(f"wrote {count} rows to {args.csv}")
            return 0
        rows = store.runs(**query_kwargs)  # type: ignore[arg-type]
    if not rows:
        print("no matching runs")
        return 0
    _print_query_table(rows, metrics)
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    text = json.dumps(_EXAMPLE_SPEC, indent=2) + "\n"
    # Validate what we hand out: the example must always materialise.
    SweepSpec.from_json_dict(_EXAMPLE_SPEC).materialize()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote example spec to {args.out}")
        print("known workload variants: " + ", ".join(sorted(WORKLOAD_VARIANTS)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "status": _cmd_status,
        "query": _cmd_query,
        "example": _cmd_example,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # The driver has already salvaged queued outcomes and shut the pool
        # down; every recorded run is durable, so the same command resumes.
        print(
            "interrupted — completed runs are stored; re-run the same "
            "command to resume",
            file=sys.stderr,
        )
        return 130
    except (SRapsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
