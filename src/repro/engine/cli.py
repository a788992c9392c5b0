"""Command-line entry point: ``repro-sim`` / ``python -m repro.engine``.

Wires a synthetic (or SWF-loaded) workload through an end-to-end simulation
of a named system and prints the summary metrics; the time series (one
row per step, each with the ``dt_s`` it stands for) and the full record can
be exported for plotting.

Examples
--------
Replay a 6-hour synthetic window on the tiny test system::

    repro-sim --system tiny --mode replay --duration 6h --seed 1

Reschedule a day on Frontier with EASY backfill and export the series::

    repro-sim --system frontier --mode backfill --duration 24h \
        --csv frontier.csv --json frontier.json

Feed a Parallel Workloads Archive trace through FCFS::

    repro-sim --system marconi100 --mode fcfs --swf kth_sp2.swf \
        --processors-per-node 4
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from typing import Sequence

from ..config import available_systems, get_system_config
from ..exceptions import ConfigurationError, SRapsError
from ..obs import EventLog, MetricsRegistry, Observability, ProgressReporter, SpanTracer
from ..power.signals import OperatingSignals
from ..telemetry import read_swf
from ..units import parse_duration as _parse_offset_s
from .engine import parse_duration, run_simulation
from .scheduler import available_policies

__all__ = ["main", "build_parser"]

#: CLI diagnostics logger — a child of ``repro``, so the stderr handler
#: ``main()`` attaches (and only ``main()``; importing this module never
#: touches the logging tree) sees both CLI messages and run events.
_LOG = logging.getLogger("repro.cli")

#: (summary key, label, format, unit) rows of the printed report.
_REPORT_ROWS = (
    ("jobs_completed", "jobs completed", "{:.0f}", ""),
    ("jobs_dismissed", "jobs dismissed", "{:.0f}", ""),
    ("simulated_s", "simulated span", "{:.0f}", "s"),
    ("total_energy_kwh", "total energy", "{:.1f}", "kWh"),
    ("it_energy_kwh", "IT energy", "{:.1f}", "kWh"),
    ("cooling_energy_kwh", "cooling energy", "{:.1f}", "kWh"),
    ("mean_pue", "mean PUE", "{:.4f}", ""),
    ("max_pue", "max PUE", "{:.4f}", ""),
    ("mean_utilization", "mean utilization", "{:.1%}", ""),
    ("node_hours", "node-hours", "{:.1f}", "h"),
    ("mean_wait_s", "mean wait", "{:.0f}", "s"),
    ("max_wait_s", "max wait", "{:.0f}", "s"),
    ("energy_cost", "energy cost", "{:.2f}", ""),
    ("carbon_kg", "carbon", "{:.1f}", "kg"),
    ("cap_violation_kwh", "cap violation", "{:.3f}", "kWh"),
    ("capped_hold_s", "capped hold", "{:.0f}", "job-s"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Run the S-RAPS digital-twin simulation: workload -> scheduler -> "
            "resource manager -> power -> cooling -> statistics."
        ),
    )
    parser.add_argument(
        "--system",
        default="tiny",
        help="registered system name (see --list-systems); default: tiny",
    )
    parser.add_argument(
        "--mode",
        "--policy",
        dest="mode",
        default=None,
        choices=(*available_policies(), "easy"),
        metavar="POLICY",
        help=(
            "scheduling policy: "
            + ", ".join((*available_policies(), "easy"))
            + " (default: the system's default policy)"
        ),
    )
    parser.add_argument(
        "--duration",
        default="24h",
        help="synthetic workload window, e.g. 6h, 90m, 86400 (default: 24h)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument(
        "--swf",
        metavar="PATH",
        default=None,
        help="load the workload from a Standard Workload Format file instead",
    )
    parser.add_argument(
        "--processors-per-node",
        type=int,
        default=1,
        help="SWF processor-to-node conversion divisor (default: 1)",
    )
    parser.add_argument(
        "--horizon",
        default=None,
        help="hard stop for the simulation clock, e.g. 48h (default: run to drain)",
    )
    power_group = parser.add_argument_group("power-aware operation")
    power_group.add_argument(
        "--power-cap",
        type=float,
        default=None,
        metavar="KW",
        help=(
            "IT power cap in kW: wraps the policy in a power-capping "
            "scheduler that holds (or dismisses) jobs exceeding the cap"
        ),
    )
    power_group.add_argument(
        "--price-per-kwh",
        type=float,
        default=None,
        metavar="PRICE",
        help="constant electricity price weighting the energy_cost metric",
    )
    power_group.add_argument(
        "--carbon-per-kwh",
        type=float,
        default=None,
        metavar="KG",
        help="constant carbon intensity (kg/kWh) weighting the carbon_kg metric",
    )
    power_group.add_argument(
        "--cap-window",
        nargs=2,
        default=None,
        metavar=("START", "END"),
        help=(
            "demand-response window: apply --power-cap only between the two "
            "offsets (e.g. --cap-window 2h 6h); uncapped outside"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="export the time series (one row per step) as CSV",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="export summary + time series as JSON",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary report"
    )
    parser.add_argument(
        "--list-systems",
        action="store_true",
        help="list registered system configurations and exit",
    )
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="write structured run events (job lifecycle, milestones) as JSON lines",
    )
    obs_group.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write per-phase spans as Chrome trace-event JSON "
            "(load in chrome://tracing or ui.perfetto.dev)"
        ),
    )
    obs_group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics snapshot (.csv extension selects CSV, else JSON)",
    )
    obs_group.add_argument(
        "--progress",
        action="store_true",
        help="print wall-clock-cadence progress heartbeats to stderr",
    )
    obs_group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="stream run events to stderr (-v), plus debug diagnostics (-vv)",
    )
    return parser


class _ConsoleFormatter(logging.Formatter):
    """Human-readable stderr lines; structured event fields render inline."""

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict) and fields:
            details = " ".join(f"{key}={value}" for key, value in fields.items())
            message = f"{message}  {details}"
        if record.levelno >= logging.WARNING:
            return f"{record.levelname.lower()}: {message}"
        return message


def _print_report(result_policy: str, system_name: str, summary: dict[str, float]) -> None:
    """Print the summary table, tolerating absent keys and idle-run PUEs.

    A summary produced by an older export (or a custom stats collector) may
    lack rows; a run where no job ever drew power reports ``max_pue=inf``.
    Neither should crash the report.
    """
    width = max(len(label) for _, label, _, _ in _REPORT_ROWS)
    print(f"simulation of {system_name!r} under policy {result_policy!r}")
    for key, label, fmt, unit in _REPORT_ROWS:
        raw = summary.get(key)
        if raw is None:
            value = "n/a"
        elif isinstance(raw, float) and not math.isfinite(raw):
            value = "n/a (idle)"
        else:
            value = fmt.format(raw)
        suffix = f" {unit}" if unit else ""
        print(f"  {label:<{width}}  {value}{suffix}")


def _signals_from_args(args: argparse.Namespace) -> OperatingSignals | None:
    """Build the operating signals the power flags describe (or ``None``)."""
    if (
        args.power_cap is None
        and args.price_per_kwh is None
        and args.carbon_per_kwh is None
    ):
        if args.cap_window is not None:
            raise ConfigurationError("--cap-window requires --power-cap")
        return None
    if args.cap_window is not None:
        if args.power_cap is None:
            raise ConfigurationError("--cap-window requires --power-cap")
        start_s = float(_parse_offset_s(args.cap_window[0]))
        end_s = float(_parse_offset_s(args.cap_window[1]))
        return OperatingSignals.cap_window(
            start_s,
            end_s,
            args.power_cap,
            price_per_kwh=args.price_per_kwh,
            carbon_kg_per_kwh=args.carbon_per_kwh,
        )
    return OperatingSignals.constant(
        power_cap_kw=args.power_cap,
        price_per_kwh=args.price_per_kwh,
        carbon_kg_per_kwh=args.carbon_per_kwh,
    )


def _build_obs(args: argparse.Namespace) -> Observability | None:
    """The :class:`Observability` bundle the CLI flags ask for (or ``None``)."""
    tracer = SpanTracer() if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    events = None
    if args.log_json:
        events = EventLog.to_jsonl(args.log_json)
    elif args.verbose:
        # -v without --log-json: events flow through the stderr handler.
        events = EventLog()
    progress = ProgressReporter(stream=sys.stderr) if args.progress else None
    obs = Observability(tracer=tracer, metrics=metrics, events=events, progress=progress)
    return obs if obs.enabled else None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_systems:
        for name in available_systems():
            config = get_system_config(name)
            print(f"{name:<16} {config.total_nodes:>7} nodes  {config.description}")
        return 0

    # The stderr diagnostics handler exists only for the duration of this
    # call: libraries importing repro never get handlers forced on them, and
    # repeated main() invocations (tests) do not stack handlers.
    root_log = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_ConsoleFormatter())
    level = (
        logging.WARNING
        if args.verbose == 0
        else logging.INFO if args.verbose == 1 else logging.DEBUG
    )
    handler.setLevel(level)
    prev_level = root_log.level
    root_log.addHandler(handler)
    if root_log.getEffectiveLevel() > level:
        root_log.setLevel(level)

    obs = _build_obs(args)
    try:
        signals = _signals_from_args(args)
        workload = (
            read_swf(args.swf, processors_per_node=args.processors_per_node)
            if args.swf is not None
            else None
        )
        result = run_simulation(
            system=args.system,
            policy=args.mode,
            # Parsed here even for an SWF workload, whose window it does
            # not set, so a bad --duration is an error either way.
            duration=parse_duration(args.duration),
            seed=args.seed,
            workload=workload,
            horizon=args.horizon,
            signals=signals,
            obs=obs,
        )
    except (SRapsError, OSError) as exc:
        _LOG.error("%s", exc)
        return 1
    finally:
        if obs is not None and obs.events is not None:
            obs.events.close()
        root_log.removeHandler(handler)
        root_log.setLevel(prev_level)
        handler.close()

    if obs is not None:
        # _build_obs creates the tracer/registry exactly when the matching
        # output flag is set, so these narrowings never actually skip.
        if args.trace_out and obs.tracer is not None:
            obs.tracer.to_chrome_trace(args.trace_out)
        if args.metrics_out and obs.metrics is not None:
            if str(args.metrics_out).endswith(".csv"):
                obs.metrics.to_csv(args.metrics_out)
            else:
                obs.metrics.to_json(args.metrics_out)

    if args.csv:
        result.stats.to_csv(args.csv)
    if args.json:
        result.stats.to_json(args.json)
    if not args.quiet:
        _print_report(result.policy, result.system.name, result.summary())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
