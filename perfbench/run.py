"""The repository's benchmark: one workload, timed in process CPU seconds.

    python3 perfbench/run.py --workload capped_busy_tiny --seed 42 --seconds 30 --trace 0

Every sample is a fresh interpreter running ``perfbench/sample.py`` on one
input derived from ``--seed``; samples run one after another until
``--seconds`` have passed (at least three, or two untraced/traced pairs).

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json`` as
medians over the samples, cycling through the workload's inputs.
``--trace 1`` alternates untraced and traced samples of the first input and
reports the ``per_layer`` metrics: medians of the traced samples' layer self
times, their counts (which must repeat exactly), and the tracing overhead.

Every run of every sample is checked; a run that raises or fails a check
counts as failed. At the default seed the summaries must also match
``perfbench/reference.json`` (``record_reference.py`` writes it). Per-sample
diagnostics (wall time, host steal, versions, revision) are printed but not
judged. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed the reference summaries were recorded at.
DEFAULT_SEED = 42
#: Distinct inputs per run, cycled over the samples. Distinct inputs average
#: out how much a workload's cost depends on its seed; repeats of an input
#: let the median reject host noise.
INPUTS = {"capped_busy_tiny": 16, "frontier_scale": 4, "policy_sweep_tiny": 8}
MIN_SAMPLES = 3
MIN_TRACE_PAIRS = 2
#: A sample running longer than this is killed and counts as failed.
SAMPLE_TIMEOUT_S = 60.0
#: The untimed first sample compiles the sources and proves they run.
WARMUP_SCALE = 0.1
REFERENCE_RTOL = 1e-9
#: Times are reported in seconds of a reference host, because process CPU
#: time alone still moves with the load other tenants put on the host. On the
#: reference host the calibration loop of ``sample.py`` takes this long ...
REFERENCE_CALIBRATION_S = 0.1
#: ... and starting Python and importing NumPy (set-up's own host-speed
#: probe, ``sample.IMPORT_S``) takes this long.
REFERENCE_IMPORT_S = 0.19

#: One sample: (traced, input index, the record sample.py printed or None).
Sample = tuple[int, int, "dict | None"]


def run_sample(
    workload: str, seed: int, index: int, trace: int, workdir: Path, scale: float
) -> dict | None:
    """One sample in a fresh interpreter; ``None`` if it produced no record."""
    command = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--index", str(index),
        "--trace", str(trace),
        "--workdir", str(workdir),
        "--scale", repr(scale),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {SAMPLE_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args: argparse.Namespace, workdir: Path) -> list[Sample]:
    """Run samples until ``--seconds`` have passed: ``(trace, index, record)``."""
    samples = []
    deadline = time.monotonic() + args.seconds
    rounds = 0
    while True:
        if args.trace:
            for trace in (0, 1):
                record = run_sample(args.workload, args.seed, 0, trace, workdir, args.scale)
                samples.append((trace, 0, record))
            enough = rounds + 1 >= MIN_TRACE_PAIRS
        else:
            index = rounds % INPUTS[args.workload]
            record = run_sample(args.workload, args.seed, index, 0, workdir, args.scale)
            samples.append((0, index, record))
            enough = rounds + 1 >= MIN_SAMPLES
        rounds += 1
        if enough and time.monotonic() >= deadline:
            return samples


def load_reference(workload: str) -> list[list[dict[str, float]]]:
    """Reference summaries per input index (each a list, one per run)."""
    data = json.loads((HERE / "reference.json").read_text())
    keys = data["keys"]
    return [
        [dict(zip(keys, values)) for values in runs]
        for runs in data["workloads"][workload]
    ]


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def summary_mismatch(summary: dict | None, expected: dict) -> str | None:
    """Why ``summary`` differs from ``expected`` beyond 1e-9 relative, if it does."""
    if summary is None:
        return None  # the run already failed
    if summary.keys() != expected.keys():
        return "summary keys differ from the reference"
    for key, value in expected.items():
        if not _close(summary[key], value):
            return f"{key} = {summary[key]!r}, reference {value!r}"
    return None


def annotate(samples: list[Sample], seed: int, workload: str) -> None:
    """Add the checks that span samples to each run's failures."""
    records = [(trace, index, r) for trace, index, r in samples if r is not None]
    if seed == DEFAULT_SEED:
        reference = load_reference(workload)
        for _, index, record in records:
            expected = reference[index] if index < len(reference) else []
            runs = record["runs"]
            if len(expected) != len(runs):
                for run in runs:
                    run["failures"].append(f"no reference for input {index}")
                continue
            for run, summary in zip(runs, expected):
                why = summary_mismatch(run["summary"], summary)
                if why is not None:
                    run["failures"].append(f"differs from the reference: {why}")
    untraced = [r for trace, _, r in records if not trace]
    traced = [r for trace, _, r in records if trace]
    if not traced or not untraced:
        return
    base = [run["summary"] for run in untraced[0]["runs"]]
    for record in untraced[1:] + traced:
        if [run["summary"] for run in record["runs"]] != base:
            for run in record["runs"]:
                run["failures"].append("summaries differ between samples of one input")
    for record in traced[1:]:
        if record["counts"] != traced[0]["counts"]:
            changed = sorted(
                k
                for k in record["counts"].keys() | traced[0]["counts"].keys()
                if record["counts"].get(k) != traced[0]["counts"].get(k)
            )
            for run in record["runs"]:
                run["failures"].append(
                    "counts differ between traced samples: " + ", ".join(changed)
                )


def tally(samples: list[Sample]) -> tuple[int, int]:
    """Runs attempted and failed; a sample that left no record is one failed run."""
    attempted = failed = 0
    for _, _, record in samples:
        if record is None:
            attempted += 1
            failed += 1
        else:
            attempted += len(record["runs"])
            failed += sum(1 for run in record["runs"] if run["failures"])
    return attempted, failed


def _median(values: list[float]) -> float:
    """The median; a value every sample agrees on (a count) is kept as is."""
    if all(value == values[0] for value in values):
        return values[0]
    return statistics.median(values)


def host_speed(samples: list[Sample], probe: str, reference_s: float) -> float:
    """How much faster than the reference host this host ran ``probe``."""
    return reference_s / statistics.median(r[probe] for _, _, r in samples if r is not None)


def metric_values(
    samples: list[Sample], metric_defs: list[dict]
) -> dict[str, float]:
    """Medians over the samples, every time in reference-host seconds."""
    untraced = [r for t, _, r in samples if r is not None and not t]
    traced = [r for t, _, r in samples if r is not None and t]
    if traced:
        values = {
            name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]
        }
        values["trace.overhead_s"] = statistics.median(
            r["cpu_s"] for r in traced
        ) - statistics.median(r["cpu_s"] for r in untraced)
    else:
        values = {
            name: statistics.median(r[name] for r in untraced)
            for name in ("cpu_s", "setup_s", "peak_rss_mb")
        }
    speed = host_speed(samples, "calibration_s", REFERENCE_CALIBRATION_S)
    setup_speed = host_speed(samples, "import_s", REFERENCE_IMPORT_S)
    scaled = {}
    for m in metric_defs:
        value = values[m["name"]]
        if m["name"] == "setup_s":
            value *= setup_speed
        elif m["unit"] == "s":
            value *= speed
        scaled[m["name"]] = value
    return scaled


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head[:12]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="simulated-window multiplier (tests)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_defs = definition["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = run_sample(
            args.workload, args.seed, 0, 0, workdir, min(args.scale, WARMUP_SCALE)
        )
        if warmup is None:
            print("perfbench: the program does not run in this checkout", file=sys.stderr)
            return 2
        samples = collect(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # kept while another run still uses it
    if not any(record is not None for _, _, record in samples):
        print("perfbench: no sample produced a record", file=sys.stderr)
        return 1

    annotate(samples, args.seed, args.workload)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} scale={args.scale:g}"
    )
    for number, (trace, index, record) in enumerate(samples):
        label = f"  sample {number:2d} input {index:2d} {'traced  ' if trace else 'untraced'}"
        if record is None:
            print(f"{label}: no record (crashed or timed out)")
            continue
        bad = [run for run in record["runs"] if run["failures"]]
        steal = "n/a" if record["steal_s"] is None else f"{record['steal_s']:.2f}"
        print(
            f"{label}: cpu_s {record['cpu_s']:.4f} setup_s {record['setup_s']:.4f} "
            f"import_s {record['import_s']:.4f} "
            f"calibration_s {record['calibration_s']:.4f} wall_s {record['wall_s']:.4f} "
            f"steal_s {steal} peak_rss_mb {record['peak_rss_mb']:.1f} "
            f"runs {len(record['runs'])} failed {len(bad)}"
        )
        for run in bad[:3]:
            print(f"    FAILED: {run['failures'][0].strip().splitlines()[-1]}")
    first = next(record for _, _, record in samples if record is not None)
    print(
        f"  host: cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"numpy={first['numpy']} revision={git_revision()} seed={args.seed} "
        f"speed={host_speed(samples, 'calibration_s', REFERENCE_CALIBRATION_S):.4f} "
        f"setup_speed={host_speed(samples, 'import_s', REFERENCE_IMPORT_S):.4f}"
    )

    attempted, failed = tally(samples)
    values = metric_values(samples, metric_defs)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_defs
    }
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']!r} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
