"""One benchmark sample: set up one input, make the measured call once, check it.

``run.py`` starts a fresh interpreter per sample, so ``setup_s`` is the CPU
time from interpreter start to the measured call, as a user pays it. Prints
one JSON object on stdout; a measured call that raises or fails a check is
reported as failed runs, never as a crash.

    python3 perfbench/sample.py --workload frontier_scale --seed 42 --index 0 \
        --trace 0 --workdir .perfbench/scratch
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

#: CPU time from interpreter start through importing NumPy. No change to the
#: program can alter it, and it is work of the same kind as the rest of
#: set-up, so it tells how fast the host ran set-up in this sample.
IMPORT_S = time.process_time()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Iterations of the calibration loop: about 0.1 s of CPU time on an idle
#: 2-vCPU Xeon host.
CALIBRATION_ITERATIONS = 200_000


def input_seed(seed: int, index: int) -> int:
    """The seed of input ``index`` of a run given ``--seed seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def calibration_s() -> float:
    """CPU time of a fixed interpreter-bound loop: how fast the host runs now.

    Heap, dict and float work like the simulator's step loop, and nothing
    from ``repro``, so no change to the program can change it.
    """
    start = time.process_time()
    heap: list[int] = []
    table: dict[int, float] = {}
    total = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 256:
            heapq.heappop(heap)
        table[i & 4095] = total
        total += math.exp(-1e-6 * i)
    return time.process_time() - start


def steal_s() -> float | None:
    """Host-wide CPU time stolen by the hypervisor so far (``/proc/stat``)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_sample(
    workload: str,
    seed: int,
    index: int,
    traced: bool,
    workdir: Path,
    scale: float = 1.0,
) -> dict[str, object]:
    """Set up, measure and check one input; return the sample record."""
    import scenarios

    if traced:
        import layers

    scenario = scenarios.SCENARIOS[workload](input_seed(seed, index), scale, workdir)
    tracer = layers.LayerTracer() if traced else None
    error = None
    setup_s = time.process_time()
    # The calibration loop brackets the measured call, so that it sees the
    # host as the call did.
    calibration_before = calibration_s()
    steal_start = steal_s()
    wall_start = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        cpu_start = time.process_time()
        try:
            scenario.measure()
        except Exception:
            error = traceback.format_exc()
        cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - wall_start
    steal_end = steal_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = (calibration_before + calibration_s()) / 2.0

    if error is None:
        try:
            checks = scenario.check()
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        checks = [scenarios.RunCheck(None, [error]) for _ in range(scenario.runs)]
    return {
        "setup_s": setup_s,
        "import_s": IMPORT_S,
        "cpu_s": cpu_s,
        "calibration_s": calibration,
        "wall_s": wall_s,
        "steal_s": (
            None if steal_start is None or steal_end is None else steal_end - steal_start
        ),
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
        "runs": [{"summary": c.summary, "failures": c.failures} for c in checks],
        "layers": None if tracer is None else layers.layer_metrics(tracer, cpu_s),
        "counts": None if tracer is None else tracer.counts(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    record = run_sample(
        args.workload, args.seed, args.index, bool(args.trace), args.workdir, args.scale
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
