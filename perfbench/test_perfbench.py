"""Tests of the benchmark itself, at a reduced size.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import layers
import pytest
import run
import sample
import scenarios

import repro

ROOT = Path(__file__).resolve().parent.parent
#: Simulated windows at a quarter of the benchmark's; every check still passes.
SCALE = 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.INPUTS))
def test_every_metric_prints_with_its_unit(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--scale", str(SCALE),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in definition["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    assert not (ROOT / ".perfbench").exists()


def test_a_failing_check_counts_as_a_failed_run(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(scenarios, "MIN_PEAK_RUNNING", 10**9)
    failing = sample.run_sample("frontier_scale", 1, 0, False, tmp_path, SCALE)
    assert "fewer than" in failing["runs"][0]["failures"][0]

    def broken(request: object) -> object:
        raise RuntimeError("injected failure")

    monkeypatch.setattr(repro, "run_request", broken)
    raising = sample.run_sample("capped_busy_tiny", 1, 0, False, tmp_path, SCALE)
    assert "injected failure" in raising["runs"][0]["failures"][0]

    samples = [(0, 0, failing), (0, 1, raising), (0, 2, None)]
    assert run.tally(samples) == (3, 3)


def _patchable_state() -> dict[tuple[str, str], object]:
    """Every attribute the tracer may patch: target owners and repro modules."""
    owners = [owner for _, owner, _ in layers._targets()]
    owners += [m for name, m in sys.modules.items() if name.split(".")[0] == "repro"]
    return {
        (repr(owner), attr): value
        for owner in owners
        for attr, value in list(vars(owner).items())
    }


def test_no_function_stays_patched_after_the_traced_run(tmp_path: Path) -> None:
    before = _patchable_state()
    record = sample.run_sample("policy_sweep_tiny", 1, 0, True, tmp_path, 0.1)
    assert record["layers"]["sweep.driver_s"] > 0
    assert record["layers"]["engine.steps"] > 0
    with pytest.raises(ZeroDivisionError):
        with layers.LayerTracer():
            assert repro.run_sweep is not before[(repr(repro), "run_sweep")]
            1 / 0
    after = _patchable_state()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
