"""Record the reference summaries the benchmark checks at its default seed.

    python3 perfbench/record_reference.py

Runs every input of every workload at ``run.DEFAULT_SEED`` in this process
and writes ``perfbench/reference.json``. Re-record only when a change to the
program is meant to change its results.
"""

from __future__ import annotations

import json
import shutil

from run import DEFAULT_SEED, HERE, INPUTS, ROOT
from sample import run_sample


def main() -> None:
    workdir = ROOT / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    keys: list[str] | None = None
    workloads: dict[str, list[list[list[float]]]] = {}
    try:
        for workload, inputs in INPUTS.items():
            workloads[workload] = []
            for index in range(inputs):
                record = run_sample(workload, DEFAULT_SEED, index, False, workdir)
                runs = []
                for run in record["runs"]:
                    if run["failures"]:
                        raise SystemExit(f"{workload} input {index}: {run['failures']}")
                    keys = keys or list(run["summary"])
                    runs.append([run["summary"][key] for key in keys])
                workloads[workload].append(runs)
                print(f"{workload} input {index}: {len(runs)} run(s)")
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    payload = {"seed": DEFAULT_SEED, "keys": keys, "workloads": workloads}
    (HERE / "reference.json").write_text(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
