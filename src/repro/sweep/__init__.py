"""Parallel scenario sweeps: fan a grid of runs over processes into SQLite.

The paper's actual workflow is comparative — power/cooling outcomes across
seeds, scheduling policies and system variants — so one fast run is not
enough; this package turns the engine from "one run" into "10k runs
overnight":

* :mod:`repro.sweep.request` — :class:`RunRequest`, the serialisable
  description of one engine run (JSON round-trip, content-hash
  :attr:`~RunRequest.run_id`), and :func:`run_request`, which pool workers
  call and which builds a run exactly as ``run_simulation`` does.
* :mod:`repro.sweep.spec` — :class:`SweepSpec` axis grids materialised
  into :class:`SweepRun` lists with order-independent spawned seeds.
* :mod:`repro.sweep.driver` — :func:`run_sweep`, the resumable
  process-pool driver with failure capture and a sweep-level heartbeat.
* :mod:`repro.sweep.store` — :class:`ResultsStore`, the single-writer
  WAL-mode SQLite warehouse with an axis/metric query layer and CSV export.
* :mod:`repro.sweep.cli` — the ``repro-sweep`` command
  (``run`` / ``status`` / ``query`` / ``example``).
"""

from .driver import SweepOutcome, run_sweep
from .request import RunRequest, run_request
from .spec import SweepRun, SweepSpec, load_sweep_spec
from .store import ResultsStore, StoredRun

__all__ = [
    "ResultsStore",
    "RunRequest",
    "run_request",
    "run_sweep",
    "load_sweep_spec",
    "StoredRun",
    "SweepOutcome",
    "SweepRun",
    "SweepSpec",
]
