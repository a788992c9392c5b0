"""Standard Workload Format (SWF) support.

The paper notes (Sec. 3.2.2) that the job fields required by its dataloaders
are "a standard for scheduling simulators as for example used in the standard
workload format (SWF)". This module provides a reader and writer for the SWF
so that workloads from the Parallel Workloads Archive — or exported from any
other scheduling simulator — can be loaded into S-RAPS, and synthetic
workloads can be exported for use by external simulators.

The SWF is a whitespace-separated text format with 18 fields per job and
``;``-prefixed header comments. Fields not representable in our job model are
preserved in ``Job.metadata['swf']``.
"""

from __future__ import annotations

import io
import math
import zlib
from pathlib import Path
from typing import Sequence

from ..exceptions import DataLoaderError
from .job import Job
from .trace import constant_profile

#: SWF field names, in column order (Feitelson's standard).
SWF_FIELDS = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_processors",
    "average_cpu_time",
    "used_memory",
    "requested_processors",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue_number",
    "partition_number",
    "preceding_job",
    "think_time",
)

_MISSING = -1


def parse_swf(
    text: str,
    *,
    processors_per_node: int = 1,
    default_cpu_util: float = 0.7,
) -> list[Job]:
    """Parse SWF text into a list of :class:`Job`.

    Parameters
    ----------
    text:
        Full SWF file contents.
    processors_per_node:
        Divisor used to convert the SWF processor counts to node counts
        (SWF predates the one-job-per-node convention of modern leadership
        systems). Counts are rounded up.
    default_cpu_util:
        CPU utilization assigned to jobs, since SWF carries no telemetry.
    """
    if processors_per_node <= 0:
        raise DataLoaderError(
            f"processors_per_node must be positive, got {processors_per_node}"
        )
    jobs: list[Job] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if len(parts) < 18:
            raise DataLoaderError(
                f"SWF line {line_no}: expected 18 fields, got {len(parts)}"
            )
        try:
            values = dict(zip(SWF_FIELDS, (float(p) for p in parts[:18])))
        except ValueError as exc:
            raise DataLoaderError(
                f"SWF line {line_no}: non-numeric field ({exc})"
            ) from exc
        for name, value in values.items():
            if not math.isfinite(value):
                raise DataLoaderError(
                    f"SWF line {line_no}: non-finite field {name} ({value})"
                )
        submit = values["submit_time"]
        wait = max(0.0, values["wait_time"]) if values["wait_time"] != _MISSING else 0.0
        run = values["run_time"]
        if run == _MISSING or run <= 0:
            # Jobs that never ran (cancelled) are skipped; they carry no
            # resource usage and the paper's dataloaders filter them too.
            continue
        procs = values["allocated_processors"]
        if procs == _MISSING or procs <= 0:
            procs = values["requested_processors"]
        if procs == _MISSING or procs <= 0:
            continue
        nodes = max(1, int(-(-procs // processors_per_node)))  # ceil division
        requested_time = values["requested_time"]
        wall_limit = requested_time if requested_time not in (_MISSING, 0) else None
        start = submit + wait
        job = Job(
            nodes_required=nodes,
            submit_time=submit,
            start_time=start,
            end_time=start + run,
            wall_time_limit=wall_limit,
            name=f"swf-{int(values['job_number'])}",
            user=f"user{int(values['user_id'])}" if values["user_id"] != _MISSING else "unknown",
            account=(
                f"group{int(values['group_id'])}"
                if values["group_id"] != _MISSING
                else "unknown"
            ),
            priority=float(values["queue_number"]) if values["queue_number"] != _MISSING else 0.0,
            cpu_util=constant_profile(default_cpu_util, run),
            metadata={"swf": values},
        )
        jobs.append(job)
    return jobs


def read_swf(path: str | Path, **kwargs: object) -> list[Job]:
    """Read an SWF file from disk. Keyword arguments pass to :func:`parse_swf`."""
    return parse_swf(Path(path).read_text(), **kwargs)  # type: ignore[arg-type]


def jobs_to_swf(jobs: Sequence[Job], *, processors_per_node: int = 1) -> str:
    """Serialise jobs to SWF text (using recorded, not simulated, times)."""
    buffer = io.StringIO()
    buffer.write("; SWF export from the S-RAPS reproduction\n")
    max_procs = max((j.nodes_required for j in jobs), default=0) * processors_per_node
    buffer.write(f"; MaxProcs: {max_procs}\n")
    for index, job in enumerate(sorted(jobs, key=lambda j: j.submit_time), start=1):
        wait = max(0.0, job.start_time - job.submit_time)
        fields = [
            index,
            int(job.submit_time),
            int(wait),
            int(job.duration),
            job.nodes_required * processors_per_node,
            _MISSING,
            _MISSING,
            job.nodes_required * processors_per_node,
            int(job.wall_time_limit) if job.wall_time_limit is not None else _MISSING,
            _MISSING,
            1,
            _user_number(job.user),
            _user_number(job.account),
            _MISSING,
            int(job.priority) if job.priority else _MISSING,
            _MISSING,
            _MISSING,
            _MISSING,
        ]
        buffer.write(" ".join(str(f) for f in fields) + "\n")
    return buffer.getvalue()


def write_swf(jobs: Sequence[Job], path: str | Path, **kwargs: object) -> None:
    """Write jobs to an SWF file on disk."""
    Path(path).write_text(jobs_to_swf(jobs, **kwargs))  # type: ignore[arg-type]


def _user_number(name: str) -> int:
    """Map a user/account name to a stable small integer for SWF export.

    Names without digits are numbered by CRC-32, which (unlike ``hash``)
    is not salted per process, so an export is the same on every run.
    """
    digits = "".join(ch for ch in name if ch.isdigit())
    if digits:
        return int(digits) % 100_000
    return zlib.crc32(name.encode()) % 100_000
