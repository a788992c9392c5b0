"""Job and telemetry-trace representations.

The telemetry package contains the data model shared by every other
subsystem: :class:`~repro.telemetry.job.Job` (one read-only batch job with
submit / start / end times, resource request, utilization or power profiles
and account information), :class:`~repro.telemetry.job.JobRun` (that job's
state in one simulation run), :class:`~repro.telemetry.trace.Profile` (a
CPU/GPU/memory utilization or power trace, built from samples or a scalar
summary and held as its change grid, with last-known-value gap filling),
and reader/writer support for the Standard Workload Format (SWF) used by
classic scheduling simulators.
"""

from .job import Job, JobRun, JobState
from .trace import Profile, constant_profile
from .swf import jobs_to_swf, parse_swf, read_swf, write_swf

__all__ = [
    "Job",
    "JobRun",
    "JobState",
    "Profile",
    "constant_profile",
    "jobs_to_swf",
    "parse_swf",
    "read_swf",
    "write_swf",
]
