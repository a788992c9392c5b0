"""Exception hierarchy for the S-RAPS reproduction.

All library-raised errors derive from :class:`SRapsError` so that callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration problems from runtime scheduling/allocation
failures.
"""

from __future__ import annotations


class SRapsError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(SRapsError):
    """Raised when a system configuration is inconsistent or unknown."""


class DataLoaderError(SRapsError):
    """Raised when a dataloader cannot parse or synthesise its dataset."""


class SchedulingError(SRapsError):
    """Raised when a scheduling policy produces an invalid decision.

    Examples include scheduling a job onto nodes that are already busy (the
    ScheduleFlow corner case reported in the paper's artifact evaluation) or
    requesting more nodes than the system owns.
    """


class AllocationError(SRapsError):
    """Raised by the resource manager for invalid allocation or release."""


class SimulationError(SRapsError):
    """Raised when the simulation engine reaches an inconsistent state."""
