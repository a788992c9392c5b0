"""Developer tooling: the ``@hot_path`` contract marker and ``repro-lint``.

This package has two faces with very different import weights:

* :func:`hot_path` — a zero-cost identity decorator that production code
  imports to mark functions carrying an O(log R) / O(1) complexity
  guarantee (the event-index and incremental-aggregation work of PRs 4-5).
  Importing it pulls in nothing beyond this module.
* :mod:`repro.devtools.lint` — the AST-based domain linter behind the
  ``repro-lint`` console script. It is *not* imported here, so marking a
  function ``@hot_path`` never loads linter machinery into a simulation
  process.

The marker is more than documentation: ``repro-lint`` enforces that the
body of a ``@hot_path`` function contains no ``list(...)`` / ``sorted(...)``
materialisation, no ``.pop(0)`` head-pops and no iteration over the running
set or scheduler queue — the access patterns whose cost scales with the
number of running jobs R — and no numpy calls, which cost ~1 µs each on
the scalars a per-event path handles. See the README "Static analysis &
typing" section for the rule catalogue.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

__all__ = ["hot_path"]

_F = TypeVar("_F", bound=Callable[..., Any])

#: Attribute set on functions marked :func:`hot_path` (introspectable).
HOT_PATH_ATTRIBUTE = "__repro_hot_path__"


def hot_path(func: _F) -> _F:
    """Mark ``func`` as hot-path: per-call cost must not scale with R.

    Identity decorator — zero runtime cost beyond one attribute write at
    import time. ``repro-lint`` statically bans R-scaling access patterns
    (``list(queue)``, ``.pop(0)``, per-job iteration) and numpy calls
    inside functions carrying this mark; suppress a deliberate exception on
    its line with ``# repro-lint: disable=hot-path``.
    """
    setattr(func, HOT_PATH_ATTRIBUTE, True)
    return func
