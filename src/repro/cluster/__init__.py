"""Cluster substrate: the resource manager and its node-owner table.

The resource manager owns the node inventory and is the only component that
mutates node allocation state. The scheduler decides *which* jobs to place
and (in replay mode) *where*; the resource manager validates and carries out
the placement, mirroring the scheduler/resource-manager split that Sec. 3.2.3
of the paper describes as a key refactor of S-RAPS.
"""

from .resource_manager import DOWN, FREE, ResourceManager

__all__ = ["DOWN", "FREE", "ResourceManager"]
