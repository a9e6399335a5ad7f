"""Dynamic IDDE: user mobility and data migration over time.

The paper closes with "in the future work, we will investigate the
dynamics of user movements and data migrations in IDDE scenarios" — this
subpackage builds that extension on the static substrate:

* :mod:`~repro.dynamics.mobility` — the random-waypoint model and
  :func:`~repro.dynamics.mobility.waypoint_batches`, which emits its
  per-epoch positions as ``idde-events/1`` move batches;
* :mod:`~repro.dynamics.migration` — plans and costs for moving the
  delivery profile between epochs (which replicas to add/drop, where the
  bytes come from, how long the migration occupies the edge links);
* :mod:`~repro.dynamics.timeline` — the epoch loop over event batches
  (moves, joins/leaves, popularity shifts from :mod:`repro.workload` or
  the mobility source): repair invalidated allocations, re-run IDDE-G
  under one of three re-solve policies (``warm`` / ``cold`` /
  ``static``), migrate replicas, and record per-epoch metrics.
"""

from .migration import MigrationPlan, plan_migration
from .mobility import RandomWaypoint, waypoint_batches
from .timeline import DynamicSimulation, EpochRecord

__all__ = [
    "RandomWaypoint",
    "waypoint_batches",
    "MigrationPlan",
    "plan_migration",
    "DynamicSimulation",
    "EpochRecord",
]
