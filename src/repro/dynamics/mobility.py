"""User mobility: the random-waypoint model and its event source.

:class:`RandomWaypoint` operates on an ``(M, 2)`` position array and a
bounding :class:`~repro.geometry.Region`, advancing positions by one
epoch of ``dt`` seconds per :meth:`~RandomWaypoint.step`: each user walks
toward a private target at a private speed and draws a fresh target on
arrival (the classic model; smooth, persistent trajectories).  Speeds
follow the pedestrian/vehicle mix customary in edge-computing mobility
studies (default 0.5–3 m/s).

:func:`waypoint_batches` turns the model into the ``idde-events/1``
vocabulary: one :class:`~repro.workload.EpochBatch` of absolute
:class:`~repro.workload.Move` events per epoch, ready for
:meth:`~repro.dynamics.DynamicSimulation.run_events`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ExperimentError, ScenarioError
from ..geometry import Region
from ..rng import ensure_rng
from ..types import Scenario
from ..workload.events import EpochBatch, Move

__all__ = ["RandomWaypoint", "waypoint_batches"]


class RandomWaypoint:
    """Walk to a uniformly random target, then pick another.

    Parameters
    ----------
    speed_range:
        Per-user speeds drawn uniformly (m/s) and kept for the user's
        lifetime.
    """

    def __init__(
        self,
        positions: np.ndarray,
        region: Region,
        rng: np.random.Generator | int | None = None,
        *,
        speed_range: tuple[float, float] = (0.5, 3.0),
    ):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ScenarioError(f"positions must be (M, 2), got {positions.shape}")
        lo, hi = speed_range
        if not (0 < lo <= hi):
            raise ScenarioError(f"bad speed_range {speed_range}")
        self.region = region
        self.positions = np.clip(
            positions,
            [region.x0, region.y0],
            [region.x1, region.y1],
        )
        self.rng = ensure_rng(rng)
        self.speeds = self.rng.uniform(lo, hi, size=self.n_users)
        self.targets = self._draw_targets(np.arange(self.n_users))

    @property
    def n_users(self) -> int:
        return self.positions.shape[0]

    def _draw_targets(self, users: np.ndarray) -> np.ndarray:
        xs = self.rng.uniform(self.region.x0, self.region.x1, size=len(users))
        ys = self.rng.uniform(self.region.y0, self.region.y1, size=len(users))
        fresh = np.column_stack([xs, ys])
        if len(users) == self.n_users:
            return fresh
        targets = self.targets
        targets[users] = fresh
        return targets

    def step(self, dt: float) -> np.ndarray:
        """Advance all users by ``dt`` seconds; returns the new ``(M, 2)``
        positions (also stored on the model)."""
        if dt < 0:
            raise ScenarioError(f"negative dt {dt}")
        delta = self.targets - self.positions
        dist = np.linalg.norm(delta, axis=1)
        reach = self.speeds * dt
        arriving = dist <= reach
        moving = ~arriving & (dist > 0)
        # Move the travellers proportionally along their heading.
        scale = np.zeros(self.n_users)
        scale[moving] = reach[moving] / dist[moving]
        self.positions += delta * scale[:, None]
        # Arrivals land exactly on target and redraw.
        self.positions[arriving] = self.targets[arriving]
        if arriving.any():
            self.targets = self._draw_targets(np.flatnonzero(arriving))
        np.clip(
            self.positions[:, 0], self.region.x0, self.region.x1, out=self.positions[:, 0]
        )
        np.clip(
            self.positions[:, 1], self.region.y0, self.region.y1, out=self.positions[:, 1]
        )
        return self.positions


def waypoint_batches(
    scenario: Scenario,
    region: Region,
    *,
    rng: np.random.Generator | int | None,
    speed_range: tuple[float, float] = (0.5, 3.0),
    epochs: int,
    dt: float,
) -> Iterator[EpochBatch]:
    """Random-waypoint motion of ``scenario``'s users as event batches.

    A run of ``epochs`` epochs is the epoch-0 solve at the starting
    positions plus ``epochs - 1`` batches; batch ``i`` covers
    ``[i * dt, (i + 1) * dt)`` seconds and carries one :class:`Move` per
    user to its position after the step.  The model starts from
    ``scenario.user_xy``, so the batches always cover the scenario's
    users.  Arguments are checked here, when the source is built, not on
    the first batch.
    """
    if epochs < 1:
        raise ExperimentError(f"need at least one epoch, got {epochs}")
    if dt < 0:
        raise ScenarioError(f"negative dt {dt}")
    model = RandomWaypoint(scenario.user_xy, region, rng, speed_range=speed_range)

    def _batches() -> Iterator[EpochBatch]:
        for epoch in range(1, epochs):
            t = epoch * dt
            positions = model.step(dt)
            moves = tuple(
                Move(t=t, user=j, x=float(x), y=float(y))
                for j, (x, y) in enumerate(positions)
            )
            yield EpochBatch(epoch - 1, (epoch - 1) * dt, t, moves)

    return _batches()
