"""Mobility model tests."""

import numpy as np
import pytest

from repro.dynamics.mobility import RandomWaypoint, waypoint_batches
from repro.errors import ExperimentError, ScenarioError
from repro.geometry import Region

REGION = Region(0, 0, 1000, 800)


def start_positions(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform([0, 0], [1000, 800], size=(n, 2))


class TestRandomWaypoint:
    def test_stays_in_region(self):
        model = RandomWaypoint(start_positions(), REGION, rng=0)
        for _ in range(50):
            pts = model.step(10.0)
            assert REGION.contains(pts).all()

    def test_moves_toward_target(self):
        model = RandomWaypoint(start_positions(1), REGION, rng=0, speed_range=(1.0, 1.0))
        before = model.positions.copy()
        target = model.targets.copy()
        model.step(5.0)
        d_before = np.linalg.norm(target - before)
        d_after = np.linalg.norm(target - model.positions)
        assert d_after < d_before

    def test_speed_respected(self):
        model = RandomWaypoint(
            start_positions(10), REGION, rng=1, speed_range=(2.0, 2.0)
        )
        before = model.positions.copy()
        model.step(3.0)
        moved = np.linalg.norm(model.positions - before, axis=1)
        assert (moved <= 6.0 + 1e-9).all()

    def test_arrival_redraws_target(self):
        model = RandomWaypoint(start_positions(1), REGION, rng=2, speed_range=(3.0, 3.0))
        old_target = model.targets.copy()
        # Step long enough to certainly arrive (diagonal is ~1280 m).
        model.step(1e6)
        assert not np.allclose(model.targets, old_target)

    def test_deterministic(self):
        a = RandomWaypoint(start_positions(), REGION, rng=3)
        b = RandomWaypoint(start_positions(), REGION, rng=3)
        for _ in range(5):
            assert np.allclose(a.step(7.0), b.step(7.0))

    def test_bad_speed_range(self):
        with pytest.raises(ScenarioError):
            RandomWaypoint(start_positions(), REGION, rng=0, speed_range=(0.0, 1.0))

    def test_negative_dt(self):
        model = RandomWaypoint(start_positions(), REGION, rng=0)
        with pytest.raises(ScenarioError):
            model.step(-1.0)

    def test_bad_positions_shape(self):
        with pytest.raises(ScenarioError):
            RandomWaypoint(np.zeros((3, 3)), REGION, rng=0)


class TestWaypointBatches:
    def test_batches_replay_the_model_steps(self, tiny_scenario):
        """One Move per user per epoch, at the model's stepped position."""
        model = RandomWaypoint(tiny_scenario.user_xy, REGION, rng=4, speed_range=(2.0, 9.0))
        batches = list(
            waypoint_batches(
                tiny_scenario, REGION, rng=4, speed_range=(2.0, 9.0), epochs=4, dt=15.0
            )
        )
        assert [(b.index, b.t_start, b.t_end) for b in batches] == [
            (0, 0.0, 15.0),
            (1, 15.0, 30.0),
            (2, 30.0, 45.0),
        ]
        for batch in batches:
            positions = model.step(15.0)
            assert [(e.user, e.x, e.y, e.t) for e in batch] == [
                (j, float(x), float(y), batch.t_end) for j, (x, y) in enumerate(positions)
            ]

    def test_one_epoch_is_the_initial_solve_only(self, tiny_scenario):
        assert list(waypoint_batches(tiny_scenario, REGION, rng=0, epochs=1, dt=10.0)) == []

    def test_zero_dt_is_static(self, tiny_scenario):
        (batch,) = waypoint_batches(tiny_scenario, REGION, rng=0, epochs=2, dt=0.0)
        assert np.array_equal([(e.x, e.y) for e in batch], tiny_scenario.user_xy)

    def test_arguments_checked_when_called(self, tiny_scenario):
        """Bad arguments fail at the call, before any batch is pulled."""
        with pytest.raises(ExperimentError):
            waypoint_batches(tiny_scenario, REGION, rng=0, epochs=0, dt=10.0)
        with pytest.raises(ScenarioError):
            waypoint_batches(tiny_scenario, REGION, rng=0, epochs=3, dt=-5.0)
        with pytest.raises(ScenarioError):
            waypoint_batches(
                tiny_scenario, REGION, rng=0, speed_range=(0.0, 1.0), epochs=3, dt=1.0
            )
