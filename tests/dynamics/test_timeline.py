"""Dynamic simulation (epoch loop) tests."""

import numpy as np
import pytest

from repro.core.instance import IDDEInstance
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics import DynamicSimulation, waypoint_batches
from repro.errors import ConfigurationError, ExperimentError


@pytest.fixture(scope="module")
def instance():
    return IDDEInstance.generate(n=12, m=50, k=4, density=1.5, seed=5)


def walk(instance, policy="warm", *, epochs, dt, speed=(5.0, 15.0)):
    """Run ``policy`` over a random-waypoint walk of ``instance``'s users."""
    batches = waypoint_batches(
        instance.scenario, CBD_REGION, rng=1, speed_range=speed, epochs=epochs, dt=dt
    )
    return DynamicSimulation(instance, policy=policy).run_events(batches, rng=0)


class TestBasics:
    def test_epoch_zero_is_initial_solve(self, instance):
        records = walk(instance, epochs=1, dt=10.0)
        assert len(records) == 1
        rec = records[0]
        assert rec.epoch == 0
        assert rec.r_avg > 0
        assert rec.migration.cloud_seeded == rec.migration.n_added  # cold fill
        assert rec.reallocated_users == rec.solution.allocation.n_allocated

    def test_record_count(self, instance):
        records = walk(instance, epochs=5, dt=20.0)
        assert [r.epoch for r in records] == [0, 1, 2, 3, 4]

    def test_policy_validation(self, instance):
        with pytest.raises(ExperimentError):
            DynamicSimulation(instance, policy="oracle")

    def test_live_generator_rejected(self, instance):
        with pytest.raises(ConfigurationError, match="integer seed"):
            DynamicSimulation(instance).run_events([], rng=np.random.default_rng(0))

    def test_epoch_streams_follow_the_session_rule(self, instance):
        """Epoch ``e`` solves with ``spawn_rng(seed, "serve", e)``."""
        from repro.api import solve
        from repro.config import GameConfig
        from repro.request import SolveRequest
        from repro.rng import spawn_rng

        cfg = GameConfig(schedule="random-winner")
        records = DynamicSimulation(instance, game=cfg).run_events([], rng=4)
        direct = solve(
            instance,
            SolveRequest(
                solver="idde-g",
                game_config=cfg,
                active=np.ones(instance.n_users, dtype=bool),
                rng=spawn_rng(4, "serve", 0),
            ),
        )
        assert np.array_equal(
            records[0].solution.allocation.server, direct.allocation.server
        )
        assert records[0].r_avg == direct.r_avg

    def test_zero_epochs_rejected(self, instance):
        with pytest.raises(ExperimentError):
            walk(instance, epochs=0, dt=1.0)


class TestPolicies:
    def test_static_never_resolves(self, instance):
        records = walk(instance, "static", epochs=4, dt=30.0)
        assert all(r.game_moves == 0 for r in records[1:])
        assert all(r.migration_mb == 0.0 for r in records[1:])

    def test_static_decays_under_heavy_motion(self, instance):
        """A never-updated strategy loses rate as users walk away."""
        records = walk(instance, "static", epochs=6, dt=60.0, speed=(20.0, 40.0))
        assert records[-1].r_avg < records[0].r_avg * 0.8

    def test_warm_tracks_quality(self, instance):
        warm = walk(instance, "warm", epochs=6, dt=60.0, speed=(20.0, 40.0))
        static = walk(instance, "static", epochs=6, dt=60.0, speed=(20.0, 40.0))
        assert warm[-1].r_avg > static[-1].r_avg

    def test_warm_cheaper_than_cold_under_slow_motion(self, instance):
        """With gentle mobility, warm-started re-solves need far fewer
        best-response moves than solving from scratch."""
        slow = (0.3, 0.8)
        warm = walk(instance, "warm", epochs=5, dt=10.0, speed=slow)
        cold = walk(instance, "cold", epochs=5, dt=10.0, speed=slow)
        warm_moves = np.mean([r.game_moves for r in warm[1:]])
        cold_moves = np.mean([r.game_moves for r in cold[1:]])
        assert warm_moves < cold_moves * 0.5, (warm_moves, cold_moves)

    def test_cold_and_warm_maintain_rate(self, instance):
        for policy in ("warm", "cold"):
            records = walk(instance, policy, epochs=5, dt=30.0, speed=(10.0, 20.0))
            rates = [r.r_avg for r in records]
            assert min(rates) > 0.6 * rates[0], (policy, rates)


class TestSummary:
    def test_summary_keys(self, instance):
        records = walk(instance, epochs=4, dt=20.0)
        summary = DynamicSimulation.summarize(records)
        assert set(summary) == {
            "mean_r_avg",
            "mean_l_avg_ms",
            "mean_realloc",
            "mean_moves",
            "mean_migration_mb",
            "mean_solve_time_s",
        }

    def test_empty_summary(self):
        assert DynamicSimulation.summarize([]) == {}

    def test_single_record_steady_metrics_are_nan(self, instance):
        """Epoch 0 is cold build-up, not churn: a 1-epoch run has no
        steady-state sample, so the churn statistics are NaN rather than
        the cold solve in disguise."""
        records = walk(instance, epochs=1, dt=10.0)
        summary = DynamicSimulation.summarize(records)
        for key in (
            "mean_realloc",
            "mean_moves",
            "mean_migration_mb",
            "mean_solve_time_s",
        ):
            assert np.isnan(summary[key]), key
        assert summary["mean_r_avg"] == pytest.approx(records[0].r_avg)

    def test_multi_record_steady_metrics_exclude_epoch_zero(self, instance):
        records = walk(instance, epochs=3, dt=10.0)
        summary = DynamicSimulation.summarize(records)
        assert summary["mean_realloc"] == pytest.approx(
            np.mean([r.reallocated_users for r in records[1:]])
        )
        # Epoch 0's reallocated_users is the cold fill (n_allocated), which
        # would otherwise swamp the epoch-over-epoch change statistic.
        assert records[0].reallocated_users > summary["mean_realloc"]


class TestEventDriven:
    """run_events: the streaming front-end of the same engine."""

    def _stream(self, instance, n_events=120, per_epoch=40, seed=0, **kw):
        from repro.workload import StreamConfig, batch_by_count, poisson_zipf_stream

        cfg = StreamConfig(move_sigma=20.0, **kw)
        return batch_by_count(
            poisson_zipf_stream(
                instance.scenario, rng=seed, config=cfg, n_events=n_events
            ),
            per_epoch,
        )

    def test_records_and_solutions(self, instance):
        sim = DynamicSimulation(instance, policy="warm")
        records = sim.run_events(self._stream(instance), rng=0)
        assert [r.epoch for r in records] == [0, 1, 2, 3]
        assert records[0].n_events == 0
        assert sum(r.n_events for r in records) == 120
        for r in records:
            assert r.solution is not None
            assert r.solution.game.is_nash
            assert r.active_users == r.solution.config.get(
                "active_users", instance.n_users
            )

    def test_warm_epochs_declare_warm_start(self, instance):
        records = DynamicSimulation(instance, policy="warm").run_events(
            self._stream(instance), rng=0
        )
        assert records[0].solution.config["warm_start"] is False
        assert all(r.solution.config["warm_start"] for r in records[1:])
        cold = DynamicSimulation(instance, policy="cold").run_events(
            self._stream(instance), rng=0
        )
        assert all(not r.solution.config["warm_start"] for r in cold)

    def test_static_policy_has_no_solutions_after_epoch_zero(self, instance):
        records = DynamicSimulation(instance, policy="static").run_events(
            self._stream(instance), rng=0
        )
        assert records[0].solution is not None
        assert all(r.solution is None for r in records[1:])
        assert all(r.game_moves == 0 for r in records[1:])

    def test_leave_events_shrink_active_count(self, instance):
        from repro.workload import EpochBatch, UserLeave

        batch = EpochBatch(
            0, 0.0, 1.0, tuple(UserLeave(t=1.0, user=j) for j in range(5))
        )
        records = DynamicSimulation(instance, policy="warm").run_events(
            [batch], rng=0
        )
        assert records[0].active_users == instance.n_users
        assert records[1].active_users == instance.n_users - 5
        # Departed users end the epoch unallocated.
        alloc = records[1].solution.allocation
        assert not alloc.allocated[:5].any()

    def test_mobility_and_event_frontends_share_engine(self, instance):
        """Waypoint batches are one more event source: façade solutions too."""
        records = walk(instance, "cold", epochs=2, dt=10.0)
        assert all(r.solution is not None for r in records)
        assert records[1].n_events >= instance.n_users  # a Move per user
