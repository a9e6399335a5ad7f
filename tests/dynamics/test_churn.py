"""User churn through the epoch loop: joins and leaves as workload events."""

import pytest

from repro.core.instance import IDDEInstance
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics import DynamicSimulation, waypoint_batches
from repro.workload import StreamConfig, batch_by_count, poisson_zipf_stream


class TestTimelineWithChurn:
    @pytest.fixture(scope="class")
    def instance(self):
        return IDDEInstance.generate(n=10, m=40, k=3, density=1.5, seed=5)

    def test_active_users_recorded(self, instance):
        # Departures dominate: the pool shrinks, and re-arrivals follow.
        cfg = StreamConfig(
            arrival_rate=0.3, departure_rate=0.3, move_rate=0.1, move_sigma=20.0
        )
        stream = poisson_zipf_stream(instance.scenario, rng=2, config=cfg, n_events=60)
        sim = DynamicSimulation(instance, policy="warm")
        records = sim.run_events(batch_by_count(stream, 20), rng=0)
        assert len(records) == 4
        assert all(0 <= r.active_users <= 40 for r in records)
        assert any(r.active_users < 40 for r in records)
        for r in records[1:]:
            assert r.active_users == r.solution.config.get("active_users", 40)

    def test_without_churn_everyone_active(self, instance):
        batches = waypoint_batches(
            instance.scenario, CBD_REGION, rng=1, speed_range=(2.0, 6.0), epochs=3, dt=20.0
        )
        records = DynamicSimulation(instance, policy="warm").run_events(batches, rng=0)
        assert all(r.active_users == 40 for r in records)
