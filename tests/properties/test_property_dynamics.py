"""Property-based tests for the dynamics extension."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import DeliveryProfile
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics.migration import plan_migration
from repro.dynamics.mobility import RandomWaypoint
from repro.workload import UserJoin, UserLeave, WorkloadState

from .strategies import instances

FAST = settings(max_examples=25, deadline=None)


@st.composite
def profile_pairs(draw):
    """An instance plus two random feasible delivery profiles."""
    instance = draw(instances())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(2):
        placed = np.zeros((instance.n_servers, instance.n_data), dtype=bool)
        residual = instance.scenario.storage.astype(float).copy()
        cells = [(i, k) for i in range(instance.n_servers) for k in range(instance.n_data)]
        rng.shuffle(cells)
        for i, k in cells:
            if residual[i] >= instance.scenario.sizes[k] and rng.random() < 0.4:
                placed[i, k] = True
                residual[i] -= instance.scenario.sizes[k]
        profiles.append(DeliveryProfile(placed))
    return instance, profiles[0], profiles[1]


class TestMigrationProperties:
    @FAST
    @given(profile_pairs())
    def test_bytes_equal_added_sizes(self, triple):
        instance, old, new = triple
        plan = plan_migration(instance, old, new)
        expected = sum(instance.scenario.sizes[k] for _, k in plan.added)
        assert plan.bytes_moved == expected

    @FAST
    @given(profile_pairs())
    def test_delta_consistency(self, triple):
        instance, old, new = triple
        plan = plan_migration(instance, old, new)
        added = np.zeros_like(old.placed)
        for i, k in plan.added:
            added[i, k] = True
        removed = np.zeros_like(old.placed)
        for i, k in plan.removed:
            removed[i, k] = True
        assert np.array_equal((old.placed & ~removed) | added, new.placed)

    @FAST
    @given(profile_pairs())
    def test_transfer_times_bounded_by_cloud(self, triple):
        instance, old, new = triple
        plan = plan_migration(instance, old, new)
        cloud = instance.latency_model.cloud_cost
        for (_, k), t in zip(plan.added, plan.transfer_times_s):
            assert t <= instance.scenario.sizes[k] * cloud + 1e-12

    @FAST
    @given(profile_pairs())
    def test_self_migration_is_free(self, triple):
        instance, old, _ = triple
        plan = plan_migration(instance, old, old.copy())
        assert plan.bytes_moved == 0.0
        assert plan.n_added == plan.n_removed == 0


class TestChurnProperties:
    @FAST
    @given(st.integers(0, 2**16))
    def test_projection_idempotent(self, seed):
        from repro.datasets.eua import sample_scenario, synthetic_eua

        rng = np.random.default_rng(seed)
        pool = synthetic_eua(0, n_servers=10, n_users=30)
        sc = sample_scenario(pool, 5, 12, 3, rng)
        active = rng.random(12) < 0.5
        once = WorkloadState.from_scenario(sc, active).scenario(sc)
        twice = WorkloadState.from_scenario(once, active).scenario(once)
        assert np.array_equal(once.requests, twice.requests)

    @FAST
    @given(st.integers(0, 2**16), st.integers(1, 6))
    def test_projection_preserves_dtype_and_shape_repeatedly(self, seed, reps):
        """Folding join/leave batches keeps every projection well-formed:
        inactive rows request nothing, active rows keep their pristine
        demand (a re-arrival restores it)."""
        from repro.datasets.eua import sample_scenario, synthetic_eua

        rng = np.random.default_rng(seed)
        pool = synthetic_eua(0, n_servers=10, n_users=30)
        sc = sample_scenario(pool, 5, 12, 3, rng)
        state = WorkloadState.from_scenario(sc)
        for rep in range(reps):
            active = rng.random(12) < 0.7
            state.apply(
                tuple(
                    (UserJoin if active[j] else UserLeave)(t=float(rep), user=j)
                    for j in range(12)
                )
            )
            cur = state.scenario(sc)
            assert cur.requests.dtype == sc.requests.dtype
            assert cur.requests.shape == sc.requests.shape
            assert not cur.requests[~active].any()
            assert np.array_equal(cur.requests[active], sc.requests[active])

    @FAST
    @given(instances(full_coverage=True), st.integers(0, 2**16))
    def test_departed_rearrived_user_reenters_unallocated(self, instance, seed):
        """The churn round trip leaves no stale state: a departed user is
        fully detached, and on re-arrival the game sees it unallocated —
        any new allocation is freshly feasible, never a resurrected pair."""
        from repro.core.game import IddeUGame
        from repro.core.profiles import UNALLOCATED
        from repro.core.repair import repair_allocation

        rng = np.random.default_rng(seed)
        alloc = IddeUGame(instance).run(rng=rng).profile
        m = instance.n_users
        user = int(rng.integers(m))
        active = np.ones(m, dtype=bool)
        active[user] = False
        departed, _ = repair_allocation(instance, alloc, active)
        assert departed.server[user] == UNALLOCATED
        assert departed.channel[user] == UNALLOCATED
        # Re-arrival: repairing again must not resurrect the old pair.
        active[user] = True
        back, _ = repair_allocation(instance, departed, active)
        assert back.server[user] == UNALLOCATED
        assert back.channel[user] == UNALLOCATED
        result = IddeUGame(instance).run(rng=rng, initial=back, active=active)
        if result.profile.server[user] != UNALLOCATED:
            s = int(result.profile.server[user])
            assert instance.scenario.coverage[s, user]
            assert 0 <= result.profile.channel[user] < instance.scenario.channels[s]


class TestMobilityProperties:
    @FAST
    @given(st.integers(0, 2**16), st.floats(0.1, 120.0))
    def test_waypoint_confined(self, seed, dt):
        rng = np.random.default_rng(seed)
        pts = rng.uniform([0, 0], [CBD_REGION.x1, CBD_REGION.y1], size=(15, 2))
        model = RandomWaypoint(pts, CBD_REGION, rng=seed)
        for _ in range(10):
            out = model.step(dt)
            assert CBD_REGION.contains(out).all()
