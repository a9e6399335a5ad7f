"""Reference/batched kernel-pair tests: bit-for-bit parity and state hygiene.

The batched einsum kernel is only admissible because it replays the
per-user reference exactly — same benefits, same tie-breaks, same RNG
stream, hence the same ``move_log``.  These tests pin that contract in
the suite; ``idde bench --verify-parity`` checks the same grid in CI.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GameConfig
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile
from repro.errors import ConfigurationError, ConvergenceError

from ..properties.strategies import instances

SCHEDULES = ("round-robin", "best-gain-winner", "random-winner")
SEEDS = (0, 1, 2, 3, 4)


def _run_pair(instance, cfg: GameConfig, seed: int):
    from dataclasses import replace

    ref = IddeUGame(instance, replace(cfg, kernel="reference")).run(rng=seed)
    bat = IddeUGame(instance, replace(cfg, kernel="batched")).run(rng=seed)
    return ref, bat


def _assert_identical(ref, bat):
    assert ref.move_log == bat.move_log
    assert np.array_equal(ref.profile.server, bat.profile.server)
    assert np.array_equal(ref.profile.channel, bat.profile.channel)
    assert (ref.rounds, ref.moves) == (bat.rounds, bat.moves)
    assert (ref.converged, ref.is_nash) == (bat.converged, bat.is_nash)
    assert ref.effective_epsilon == bat.effective_epsilon


class TestKernelParity:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_run_parity(self, schedule, seed):
        """5 seeds x 3 schedules: identical move sequence and equilibrium."""
        instance = IDDEInstance.generate(n=8, m=30, k=3, density=1.5, seed=seed)
        ref, bat = _run_pair(instance, GameConfig(schedule=schedule), seed)
        _assert_identical(ref, bat)
        assert ref.converged and ref.is_nash

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_parity_under_active_mask(self, small_instance, schedule):
        """Inactive users are excluded identically by both kernels."""
        rng = np.random.default_rng(7)
        active = rng.random(small_instance.n_users) < 0.6
        active[0] = True  # keep at least one player
        cfg = GameConfig(schedule=schedule)
        from dataclasses import replace

        ref = IddeUGame(small_instance, replace(cfg, kernel="reference")).run(
            rng=3, active=active
        )
        bat = IddeUGame(small_instance, replace(cfg, kernel="batched")).run(
            rng=3, active=active
        )
        _assert_identical(ref, bat)
        assert not ref.profile.allocated[~active].any()

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_parity_on_partial_coverage(self, line_instance, schedule):
        """Disjoint coverage exercises the ragged/padded covering rows."""
        ref, bat = _run_pair(line_instance, GameConfig(schedule=schedule), 0)
        _assert_identical(ref, bat)

    def test_parity_under_move_cap(self, small_instance):
        """The per-user move cap freezes the same users in both kernels."""
        cfg = GameConfig(schedule="round-robin", max_moves_per_user=1)
        ref, bat = _run_pair(small_instance, cfg, 0)
        _assert_identical(ref, bat)

    @pytest.mark.parametrize("schedule", ("best-gain-winner", "random-winner"))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_winner_parity_under_move_cap(self, schedule, seed):
        """A one-move cap forces the quiescent re-check of capped users.

        These instances cycle: the re-check finds a capped user that still
        improves, ε escalates, every budget is refreshed and users that
        already moved become eligible again — in both kernels alike.
        """
        instance = IDDEInstance.generate(n=8, m=30, k=4, density=1.5, seed=seed)
        cfg = GameConfig(schedule=schedule, max_moves_per_user=1)
        ref, bat = _run_pair(instance, cfg, seed)
        _assert_identical(ref, bat)
        assert ref.effective_epsilon > cfg.epsilon
        assert ref.moves > instance.n_users  # someone moved twice
        assert ref.capped_users == bat.capped_users

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_parity_from_warm_start_under_active_mask(self, small_instance, schedule):
        """The replay/serve path: a warm start over a changed player set.

        The previous equilibrium loses its departed users, and new
        arrivals join unallocated, so the run starts mid-game.
        """
        from dataclasses import replace

        cfg = GameConfig(schedule=schedule)
        prev = IddeUGame(small_instance, cfg).run(rng=5).profile
        rng = np.random.default_rng(11)
        active = rng.random(small_instance.n_users) < 0.7
        initial = AllocationProfile(prev.server, prev.channel)
        initial.server[~active] = initial.channel[~active] = -1
        initial.server[:3] = initial.channel[:3] = -1  # fresh arrivals
        active[:3] = True
        # Stayers knocked onto channel 0, so the start is no equilibrium.
        initial.channel[np.flatnonzero(initial.allocated)[:5]] = 0
        results = [
            IddeUGame(small_instance, replace(cfg, kernel=k)).run(
                rng=5, initial=initial, active=active
            )
            for k in ("reference", "batched")
        ]
        _assert_identical(*results)
        assert results[0].moves > 0
        assert results[0].is_nash
        assert not results[0].profile.allocated[~active].any()

    def test_move_log_matches_move_count(self, tiny_instance):
        for kernel in ("reference", "batched"):
            result = IddeUGame(tiny_instance, GameConfig(kernel=kernel)).run(rng=0)
            assert len(result.move_log) == result.moves


class TestBestResponseTable:
    """The batched kernel's incremental best-response table."""

    @settings(max_examples=40, deadline=None)
    @given(
        instances(max_servers=6, max_users=14),
        st.sampled_from(SCHEDULES),
        st.integers(0, 2**16),
        st.booleans(),
    )
    def test_rows_equal_full_pass_after_every_move(self, instance, schedule, seed, warm):
        """After each applied move, every row the table keeps without
        re-evaluating equals a fresh full ``batch_best_responses`` pass, and
        re-evaluating the stale rows (lone or batched) lands on it too."""
        rng = np.random.default_rng(seed)
        m = instance.n_users
        active = rng.random(m) < 0.8
        initial = AllocationProfile.empty(m) if warm else None
        if warm:
            for j in np.flatnonzero(active & (rng.random(m) < 0.5)):
                servers = instance.scenario.covering_servers[j]
                if len(servers):
                    i = int(rng.choice(servers))
                    initial.server[j] = i
                    initial.channel[j] = int(rng.integers(instance.scenario.channels[i]))
        apply = IddeUGame._apply
        checked_moves = []

        def checked(game, engine, br, trace, log, table=None):
            apply(game, engine, br, trace, log, table)
            players = game._players()
            fresh = engine.batch_best_responses(players)
            held = ~table.stale[players]
            for name in ("server", "channel", "benefit", "current_benefit"):
                kept = getattr(table, name)[players][held]
                assert np.array_equal(kept, getattr(fresh, name)[held]), name
            for j in players[table.stale[players]][::2]:
                table.row(int(j))
            rows = table.rows(players)
            for name in ("server", "channel", "benefit", "current_benefit"):
                assert np.array_equal(getattr(rows, name), getattr(fresh, name)), name
            checked_moves.append(br.user)

        cfg = GameConfig(schedule=schedule, kernel="batched")
        with mock.patch.object(IddeUGame, "_apply", checked):
            bat = IddeUGame(instance, cfg).run(rng=seed, initial=initial, active=active)
        assert len(checked_moves) == bat.moves
        ref = IddeUGame(instance, GameConfig(schedule=schedule)).run(
            rng=seed, initial=initial, active=active
        )
        _assert_identical(ref, bat)

    def test_run_span_reports_rows_evaluated(self, small_instance):
        """``game.run`` carries ``br_rows``; the table evaluates far fewer
        rows than the per-user sweep of every round."""
        from repro.obs.tracer import RecordingTracer

        rows = {}
        for kernel in ("reference", "batched"):
            tracer = RecordingTracer()
            cfg = GameConfig(schedule="best-gain-winner", kernel=kernel)
            result = IddeUGame(small_instance, cfg, tracer=tracer).run(rng=0)
            (span,) = [s for s in tracer.spans if s.name == "game.run"]
            rows[kernel] = span.attrs["br_rows"]
        assert rows["reference"] >= result.rounds * small_instance.n_users // 2
        assert 0 < rows["batched"] < rows["reference"] / 3


class TestBatchedKernel:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_converges_to_nash(self, tiny_instance, schedule):
        game = IddeUGame(tiny_instance, GameConfig(schedule=schedule, kernel="batched"))
        result = game.run(rng=0)
        assert result.converged
        assert result.is_nash
        # The batched certificate path agrees with the run's verdict.
        assert game.is_nash(result.profile)

    def test_batched_certificate_rejects_non_equilibrium(self, tiny_instance):
        from repro.core.profiles import AllocationProfile

        game = IddeUGame(tiny_instance, GameConfig(kernel="batched"))
        empty = AllocationProfile.empty(tiny_instance.n_users)
        assert not game.is_nash(empty)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            GameConfig(kernel="simd")


class TestParityHarness:
    """The game family of the ``repro.bench.parity`` harness the CLI and CI run."""

    def test_verify_kernel_pair_ok(self):
        from repro.bench.parity import render_parity_text, verify_parity

        report = verify_parity(scale="S", seeds=(0, 1))
        game = [case for case in report.cases if case.family == "game"]
        assert report.ok
        assert report.failures == ()
        assert len(game) == 6
        text = render_parity_text(report)
        assert "PARITY OK" in text
        assert "round-robin" in text

    def test_report_flags_broken_cases(self):
        from dataclasses import replace

        from repro.bench.parity import PairCase, ParityReport

        good = PairCase(family="game", label="S seed=0 round-robin", size=10)
        bad = replace(good, label="S seed=1 round-robin", broken=("move-log",))
        report = ParityReport(cases=(good, bad))
        assert not report.ok
        assert report.failures == (bad,)
        assert "move-log" in bad.describe()

    @pytest.mark.parametrize(
        "field, value", [("effective_epsilon", 1e-3), ("capped_users", [2])]
    )
    def test_certificate_covers_epsilon_and_capped_users(self, small_instance, field, value):
        """Two runs differing only in the certificate's escalated epsilon or
        capped users must break the ``certificate`` observable."""
        from dataclasses import replace

        from repro.bench.parity import (
            ParityReport,
            _compare,
            _game_observables,
            render_parity_text,
        )

        ref = IddeUGame(small_instance).run(rng=0)
        bat = replace(ref, **{field: value})
        case = _compare(
            "game", "hand-built", ref.moves, _game_observables(ref), _game_observables(bat)
        )
        assert case.broken == ("certificate",)
        text = render_parity_text(ParityReport(cases=(case,)))
        assert "PARITY BROKEN" in text
        assert "certificate" in text


class TestActiveMaskHygiene:
    def test_failed_run_does_not_leak_active_mask(self, tiny_instance):
        """A run that raises mid-setup must not poison later runs.

        Regression: only ``is_nash`` used to clear ``_active`` in a
        ``finally``; a ``run()`` that raised (e.g. a warm start allocating
        inactive users) left the mask behind, silently shrinking the
        player set of every subsequent call on the same game object.
        """
        game = IddeUGame(tiny_instance)
        full = game.run(rng=0)
        active = np.ones(tiny_instance.n_users, dtype=bool)
        active[0] = False  # but the warm start allocates user 0
        with pytest.raises(ConvergenceError):
            game.run(rng=0, initial=full.profile, active=active)
        assert len(game._players()) == tiny_instance.n_users
        # And the next unmasked run behaves as if the failure never happened.
        again = game.run(rng=0)
        assert again.move_log == full.move_log

    def test_bad_mask_shape_does_not_leak(self, tiny_instance):
        game = IddeUGame(tiny_instance)
        with pytest.raises(ConvergenceError):
            game.run(rng=0, active=np.ones(tiny_instance.n_users + 1, dtype=bool))
        assert len(game._players()) == tiny_instance.n_users
