"""Phase 1 of IDDE-G: the IDDE-U user-allocation game (Algorithm 1, lines
5–21).

The game starts from the all-unallocated profile and iterates best-response
updates driven by the benefit function of Eq. (12) until no user can improve
— a Nash equilibrium of the potential game (Theorem 3), reached in finitely
many iterations (Theorem 4).

Three update schedules are provided (:class:`~repro.config.GameConfig`):

``"best-gain-winner"``
    The literal Algorithm 1 loop: every user submits its best response as
    an update candidate and the single user with the largest benefit gain
    "wins" the round and applies its move.
``"random-winner"``
    A uniformly random improving user moves each round (the classic
    asynchronous better-response dynamic used to argue decentralised
    enforceability in the paper).
``"round-robin"``
    Users are swept in index order, each applying its best response
    immediately; a sweep with no move terminates.  This is the fastest
    schedule in practice and the package default.

All schedules converge to the same *kind* of profile (a pure Nash
equilibrium certified by :meth:`IddeUGame.is_nash`), though not necessarily
the same equilibrium.  On rare instances heterogeneous gains make the game
only approximately potential and the dynamics cycle; the run then escalates
the improvement threshold until the cycle dies (see
:class:`~repro.config.GameConfig`) and the certificate is an ε-Nash at
``GameResult.effective_epsilon`` — a ``converged=True`` result is never
returned without a certificate that holds.

Each schedule runs on one of two interchangeable evaluation kernels
(:class:`~repro.config.GameConfig` ``kernel``): the per-user ``"reference"``
loop, which evaluates every eligible user at every turn, or the
``"batched"`` kernel, which keeps every player's best response in one
incremental table (:class:`_BestResponseTable`).  The table is filled by
one :meth:`~repro.radio.sinr.SinrEngine.batch_best_responses` pass when
the run starts; after a move only the users covered by the mover's old or
new server are re-evaluated, so a run costs O(moves × coverage) row
evaluations instead of O(moves × M).  The pair is verified bit-for-bit —
identical move sequences (``GameResult.move_log``), identical equilibria,
identical certificates — by ``repro.bench.parity`` and
``tests/core/test_game_kernels.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import GameConfig
from ..errors import ConvergenceError
from ..logging_util import get_logger
from ..obs.tracer import Tracer, ensure_tracer
from ..radio.sinr import UNALLOCATED, BatchBestResponse, SinrEngine
from ..rng import ensure_rng
from .instance import IDDEInstance
from .profiles import AllocationProfile

_log = get_logger("core.game")

__all__ = ["IddeUGame", "GameResult", "BestResponse"]


@dataclass(frozen=True)
class BestResponse:
    """One user's best candidate move and the gain it would realise."""

    user: int
    server: int
    channel: int
    benefit: float
    current_benefit: float

    @property
    def gain(self) -> float:
        return self.benefit - self.current_benefit


@dataclass
class GameResult:
    """Outcome of one IDDE-U run.

    ``effective_epsilon`` is the improvement threshold in force when the
    dynamics stopped; it equals the configured epsilon unless cycling
    forced an escalation (see :class:`~repro.config.GameConfig`), in which
    case the certificate is for an ε-Nash equilibrium at that tolerance.
    """

    profile: AllocationProfile
    rounds: int
    moves: int
    converged: bool
    is_nash: bool
    wall_time_s: float
    effective_epsilon: float = 0.0
    potential_trace: list[float] = field(default_factory=list)
    #: Every applied move in order, as ``(user, server, channel)`` — the
    #: observable the reference/batched kernel-parity harness compares.
    move_log: list[tuple[int, int, int]] = field(default_factory=list)
    #: Users whose per-run move budget (``max_moves_per_user``) was spent
    #: when the dynamics stopped — the players a quiescent sweep had to
    #: re-check before certifying (empty on a clean convergence).
    capped_users: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GameResult(rounds={self.rounds}, moves={self.moves}, "
            f"nash={self.is_nash}, t={self.wall_time_s:.3f}s)"
        )


class _BestResponseTable:
    """Every player's best response, re-evaluated only where a move changed it.

    Moving a user from server ``old`` to server ``new`` changes the channel
    powers of those two servers alone, so only the users they cover see a
    new interference aggregate, hence a new best response or current
    benefit (the mover is covered by ``new``).  :meth:`moved` marks exactly
    those rows stale; :meth:`rows` and :meth:`row` re-evaluate stale rows
    on read (a non-player's flag is never read).  A row's floats do not
    depend on the batch it is evaluated in
    (:meth:`SinrEngine.batch_best_responses` reduces each padded row on its
    own), so the table always equals a fresh full pass bit for bit.
    """

    def __init__(self, engine: SinrEngine, players: np.ndarray) -> None:
        m = engine.scenario.n_users
        self.engine = engine
        self.server = np.full(m, UNALLOCATED, dtype=np.int64)
        self.channel = np.full(m, UNALLOCATED, dtype=np.int64)
        self.benefit = np.zeros(m)
        self.current_benefit = np.zeros(m)
        self.stale = np.zeros(m, dtype=bool)
        self._refresh(players)

    def _refresh(self, users: np.ndarray) -> None:
        batch = self.engine.batch_best_responses(users)
        self.server[users] = batch.server
        self.channel[users] = batch.channel
        self.benefit[users] = batch.benefit
        self.current_benefit[users] = batch.current_benefit
        self.stale[users] = False

    def moved(self, old: int, new: int) -> None:
        """Mark the rows a move from server ``old`` to ``new`` touches."""
        self.stale |= self.engine.coverage[new]
        if old != UNALLOCATED:
            self.stale |= self.engine.coverage[old]

    def rows(self, users: np.ndarray) -> BatchBestResponse:
        """The current rows of ``users``, stale ones re-evaluated first."""
        stale = users[self.stale[users]]
        if stale.size:
            self._refresh(stale)
        return BatchBestResponse(
            users=users,
            server=self.server[users],
            channel=self.channel[users],
            benefit=self.benefit[users],
            current_benefit=self.current_benefit[users],
        )

    def row(self, j: int) -> BestResponse | None:
        """User ``j``'s current row; ``None`` when no server covers it.

        A lone stale row (always a covered user's) is re-evaluated on the
        per-user path, which gives the same floats as a batched row at a
        lower fixed cost.
        """
        if self.stale[j]:
            view = self.engine.candidates(j)
            self.server[j], self.channel[j], self.benefit[j] = view.best("benefit")
            self.current_benefit[j] = self.engine.user_benefit(j)
            self.stale[j] = False
        if self.server[j] == UNALLOCATED:
            return None
        return BestResponse(
            user=j,
            server=int(self.server[j]),
            channel=int(self.channel[j]),
            benefit=float(self.benefit[j]),
            current_benefit=float(self.current_benefit[j]),
        )


class IddeUGame:
    """Best-response dynamics over a shared :class:`SinrEngine`."""

    def __init__(
        self,
        instance: IDDEInstance,
        cfg: GameConfig | None = None,
        *,
        track_potential: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        self.instance = instance
        self.cfg = cfg or GameConfig()
        self.track_potential = track_potential
        self.tracer = ensure_tracer(tracer)

    #: Participant mask for the current run (None = everyone plays).
    _active: np.ndarray | None = None

    def _players(self) -> np.ndarray:
        if self._active is None:
            return np.arange(self.instance.n_users)
        return np.flatnonzero(self._active)

    # ------------------------------------------------------------------
    # single-user best response
    # ------------------------------------------------------------------
    def best_response(self, engine: SinrEngine, j: int) -> BestResponse | None:
        """The benefit-maximising move for user ``j``, or ``None`` when the
        user has no covering server (it must stay at ``α_j = (0,0)``)."""
        view = engine.candidates(j)
        if view.servers.size == 0:
            return None
        server, channel, benefit = view.best("benefit")
        return BestResponse(
            user=j,
            server=server,
            channel=channel,
            benefit=benefit,
            current_benefit=engine.user_benefit(j),
        )

    def _improves(
        self, br: BestResponse | None, engine: SinrEngine, epsilon: float
    ) -> bool:
        if br is None:
            return False
        if engine.alloc_server[br.user] == UNALLOCATED:
            # Any positive benefit beats the unallocated state.
            return br.benefit > 0.0
        threshold = br.current_benefit * (1.0 + epsilon) + epsilon * 1e-30
        if (
            br.server == engine.alloc_server[br.user]
            and br.channel == engine.alloc_channel[br.user]
        ):
            return False
        return br.benefit > threshold

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator | int | None = None,
        *,
        initial: AllocationProfile | None = None,
        active: np.ndarray | None = None,
    ) -> GameResult:
        """Play the game to a Nash equilibrium.

        Parameters
        ----------
        rng:
            Only consulted by the ``"random-winner"`` schedule.
        initial:
            Optional warm-start profile; defaults to all-unallocated as in
            Algorithm 1 line 2.
        active:
            Optional boolean ``(M,)`` participant mask (used by the churn
            extension): inactive users never move and never allocate —
            they behave exactly like the paper's ``α_j = (0,0)`` users.
            A warm-start profile may not allocate inactive users.
        """
        engine = self.instance.new_engine()
        engine.set_tracer(self.tracer)
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if active.shape != (self.instance.n_users,):
                raise ConvergenceError(
                    f"active mask shape {active.shape} mismatches "
                    f"{self.instance.n_users} users"
                )
        # The mask must be cleared on *every* exit path — a raise during
        # warm-start validation or the dynamics must not poison the next
        # run()/is_nash() on this instance — so the whole body is guarded.
        self._active = active
        try:
            if initial is not None:
                initial.validate(self.instance.scenario)
                if active is not None and bool((initial.allocated & ~active).any()):
                    raise ConvergenceError(
                        "warm-start profile allocates inactive users"
                    )
                engine.load_profile(initial.server, initial.channel)
            rng = ensure_rng(rng)
            t0 = time.perf_counter()
            trace: list[float] = []
            log: list[tuple[int, int, int]] = []
            if self.track_potential:
                from .potential import interference_potential

                trace.append(interference_potential(engine))

            schedule = self.cfg.schedule
            batched = self.cfg.kernel == "batched"
            with self.tracer.span(
                "game.run",
                schedule=schedule,
                kernel=self.cfg.kernel,
                users=self.instance.n_users,
                warm_start=initial is not None,
            ) as span:
                table = _BestResponseTable(engine, self._players()) if batched else None
                if schedule == "round-robin":
                    outcome = self._run_round_robin(engine, trace, log, table)
                else:
                    best_gain = schedule == "best-gain-winner"
                    outcome = self._run_winner(engine, trace, log, rng, best_gain, table)
                rounds, moves, converged, eps, moves_of = outcome

                profile = AllocationProfile(engine.alloc_server, engine.alloc_channel)
                # If the dynamics truncated (max_rounds), the profile is
                # returned without a certificate: callers doing sweeps prefer
                # degraded output over an exception.
                nash = self.is_nash(profile, tol=eps) if converged else False
                capped = [
                    int(j)
                    for j in np.flatnonzero(moves_of >= self.cfg.max_moves_per_user)
                ]
                span.set(
                    rounds=rounds,
                    moves=moves,
                    br_rows=engine.br_rows,
                    converged=converged,
                    is_nash=nash,
                    effective_epsilon=eps,
                    capped_users=len(capped),
                )
        finally:
            self._active = None
        return GameResult(
            profile=profile,
            rounds=rounds,
            moves=moves,
            converged=converged,
            is_nash=nash,
            wall_time_s=time.perf_counter() - t0,
            effective_epsilon=eps,
            potential_trace=trace,
            move_log=log,
            capped_users=capped,
        )

    def _apply(
        self,
        engine: SinrEngine,
        br: BestResponse,
        trace: list[float],
        log: list[tuple[int, int, int]],
        table: _BestResponseTable | None,
    ) -> None:
        if table is not None:
            table.moved(int(engine.alloc_server[br.user]), br.server)
        engine.move(br.user, br.server, br.channel)
        log.append((br.user, br.server, br.channel))
        if self.tracer.enabled:
            self.tracer.event(
                "game.move",
                user=br.user,
                server=br.server,
                channel=br.channel,
                gain=br.gain,
            )
            self.tracer.count("game.moves")
        if self.track_potential:
            from .potential import interference_potential

            trace.append(interference_potential(engine))

    def _unfreeze_capped(
        self,
        engine: SinrEngine,
        players: np.ndarray,
        moves_of: np.ndarray,
        eps: float,
        moves: int,
    ) -> float | None:
        """Escalated epsilon if a move-capped player still improves, else None.

        A quiescent sweep certifies an equilibrium only if every player
        truly had nothing to gain — but players frozen by
        ``max_moves_per_user`` never got a turn.  If one of them still has
        an ε-improving move the dynamics were cycling, so instead of
        returning a false certificate the threshold escalates (past
        ``epsilon_max``, which bounds only the patience-driven escalation)
        and every move budget is refreshed.  Benefit ratios are bounded, so
        the geometric escalation silences any cycle after finitely many
        refreshes and the eventual certificate is an honest ε-Nash at the
        returned tolerance.

        Shared verbatim by the reference and batched runners: the check is
        per-user (it is a rare, terminal-sweep-only path) so both kernels
        take bit-for-bit identical escalation decisions.
        """
        cap = self.cfg.max_moves_per_user
        capped = players[moves_of[players] >= cap]
        if self.tracer.enabled:
            self.tracer.count("game.quiescent_checks")
            self.tracer.count("game.quiescent_recheck_users", int(capped.size))
        for j in capped:
            j = int(j)
            if self._improves(self.best_response(engine, j), engine, eps):
                moves_of[players] = 0
                # A configured epsilon of exactly 0 must still escalate
                # off zero, hence the one-ulp floor.
                new_eps = max(
                    eps * self.cfg.epsilon_growth, float(np.finfo(np.float64).eps)
                )
                _log.debug(
                    "capped users still deviate: escalated epsilon to %.1e after %d moves",
                    new_eps,
                    moves,
                )
                if self.tracer.enabled:
                    self.tracer.event(
                        "game.epsilon_escalation",
                        reason="move-cap",
                        epsilon=new_eps,
                        capped=int(capped.size),
                    )
                    self.tracer.count("game.escalations")
                return new_eps
        return None

    def _escalate_patience(self, eps: float, moves: int, label: str) -> float:
        """Patience-driven epsilon escalation, shared by all four runners."""
        new_eps = min(eps * self.cfg.epsilon_growth, self.cfg.epsilon_max)
        _log.debug(
            "%s cycling: escalated epsilon to %.1e after %d moves",
            label,
            new_eps,
            moves,
        )
        if self.tracer.enabled:
            self.tracer.event(
                "game.epsilon_escalation", reason="patience", epsilon=new_eps, moves=moves
            )
            self.tracer.count("game.escalations")
        return new_eps

    def _run_round_robin(
        self,
        engine: SinrEngine,
        trace: list[float],
        log: list[tuple[int, int, int]],
        table: _BestResponseTable | None,
    ) -> tuple[int, int, bool, float, np.ndarray]:
        """Round-robin sweeps: users in index order, each applying its best
        response at once; a sweep with no move ends the run.

        On the batched kernel a turn reads the user's row of ``table``,
        re-evaluated only if a move since its last evaluation touched one
        of its covering servers; the reference kernel evaluates every turn.
        """
        m = self.instance.n_users
        players = self._players()
        moves = 0
        eps = self.cfg.epsilon
        patience = self.cfg.patience_for(m)
        since_escalation = 0
        moves_of = np.zeros(m, dtype=np.int64)
        cap = self.cfg.max_moves_per_user
        for rounds in range(1, self.cfg.max_rounds + 1):
            if table is not None:
                # Rows staled after their turn last sweep: one batch beats
                # re-evaluating them one by one below.
                table.rows(players[moves_of[players] < cap])
            moved = False
            for j in players:
                j = int(j)
                if moves_of[j] >= cap:
                    continue
                br = self.best_response(engine, j) if table is None else table.row(j)
                if self._improves(br, engine, eps):
                    assert br is not None
                    self._apply(engine, br, trace, log, table)
                    moves += 1
                    moves_of[j] += 1
                    since_escalation += 1
                    moved = True
            if not moved:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps, moves)
                if unfrozen is None:
                    return rounds, moves, True, eps, moves_of
                eps, since_escalation = unfrozen, 0
                continue
            if since_escalation >= patience and eps < self.cfg.epsilon_max:
                eps = self._escalate_patience(eps, moves, "round-robin")
                since_escalation = 0
        _log.info("round-robin truncated at max_rounds=%d", self.cfg.max_rounds)
        return self.cfg.max_rounds, moves, False, eps, moves_of

    def _run_winner(
        self,
        engine: SinrEngine,
        trace: list[float],
        log: list[tuple[int, int, int]],
        rng: np.random.Generator,
        best_gain: bool,
        table: _BestResponseTable | None,
    ) -> tuple[int, int, bool, float, np.ndarray]:
        """Winner schedules: each round one improving user moves — the one
        with the largest gain (Algorithm 1) or a uniformly random one.

        The batched kernel picks the winner from ``table``
        (:meth:`_winner_batched`), the reference kernel from a per-user
        sweep (:meth:`_winner_reference`); both pick the same user.
        """
        m = self.instance.n_users
        players = self._players()
        moves = 0
        eps = self.cfg.epsilon
        patience = self.cfg.patience_for(m)
        since_escalation = 0
        moves_of = np.zeros(m, dtype=np.int64)
        cap = self.cfg.max_moves_per_user
        for rounds in range(1, self.cfg.max_rounds + 1):
            eligible = players[moves_of[players] < cap]
            if table is None:
                winner = self._winner_reference(engine, eligible, eps, rng, best_gain)
            else:
                winner = self._winner_batched(engine, table, eligible, eps, rng, best_gain)
            if winner is None:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps, moves)
                if unfrozen is None:
                    return rounds, moves, True, eps, moves_of
                eps, since_escalation = unfrozen, 0
                continue
            self._apply(engine, winner, trace, log, table)
            moves += 1
            moves_of[winner.user] += 1
            since_escalation += 1
            if since_escalation >= patience and eps < self.cfg.epsilon_max:
                eps = self._escalate_patience(eps, moves, "winner schedule")
                since_escalation = 0
        _log.info("winner schedule truncated at max_rounds=%d", self.cfg.max_rounds)
        return self.cfg.max_rounds, moves, False, eps, moves_of

    def _winner_reference(
        self,
        engine: SinrEngine,
        eligible: np.ndarray,
        eps: float,
        rng: np.random.Generator,
        best_gain: bool,
    ) -> BestResponse | None:
        """The round's winner from a per-user sweep of the eligible users."""
        candidates: list[BestResponse] = []
        for j in eligible:
            br = self.best_response(engine, int(j))
            if self._improves(br, engine, eps):
                assert br is not None
                candidates.append(br)
        if not candidates:
            return None
        if best_gain:
            return max(candidates, key=lambda b: (b.gain, -b.user))
        return candidates[int(rng.integers(0, len(candidates)))]

    def _winner_batched(
        self,
        engine: SinrEngine,
        table: _BestResponseTable,
        eligible: np.ndarray,
        eps: float,
        rng: np.random.Generator,
        best_gain: bool,
    ) -> BestResponse | None:
        """The reference winner, chosen from the best-response table.

        ``argmax`` returns the lowest improving user among equal gains (the
        reference's ``(gain, -user)`` key), and the random winner draws the
        same index from the identical candidate list, keeping the rng
        stream aligned.
        """
        rows = table.rows(eligible)
        # Vectorised :meth:`_improves` over the rows.
        cur_server = engine.alloc_server[eligible]
        same = (rows.server == cur_server) & (rows.channel == engine.alloc_channel[eligible])
        threshold = rows.current_benefit * (1.0 + eps) + eps * 1e-30
        improving = (rows.server != UNALLOCATED) & np.where(
            cur_server == UNALLOCATED, rows.benefit > 0.0, ~same & (rows.benefit > threshold)
        )
        idx = np.flatnonzero(improving)
        if idx.size == 0:
            return None
        if best_gain:
            gains = rows.benefit[idx] - rows.current_benefit[idx]
            pos = int(idx[int(np.argmax(gains))])
        else:
            pos = int(idx[int(rng.integers(0, idx.size))])
        return BestResponse(
            user=int(rows.users[pos]),
            server=int(rows.server[pos]),
            channel=int(rows.channel[pos]),
            benefit=float(rows.benefit[pos]),
            current_benefit=float(rows.current_benefit[pos]),
        )

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------
    def is_nash(
        self,
        profile: AllocationProfile,
        *,
        tol: float | None = None,
        active: np.ndarray | None = None,
    ) -> bool:
        """Definition 3 certificate: no user has a profitable deviation.

        ``tol`` defaults to the configured epsilon; a deviation must beat
        the current benefit by more than ``tol`` (relative) to disprove
        equilibrium.  ``active`` restricts the player set (the churn
        extension): inactive users are not players, so their lack of an
        allocation never disproves equilibrium.
        """
        tol = self.cfg.epsilon if tol is None else tol
        engine = self.instance.new_engine()
        engine.load_profile(profile.server, profile.channel)
        if active is not None:
            players = np.flatnonzero(np.asarray(active, dtype=bool))
        else:
            players = self._players()
        if self.cfg.kernel == "batched":
            batch = engine.batch_best_responses(players)
            has_candidate = batch.server != UNALLOCATED
            unallocated = engine.alloc_server[players] == UNALLOCATED
            threshold = batch.current_benefit * (1.0 + tol) + tol * 1e-30
            deviates = has_candidate & np.where(
                unallocated, batch.benefit > 0.0, batch.benefit > threshold
            )
            return not bool(deviates.any())
        for j in players:
            j = int(j)
            br = self.best_response(engine, j)
            if br is None:
                continue
            current = engine.user_benefit(j)
            if engine.alloc_server[j] == UNALLOCATED:
                if br.benefit > 0.0:
                    return False
            elif br.benefit > current * (1.0 + tol) + tol * 1e-30:
                return False
        return True
