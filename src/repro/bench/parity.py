"""Kernel-pair parity harness: ``reference`` vs ``batched``, both phases.

IDDE-Bench measures how fast a kernel is; this module establishes that a
fast kernel is *the same algorithm*.  Each phase of IDDE-G has two
kernels held to bit-for-bit parity — not "numerically close":

* **game** — the two evaluation kernels of
  :class:`~repro.core.game.IddeUGame` reduce interference over the
  identical padded covering row (see :mod:`repro.radio.sinr`), so every
  benefit is the identical float, every argmax breaks ties identically,
  and every run applies the identical move sequence;
* **delivery** — the two greedy kernels of :mod:`repro.core.delivery`
  evaluate every candidate's gain with the identical BLAS matvec, so the
  greedy loop places the identical replica sequence.

:func:`verify_parity` replays both families over the shared bench
fixtures.  Every case runs the pair from identical inputs, reduces each
run to a ``name → value`` dict of observables, and names the observables
that differ:

* game, per ``(seed, schedule)``: ``move-log`` (the full ordered move
  sequence, implying identical RNG consumption), ``profile`` (server and
  channel assignments) and ``certificate`` (``converged``, ``is_nash``,
  rounds, moves, ``effective_epsilon`` and ``capped_users``);
* delivery, per ``(seed, config, traced)`` over the converged IDDE-U
  equilibrium: ``placements`` (the ordered ``(server, item)`` sequence and
  the iteration count), ``gains`` (the bitwise total gain), ``profile``
  and, in traced replays, ``trace`` (per-placement events, the stop
  event and the threshold-reject count — tracer observables are part of
  the contract, not a debugging nicety).

The CI smoke gate runs it via ``idde bench --verify-parity``;
``tests/core/test_game_kernels.py`` and
``tests/core/test_delivery_kernels.py`` pin the same contracts in the test
suite.  A parity break is a correctness bug in whichever kernel changed
last — never relax the comparison to tolerances to make it pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from ..config import DeliveryConfig, GameConfig
from ..core.delivery import DeliveryResult, greedy_delivery
from ..core.game import GameResult, IddeUGame
from ..core.instance import IDDEInstance
from ..core.profiles import AllocationProfile
from ..obs.tracer import RecordingTracer, Tracer
from .fixtures import equilibrium_profile, instance_for

__all__ = [
    "DELIVERY_PARITY_CONFIGS",
    "PARITY_SCHEDULES",
    "PARITY_SEEDS",
    "PairCase",
    "ParityReport",
    "render_parity_text",
    "verify_parity",
]

#: Default verification grid: 5 seeds x (all three schedules + four
#: delivery configs x {plain, traced}) = 15 game and 40 delivery cases.
PARITY_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)
PARITY_SCHEDULES: tuple[str, ...] = tuple(GameConfig._SCHEDULES)
#: Both selection rules, each plain and with a stopping threshold high
#: enough to reject real candidates — the thresholded cases are what make
#: the reject-count comparison meaningful.
DELIVERY_PARITY_CONFIGS: tuple[DeliveryConfig, ...] = (
    DeliveryConfig(ratio_rule=True),
    DeliveryConfig(ratio_rule=True, min_gain_s_per_mb=0.005),
    DeliveryConfig(ratio_rule=False),
    DeliveryConfig(ratio_rule=False, min_gain_s=1.0),
)

_KERNELS = ("reference", "batched")
#: What a case's ``size`` counts, per family.
_SIZE_NAMES = {"game": "moves", "delivery": "placements"}

Observables = dict[str, object]


@dataclass(frozen=True)
class PairCase:
    """Parity verdict for one reference/batched replay.

    ``size`` is the reference run's move count (game) or placement count
    (delivery); ``broken`` names the observables that differed.
    """

    family: str
    label: str
    size: int
    broken: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.broken

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        detail = f"{_SIZE_NAMES[self.family]}={self.size}"
        if self.broken:
            detail += " broken=" + ",".join(self.broken)
        return f"{self.family:<8s} {self.label:<36s} {status:<8s} {detail}"


@dataclass(frozen=True)
class ParityReport:
    """Aggregate verdict over the verification grid."""

    cases: tuple[PairCase, ...]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> tuple[PairCase, ...]:
        return tuple(case for case in self.cases if not case.ok)


def _compare(
    family: str, label: str, size: int, ref: Observables, bat: Observables
) -> PairCase:
    """The case verdict: every observable must be equal, bit for bit."""
    broken = tuple(name for name in ref if ref[name] != bat[name])
    return PairCase(family=family, label=label, size=size, broken=broken)


def _game_observables(result: GameResult) -> Observables:
    return {
        "move-log": list(result.move_log),
        "profile": (result.profile.server.tolist(), result.profile.channel.tolist()),
        "certificate": (
            result.converged,
            result.is_nash,
            result.rounds,
            result.moves,
            result.effective_epsilon,
            list(result.capped_users),
        ),
    }


def _delivery_run(
    instance: IDDEInstance, alloc: AllocationProfile, cfg: DeliveryConfig, traced: bool
) -> tuple[int, Observables]:
    """One greedy run: its placement count and its observables."""
    tracer = RecordingTracer() if traced else None
    result = greedy_delivery(instance, alloc, cfg, tracer=tracer)
    return len(result.placements), _delivery_observables(result, tracer)


def _delivery_observables(
    result: DeliveryResult, tracer: RecordingTracer | None
) -> Observables:
    observables: Observables = {
        "placements": (list(result.placements), result.iterations),
        "gains": result.total_gain_s,
        "profile": result.profile.placed.tolist(),
    }
    if tracer is not None:
        places = [
            (e.fields["server"], e.fields["item"], e.fields["gain_s"], e.fields["score"])
            for e in tracer.events
            if e.etype == "delivery.place"
        ]
        stops = [
            (e.fields["rejected"], e.fields["iterations"])
            for e in tracer.events
            if e.etype == "delivery.stop"
        ]
        rejects = int(tracer.counters.get("delivery.threshold_rejects", 0))
        observables["trace"] = (places, stops, rejects)
    return observables


def _game_cases(
    scale: str, seeds: tuple[int, ...], tracer: Tracer | None
) -> Iterator[PairCase]:
    for seed in seeds:
        instance = instance_for(scale, seed)
        for schedule in PARITY_SCHEDULES:
            cfg = GameConfig(schedule=schedule)
            ref, bat = (
                IddeUGame(instance, replace(cfg, kernel=k), tracer=tracer).run(rng=seed)
                for k in _KERNELS
            )
            yield _compare(
                "game",
                f"{scale} seed={seed} {schedule}",
                ref.moves,
                _game_observables(ref),
                _game_observables(bat),
            )


def _delivery_cases(scale: str, seeds: tuple[int, ...]) -> Iterator[PairCase]:
    for seed in seeds:
        instance = instance_for(scale, seed)
        alloc = equilibrium_profile(scale, seed)
        for cfg in DELIVERY_PARITY_CONFIGS:
            rule = "ratio" if cfg.ratio_rule else "abs"
            threshold = cfg.min_gain_s_per_mb if cfg.ratio_rule else cfg.min_gain_s
            for traced in (False, True):
                (size, ref), (_, bat) = (
                    _delivery_run(instance, alloc, replace(cfg, kernel=k), traced)
                    for k in _KERNELS
                )
                mode = "traced" if traced else "plain"
                yield _compare(
                    "delivery",
                    f"{scale} seed={seed} {rule} thresh={threshold:g} {mode}",
                    size,
                    ref,
                    bat,
                )


def verify_parity(
    scale: str = "S",
    seeds: tuple[int, ...] = PARITY_SEEDS,
    tracer: Tracer | None = None,
) -> ParityReport:
    """Replay both kernel families over the ``seeds`` grid at ``scale``.

    Game cases play the shared fixture instance from an identical RNG seed
    under each schedule; delivery cases condition both greedy kernels on
    that instance's converged IDDE-U equilibrium under each config, plain
    and traced.  An attached ``tracer`` observes the game replays — the
    tracer never consumes RNG, so parity must hold with tracing on; the
    traced delivery replays record into their own tracers, whose contents
    are compared.
    """
    cases = (*_game_cases(scale, seeds, tracer), *_delivery_cases(scale, seeds))
    return ParityReport(cases=cases)


def render_parity_text(report: ParityReport) -> str:
    """Human-readable verdict table for the CLI."""
    lines = ["kernel-pair parity: reference vs batched (game + delivery)"]
    lines.extend("  " + case.describe() for case in report.cases)
    verdict = "PARITY OK" if report.ok else f"PARITY BROKEN ({len(report.failures)} cases)"
    lines.append(f"{verdict}: {len(report.cases)} cases")
    return "\n".join(lines)
