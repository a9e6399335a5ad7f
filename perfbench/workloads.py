"""Inputs and in-process runners of the perfbench workloads.

Every input is generated here from the workload seed and the parameters in
``manifest.json``; the program under test only ever receives them through
its public entry points (``repro.api.execute``,
``DynamicSimulation.run_events``, and the ``idde serve`` wire API driven by
:mod:`loadgen`).

The instance of each workload is a fixed fixture (``fixture_seed``), the
``idde bench`` scale point of the same name; the workload seed varies what
happens on it — the event stream, or for the metro solve the moment of the
day the snapshot is taken.  Instance-to-instance variation of the latency
objective is 20-40% at M and L, far wider than any regression bound, so a
per-seed instance would make every bound unresolvable.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Callable

import numpy as np
from layers import Recorder, clock

from repro.api import Solution
from repro.config import DeliveryConfig, GameConfig
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.rng import spawn_rng
from repro.workload import StreamConfig, WorkloadState, batch_by_count, poisson_zipf_stream

MANIFEST: dict[str, Any] = json.loads(
    (Path(__file__).resolve().parent / "manifest.json").read_text(encoding="utf-8")
)
WORKLOADS = tuple(MANIFEST["workloads"])


def params(workload: str) -> dict[str, Any]:
    return MANIFEST["workloads"][workload]


def game_config() -> GameConfig:
    return GameConfig(**MANIFEST["game"])


def delivery_config() -> DeliveryConfig:
    return DeliveryConfig(**MANIFEST["delivery"])


def fixture(workload: str) -> IDDEInstance:
    """The workload's fixed instance, as ``idde bench`` builds that scale."""
    from repro.bench.fixtures import instance_for

    return instance_for(params(workload)["fixture"]["scale"], MANIFEST["fixture_seed"])


def stream(workload: str, seed: int, base: IDDEInstance, n_events: int) -> list:
    """The workload's seeded Poisson/Zipf event stream, materialised."""
    return list(
        poisson_zipf_stream(
            base.scenario,
            rng=spawn_rng(seed, "perfbench", workload),
            config=StreamConfig(**params(workload)["stream"]),
            n_events=n_events,
        )
    )


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.r_avg: list[float] = []
        self.l_avg: list[float] = []
        self.moves: list[int] = []
        #: How the quality figures were averaged, for the report.
        self.quality_note = ""
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.setup_s: list[float] = []
        #: Calibration slices timed beside the ops.
        self.speed = HostSpeed()
        #: Extra measured figures for the report (name -> (value, unit, note)).
        self.report: dict[str, tuple[float, str, str]] = {}
        #: Per-layer figures measured outside the span log.
        self.layer_extra: dict[str, float] = {}
        self.wrapper_s = 0.0
        self.spans: list = []
        self.daemon = False

    def check(self, ok: bool, message: str) -> bool:
        """Count one correctness check against ``failures``."""
        if not ok:
            self.failures.append(message)
        return ok


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a, self.b = a, b

    def at(self, x: float) -> float:
        return self.a * x + self.b


_RNG = np.random.default_rng(0)
#: A 1.8 MB array (users x servers x items scale) and an index into it.
_WIDE = _RNG.random((8, 450, 64))
_PICK = _RNG.integers(0, 450, 400)


def calibration_slice() -> float:
    """Time one fixed slice of work (~2.5 ms) in three equal parts.

    Interpreter work on small objects and dicts, small-array numpy
    compute, and numpy passes over a 1.8 MB array: the mix the program's
    ops run, and none of the program's code, so a change to the program
    leaves the slice alone.  Each part alone followed the host's speed
    less closely than the three together.
    """
    t0 = clock()
    points = [_Point(i, i * 0.5) for i in range(120)]
    table: dict[float, float] = {}
    acc = 0.0
    for r in range(15):
        for pt in points:
            v = pt.at(r)
            table[pt.a % 31] = table.get(pt.a % 31, 0.0) + v
            acc += v**0.5
        sorted(table.items(), key=lambda kv: kv[1])
    a = np.arange(2500, dtype=float).reshape(50, 50) / 2500
    for _ in range(30):
        a = np.tanh(a @ a.T) + np.exp(-a)
    x = np.exp(-0.5 * _WIDE[:2]).sum(axis=0)
    np.argmax(x, axis=1)
    _WIDE[:, _PICK, :8].max(axis=2)
    return clock() - t0


class HostSpeed:
    """How fast the host ran, from calibration slices timed beside the ops.

    The shared 2-CPU host the benchmark was tuned on ran identical work
    up to 1.8x faster or slower for seconds to minutes at a time, and the
    ratio of an op's time to the slice's moved far less across those
    swings.  The gated times are therefore scaled to a host on which the
    slice takes ``calibration.reference_ms`` (``manifest.json``), each
    group of ops by the slices timed during it; the raw times are printed
    beside them.
    """

    def __init__(self) -> None:
        #: ``(start on clock, duration)`` of every slice, in seconds.
        self.slices: list[tuple[float, float]] = []

    def tick(self, n: int = 1) -> None:
        for _ in range(n):
            self.slices.append((clock(), calibration_slice()))

    def median_ms(self) -> float:
        return 1000 * statistics.median(d for _, d in self.slices)

    def scale(self) -> float:
        """One factor for the whole run, from all its slices."""
        return MANIFEST["calibration"]["reference_ms"] / self.median_ms()

    def scales(self, windows: list[tuple[float, float]], group: int) -> list[float]:
        """One factor per op that turns its measured time into reference time.

        Ops fall in consecutive groups of ``group`` (a trailing partial
        group joins the one before it).  A group's factor comes from the
        slices timed after the previous group ended and before it ended:
        the slices between its ops, or the burst just before a lone op.
        """
        n = len(windows)
        n_groups = max(1, n // group)
        ends = [windows[(g + 1) * group - 1][1] for g in range(n_groups - 1)] + [float("inf")]
        ref_s = MANIFEST["calibration"]["reference_ms"] / 1000
        whole = [d for _, d in self.slices]
        factors, lo = [], float("-inf")
        for hi in ends:
            near = [d for t, d in self.slices if lo < t <= hi]
            factors.append(ref_s / statistics.median(near or whole))
            lo = hi
        return [factors[min(i // group, n_groups - 1)] for i in range(n)]


def certify(
    instance: IDDEInstance, solution_alloc: Any, tol: float, active: Any = None
) -> bool:
    """Re-check ε-Nash with a fresh game built in the benchmark process."""
    return bool(IddeUGame(instance, game_config()).is_nash(solution_alloc, tol=tol, active=active))


def tail(values: list[float], percentiles: tuple[int, ...] = (99, 95, 90)) -> tuple[str, float]:
    """The highest of ``percentiles`` with at least ten samples beyond it.

    Returns its name (``"p99"``) and value; ``("max", max)`` when the
    sample is too small for any of them.
    """
    n = len(values)
    for p in percentiles:
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "max", max(values)


def grouped_rate(values: list[float], group: int, scales: list[float]) -> tuple[float, int]:
    """Ops per second of op time, median over consecutive groups of ops.

    ``values`` are op times in seconds, in run order, and ``scales`` their
    :meth:`HostSpeed.scales`; each full group of ``group`` ops gives
    ``group / sum(times * scales)`` and a trailing partial group is
    dropped.  Returns the median rate and the number of groups (one group
    of everything when the run is shorter than ``group``).  A burst of
    host contention slows the groups it overlaps, so the median over a
    run moves less than the run's mean does.
    """
    scaled = [v * k for v, k in zip(values, scales)]
    groups = [scaled[i : i + group] for i in range(0, len(scaled) - group + 1, group)]
    groups = groups or [scaled]
    return statistics.median(len(g) / sum(g) for g in groups), len(groups)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# metro-cold-XL
# ----------------------------------------------------------------------
def metro_inputs(seed: int) -> tuple[IDDEInstance, WorkloadState]:
    """The XL fixture after a seeded stream of user moves (the snapshot)."""
    p = params("metro-cold-XL")["snapshot"]
    base = fixture("metro-cold-XL")
    moves = poisson_zipf_stream(
        base.scenario,
        rng=spawn_rng(seed, "perfbench", "metro-cold-XL"),
        config=StreamConfig(
            arrival_rate=0.0, departure_rate=0.0, shift_rate=0.0, move_sigma=p["move_sigma"]
        ),
        n_events=p["move_events"],
    )
    state = WorkloadState.from_scenario(base.scenario)
    state.apply(moves)
    return base, state


def run_metro(seed: int, seconds: float, recorder: Recorder | None) -> Outcome:
    import repro.api
    from repro.request import SolveRequest

    out = Outcome()
    base, state = metro_inputs(seed)
    request = SolveRequest(
        solver="idde-g",
        game_config=game_config(),
        delivery_config=delivery_config(),
        rng=seed,
        validate=params("metro-cold-XL")["validate"],
    )

    def fresh() -> IDDEInstance:
        # A new scenario object per solve: coverage, covering sets and the
        # path-cost model are cached per object, and a cold solve pays them.
        return IDDEInstance(state.scenario(base.scenario), base.topology, base.radio)

    if recorder is not None:
        recorder.clear()
    first: Solution | None = None
    deadline = clock() + seconds
    while True:
        out.speed.tick(MANIFEST["calibration"]["slices_per_solve"])
        instance = fresh()
        out.attempted += 1
        t0 = clock()
        try:
            sol = repro.api.execute(instance, request)
        except Exception as exc:  # a failed solve is a counted failure
            out.check(False, f"solve {out.attempted} raised {exc!r}")
            break
        t1 = clock()
        out.latencies_s.append(t1 - t0)
        out.windows.append((t0, t1))
        ok = out.check(sol.game is not None and sol.game.is_nash, "solve lacks its ε-Nash flag")
        if first is None:
            first = sol
        elif ok:
            out.check(
                (sol.r_avg, sol.l_avg_ms, sol.game.moves)
                == (first.r_avg, first.l_avg_ms, first.game.moves),
                "repeated cold solve of one input gave a different answer",
            )
        if clock() >= deadline:
            break
    out.peak_rss_mb = peak_rss_mb()
    if first is not None and first.game is not None:
        out.r_avg.append(first.r_avg)
        out.l_avg.append(first.l_avg_ms)
        out.moves.append(first.game.moves)
        out.quality_note = "the solve's objective; every repeat is checked equal"
        out.attempted += 1
        out.check(
            certify(fresh(), first.allocation, first.game.effective_epsilon),
            "independent ε-Nash re-check failed on the metro solve",
        )
    return out


# ----------------------------------------------------------------------
# replay-churn-L
# ----------------------------------------------------------------------
def replay_inputs(seed: int) -> tuple[IDDEInstance, list]:
    p = params("replay-churn-L")
    base = fixture("replay-churn-L")
    events = stream("replay-churn-L", seed, base, p["events"])
    return base, list(batch_by_count(events, p["events_per_epoch"]))


def run_replay(seed: int, seconds: float, recorder: Recorder | None) -> Outcome:
    from repro.dynamics import DynamicSimulation

    out = Outcome()
    p = params("replay-churn-L")
    base, batches = replay_inputs(seed)
    every = MANIFEST["calibration"]["every_ops"]
    if recorder is not None:
        recorder.clear()
    deadline = clock() + seconds
    first_records: list | None = None
    while True:
        starts: list[float] = []
        ends: list[float] = []
        stop_early = first_records is not None

        def timed(stop_early: bool = stop_early) -> Any:
            # Each pull of the next batch ends the previous epoch; the
            # calibration slices run between epochs, outside both.  After
            # the first full pass the run ends at the deadline, mid-pass.
            for i, batch in enumerate(batches):
                now = clock()
                if starts:
                    ends.append(now)
                if stop_early and now >= deadline:
                    return
                if i % every == 0:
                    out.speed.tick()
                starts.append(clock())
                yield batch
            ends.append(clock())

        sim = DynamicSimulation(
            base,
            policy=p["policy"],
            game=game_config(),
            delivery=delivery_config(),
        )
        try:
            records = sim.run_events(timed(), rng=seed)
        except Exception as exc:  # a failed epoch is a counted failure
            out.attempted += 1
            out.check(False, f"replay pass raised {exc!r}")
            break
        for rec in records:
            out.attempted += 1
            out.check(
                rec.solution is not None and rec.solution.game.is_nash,
                f"epoch {rec.epoch} is not certified ε-Nash",
            )
        out.windows.extend(zip(starts, ends))
        out.latencies_s.extend(b - a for a, b in zip(starts, ends))
        if first_records is None:
            first_records = records
        else:
            out.check(
                [(r.r_avg, r.l_avg_ms, r.game_moves) for r in records]
                == [(r.r_avg, r.l_avg_ms, r.game_moves) for r in first_records[: len(records)]],
                "a repeated replay pass gave a different answer",
            )
        if clock() >= deadline:
            break
    out.peak_rss_mb = peak_rss_mb()
    if first_records:
        summary = DynamicSimulation.summarize(first_records)
        out.r_avg.append(summary["mean_r_avg"])
        out.l_avg.append(summary["mean_l_avg_ms"])
        out.moves.extend(r.game_moves for r in first_records[1:])
        out.quality_note = f"mean over the {len(first_records)} epochs of the first pass"
        state = WorkloadState.from_scenario(base.scenario)
        for batch in batches:
            state.apply(batch)
        final = first_records[-1]
        out.attempted += 1
        out.check(
            final.active_users == state.n_active
            and certify(
                IDDEInstance(state.scenario(base.scenario), base.topology, base.radio),
                final.solution.allocation,
                final.solution.game.effective_epsilon,
                state.active,
            ),
            "independent ε-Nash re-check failed on the final replay epoch",
        )
    return out


#: In-process runners by workload name; the serve workload lives in loadgen.
IN_PROCESS: dict[str, Callable[[int, float, Recorder | None], Outcome]] = {
    "metro-cold-XL": run_metro,
    "replay-churn-L": run_replay,
}

#: Input builders a set-up probe times (import + fixture + inputs).
INPUTS: dict[str, Callable[[int], Any]] = {
    "metro-cold-XL": metro_inputs,
    "replay-churn-L": replay_inputs,
}
