"""Layer-timing shim: wrap public ``repro`` callables with a self-time recorder.

The benchmark measures the program from the outside.  :data:`LAYER_TABLE`
lists ``(module, attribute, span, counter)`` entries; :meth:`Recorder.install`
replaces each attribute with a wrapper that records one span per call —
name, parent span, start, duration and self time (duration minus the
time of wrapped calls nested inside it) — on a per-thread stack, so the
daemon's solver thread and its event-loop thread never share a stack.
Each entry is patched at the attribute the caller resolves: a module
global for functions the caller imported by name (``repro.api``'s
``repair_allocation``), the class attribute for methods.  No file under
``src/`` changes.

Spans stay in memory until the run ends, when the benchmark writes them
out.  :func:`layer_metrics` folds them into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: One system-wide monotonic clock for spans and op windows, so spans
#: recorded in the daemon process line up with the load generator's
#: request windows (CLOCK_MONOTONIC on Linux).
clock = time.monotonic


def _rows(out: Any) -> dict[str, float]:
    return {"sinr.br_rows": float(len(out.users))}


def _detached(out: Any) -> dict[str, float]:
    return {"repair.detached": float(out[1])}


def _game(out: Any) -> dict[str, float]:
    return {"game.rounds": float(out.rounds), "game.moves": float(out.moves)}


def _delivery(out: Any) -> dict[str, float]:
    return {"delivery.iterations": float(out.iterations)}


def _events(out: Any) -> dict[str, float]:
    return {"workload.events": float(out)}


#: ``(module, attribute, span, counter)``: every layer the benchmark
#: attributes time to.  Two entries may share a span name when two
#: callers resolve the same layer through different attributes.
LAYER_TABLE: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.serve.session", "SolverSession.apply_events", "session", None),
    ("repro.serve.session", "SolverSession._certify", "session.certify", None),
    ("repro.serve.session", "SolverSession.solution_document", "serve.solution_doc", None),
    ("repro.serve.session", "execute", "api.execute", None),
    ("repro.api", "execute", "api.execute", None),
    ("repro.api", "repair_allocation", "repair", _detached),
    ("repro.dynamics.timeline", "repair_allocation", "repair", _detached),
    ("repro.dynamics.timeline", "DynamicSimulation.run_events", "dynamics", None),
    ("repro.dynamics.timeline", "plan_migration", "dynamics.migration", None),
    ("repro.dynamics.timeline", "evaluate", "objectives.evaluate", None),
    ("repro.workload.events", "WorkloadState.apply", "workload.fold", _events),
    ("repro.workload.events", "WorkloadState.scenario", "workload.project", None),
    ("repro.types", "coverage_matrix", "geometry.coverage", None),
    ("repro.types", "covering_sets", "geometry.coverage", None),
    ("repro.topology.latency", "all_pairs_path_cost", "topology.path_cost", None),
    ("repro.radio.sinr", "SinrEngine.__init__", "sinr.engine_build", None),
    ("repro.radio.sinr", "SinrEngine._batch_tables", "sinr.batch_tables", None),
    ("repro.radio.sinr", "SinrEngine.load_profile", "sinr.load_profile", None),
    ("repro.radio.sinr", "SinrEngine.batch_best_responses", "sinr.best_responses", _rows),
    ("repro.core.game", "IddeUGame.run", "game.run", _game),
    ("repro.core.game", "IddeUGame.is_nash", "game.is_nash", None),
    ("repro.core.idde_g", "greedy_delivery", "delivery", _delivery),
    ("repro.core.strategy", "evaluate", "objectives.evaluate", None),
    ("repro.core.strategy", "check_strategy", "constraints.check", None),
)

#: A span record: (name, parent name or None, start, duration, self time,
#: counters or None, recorded on the main thread).
Span = tuple


class _ThreadLog:
    __slots__ = ("stack", "spans", "main")

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []
        self.spans: list[Span] = []
        self.main = threading.current_thread() is threading.main_thread()


class Recorder:
    """Per-thread span stacks feeding one in-memory span log."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            log = self._log()
            stack = log.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
            counts = counter(out) if counter is not None else None
            log.spans.append((name, parent, t0, dur, dur - frame[1], counts, log.main))
            return out

        return wrapper

    def install(self, table: Iterable[tuple] = LAYER_TABLE) -> None:
        """Patch every table entry (idempotent per recorder)."""
        if self._patches:
            return
        for module_name, attr, span, counter in table:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(original, span, counter))
            self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def clear(self) -> None:
        with self._lock:
            for log in self._logs:
                log.spans.clear()

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for log in self._logs for s in log.spans]


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare call, in seconds."""

    def bare() -> None:
        return None

    rec = Recorder()
    wrapped = rec.wrap(bare, "calibrate", None)
    t0 = clock()
    for _ in range(calls):
        bare()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


#: Per-layer metrics reported by every traced run, in ``BENCHMARK.json`` order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("serve.wire_ms_per_op", "ms", "lower"),
    ("serve.solution_doc_ms_per_op", "ms", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.read_p50_ms", "ms", "lower"),
    ("serve.read_tail_ms", "ms", "lower"),
    ("serve.reader_late_ms", "ms", "lower"),
    ("obs.trace_records", "count", "lower"),
    ("session.self_ms_per_op", "ms", "lower"),
    ("session.certify_ms_per_op", "ms", "lower"),
    ("workload.fold_ms_per_op", "ms", "lower"),
    ("workload.project_ms_per_op", "ms", "lower"),
    ("workload.events_per_op", "count", "higher"),
    ("geometry.coverage_ms_per_op", "ms", "lower"),
    ("topology.path_cost_calls_per_op", "count", "lower"),
    ("topology.path_cost_ms_per_op", "ms", "lower"),
    ("sinr.engine_builds_per_op", "count", "lower"),
    ("sinr.engine_build_ms_per_op", "ms", "lower"),
    ("sinr.batch_tables_ms_per_op", "ms", "lower"),
    ("sinr.load_profile_ms_per_op", "ms", "lower"),
    ("sinr.br_rows_per_op", "count", "lower"),
    ("sinr.best_responses_self_ms_per_op", "ms", "lower"),
    ("repair.ms_per_op", "ms", "lower"),
    ("repair.detached_per_op", "count", "lower"),
    ("game.run_self_ms_per_op", "ms", "lower"),
    ("game.rounds_per_op", "count", "lower"),
    ("game.moves_per_op", "count", "lower"),
    ("game.move_yield", "ratio", "higher"),
    ("game.is_nash_calls_per_op", "count", "lower"),
    ("game.is_nash_ms_per_op", "ms", "lower"),
    ("delivery.ms_per_op", "ms", "lower"),
    ("delivery.iterations_per_op", "count", "lower"),
    ("objectives.evaluate_ms_per_op", "ms", "lower"),
    ("constraints.check_ms_per_op", "ms", "lower"),
    ("api.execute_self_ms_per_op", "ms", "lower"),
    ("dynamics.self_ms_per_op", "ms", "lower"),
    ("dynamics.migration_ms_per_op", "ms", "lower"),
    ("dark_ms_per_op", "ms", "lower"),
    ("trace.wrapped_calls_per_op", "count", "lower"),
    ("trace.overhead_ms_per_op", "ms", "lower"),
)


def _in_windows(start: float, windows: list[tuple[float, float]]) -> bool:
    """Whether ``start`` lies in one of the sorted, disjoint ``windows``."""
    i = bisect.bisect_right(windows, (start, float("inf"))) - 1
    return i >= 0 and windows[i][0] <= start <= windows[i][1]


def layer_metrics(
    spans: Iterable[Span],
    windows: list[tuple[float, float]],
    *,
    wrapper_s: float,
    extra: dict[str, float] | None = None,
    daemon: bool = False,
) -> dict[str, float]:
    """Fold span records into per-op layer metrics.

    ``windows`` are the ops' ``(start, end)`` intervals on :data:`clock`;
    a span counts toward the ops when it starts inside one.  A span that
    encloses whole ops (``DynamicSimulation.run_events`` spans a replay
    pass) is never inside a window, so that layer's self time is the op
    time its wrapped children do not cover.  For the daemon (``daemon``)
    the windows are the client's request windows, spans recorded on the
    main thread are dropped — the event loop's reads run beside the
    updates, not inside them — and the wire share is the client latency
    the session's ``apply_events`` does not cover.
    """
    windows = sorted(windows)
    n_ops = len(windows)
    wall = sum(end - start for start, end in windows)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    child_of_dynamics = 0.0
    n_spans = 0
    for name, parent, start, dur, own, ctr, main in spans:
        if daemon and main:
            continue
        if not _in_windows(start, windows):
            continue
        n_spans += 1
        calls[name] += 1
        self_s[name] += own
        total[name] += dur
        if parent == "dynamics":
            child_of_dynamics += dur
        if ctr:
            for key, value in ctr.items():
                counts[key] += value
                if key == "sinr.br_rows" and parent == "game.run":
                    counts["sinr.br_rows.game"] += value
    if calls.get("dynamics", 0) == 0 and child_of_dynamics:
        self_s["dynamics"] = max(0.0, wall - child_of_dynamics)
    per = 1.0 / n_ops if n_ops else 0.0
    ms = 1000.0 * per
    out = {
        "serve.wire_ms_per_op": (wall - total["session"]) * ms if daemon else 0.0,
        "serve.solution_doc_ms_per_op": total["serve.solution_doc"] * ms,
        "session.self_ms_per_op": self_s["session"] * ms,
        "session.certify_ms_per_op": total["session.certify"] * ms,
        "workload.fold_ms_per_op": total["workload.fold"] * ms,
        "workload.project_ms_per_op": total["workload.project"] * ms,
        "workload.events_per_op": counts["workload.events"] * per,
        "geometry.coverage_ms_per_op": total["geometry.coverage"] * ms,
        "topology.path_cost_calls_per_op": calls["topology.path_cost"] * per,
        "topology.path_cost_ms_per_op": total["topology.path_cost"] * ms,
        "sinr.engine_builds_per_op": calls["sinr.engine_build"] * per,
        "sinr.engine_build_ms_per_op": total["sinr.engine_build"] * ms,
        "sinr.batch_tables_ms_per_op": total["sinr.batch_tables"] * ms,
        "sinr.load_profile_ms_per_op": total["sinr.load_profile"] * ms,
        "sinr.br_rows_per_op": counts["sinr.br_rows"] * per,
        "sinr.best_responses_self_ms_per_op": self_s["sinr.best_responses"] * ms,
        "repair.ms_per_op": total["repair"] * ms,
        "repair.detached_per_op": counts["repair.detached"] * per,
        "game.run_self_ms_per_op": self_s["game.run"] * ms,
        "game.rounds_per_op": counts["game.rounds"] * per,
        "game.moves_per_op": counts["game.moves"] * per,
        "game.move_yield": (
            counts["game.moves"] / counts["sinr.br_rows.game"]
            if counts["sinr.br_rows.game"]
            else 0.0
        ),
        "game.is_nash_calls_per_op": calls["game.is_nash"] * per,
        "game.is_nash_ms_per_op": total["game.is_nash"] * ms,
        "delivery.ms_per_op": total["delivery"] * ms,
        "delivery.iterations_per_op": counts["delivery.iterations"] * per,
        "objectives.evaluate_ms_per_op": total["objectives.evaluate"] * ms,
        "constraints.check_ms_per_op": total["constraints.check"] * ms,
        "api.execute_self_ms_per_op": self_s["api.execute"] * ms,
        "dynamics.self_ms_per_op": self_s["dynamics"] * ms,
        "dynamics.migration_ms_per_op": total["dynamics.migration"] * ms,
        "dark_ms_per_op": (wall - sum(self_s.values())) * ms,
        "trace.wrapped_calls_per_op": n_spans * per,
        "trace.overhead_ms_per_op": n_spans * wrapper_s * ms,
    }
    out.update(extra or {})
    return {name: float(out.get(name, 0.0)) for name, _, _ in PER_LAYER}
