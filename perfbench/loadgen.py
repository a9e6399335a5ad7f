"""Single-process asyncio load generator for the ``serve-deltas-M`` workload.

It boots ``idde serve`` as a subprocess through :mod:`serve_launcher`,
parses the listen banner, pins the daemon and itself to one CPU, and
drives the daemon over loopback HTTP with two clients, so at most two
connections are ever in flight (the daemon closes every connection after
one response, so each request opens one):

* a **closed-loop writer** — ``POST /v1/events`` with the next 25-event
  ``idde-events/1`` batch as soon as the previous update answers; each
  update is timed from send to the end of the response;
* an **open-loop reader** — 20 reads per second on a fixed schedule,
  rotating over ``/v1/health``, ``/v1/solution`` and ``/v1/metrics``;
  each read is timed from the moment it was due, so a stalled event loop
  also charges the reads queued behind it, and how late the reader sent
  each read is reported.

The daemon is stopped with SIGTERM; a non-zero exit is a failure.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import sys
from pathlib import Path
from typing import Any

from layers import clock
from workloads import (
    MANIFEST,
    Outcome,
    certify,
    delivery_config,
    fixture,
    game_config,
    params,
    stream,
    tail,
)

from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile
from repro.request import SolveRequest
from repro.workload import WorkloadState, batch_by_count

NAME = "serve-deltas-M"
HERE = Path(__file__).resolve().parent
BOOT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0


async def http(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    """One request on its own connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    header, _, payload = data.partition(b"\r\n\r\n")
    parts = header.split(b" ", 2)
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, payload


class Daemon:
    """One ``idde serve`` process started through the launcher."""

    def __init__(self, root: Path, out_dir: Path, tag: str, trace: bool) -> None:
        self.root = root
        self.dump = out_dir / f"daemon-{tag}.json"
        self.trace = trace
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0
        self.stderr_tail: list[str] = []
        self._drain: asyncio.Task | None = None

    async def start(self) -> None:
        if self.dump.exists():
            self.dump.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        fx = params(NAME)["fixture"]
        argv = [
            sys.executable, str(HERE / "serve_launcher.py"), "--out", str(self.dump),
            *(["--trace"] if self.trace else []),
            "--", "serve", "--port", "0",
            "--seed", str(MANIFEST["fixture_seed"]),
            "--n", str(fx["n"]), "--m", str(fx["m"]), "--k", str(fx["k"]),
            "--density", str(fx["density"]),
            "--kernel", "batched", "--delivery-kernel", "batched",
        ]
        self.proc = await asyncio.create_subprocess_exec(
            *argv, cwd=str(self.root), env=env,
            stdout=asyncio.subprocess.DEVNULL, stderr=asyncio.subprocess.PIPE,
        )
        assert self.proc.stderr is not None
        while True:
            line = (await asyncio.wait_for(self.proc.stderr.readline(), BOOT_TIMEOUT_S)).decode()
            if not line:
                raise RuntimeError(f"daemon exited before listening: {self.stderr_tail}")
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
            self.stderr_tail.append(line.rstrip())
        self._drain = asyncio.ensure_future(self._drain_stderr())

    async def _drain_stderr(self) -> None:
        # Keep reading so a chatty daemon never blocks on a full pipe.
        assert self.proc is not None and self.proc.stderr is not None
        async for line in self.proc.stderr:
            self.stderr_tail = (self.stderr_tail + [line.decode().rstrip()])[-20:]

    async def stop(self) -> tuple[int | None, dict[str, Any] | None]:
        """SIGTERM, wait for the drain; returns (exit code, launcher dump)."""
        proc = self.proc
        if proc is None:
            return None, None
        try:
            if proc.returncode is None:
                proc.send_signal(signal.SIGTERM)
            code = await asyncio.wait_for(proc.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
            code = None
        finally:
            if self._drain is not None:
                await self._drain
        if code == 0 and self.dump.exists():
            return code, json.loads(self.dump.read_text(encoding="utf-8"))
        return code, None


def solve_body(seed: int) -> bytes:
    """The ``serve.request.warm`` configuration as an ``idde-request/1`` body."""
    request = SolveRequest(
        solver="idde-g",
        game_config=game_config(),
        delivery_config=delivery_config(),
        warm_start=True,
        rng=seed,
        validate=False,
    )
    return json.dumps(request.to_dict()).encode("utf-8")


async def boot(daemon: Daemon, body: bytes, out: Outcome) -> dict[str, Any] | None:
    """Start the daemon and run the first solve; the set-up of a serve run."""
    t0 = clock()
    await daemon.start()
    status, payload = await asyncio.wait_for(
        http(daemon.port, "POST", "/v1/solve", body), REQUEST_TIMEOUT_S
    )
    out.setup_s.append(clock() - t0)
    doc = json.loads(payload) if status == 200 else None
    out.attempted += 1
    ok = out.check(
        doc is not None and doc["session"]["certified"] is True,
        f"POST /v1/solve answered {status} without a certificate",
    )
    return doc if ok else None


async def run_serve(
    seed: int, seconds: float, trace: bool, root: Path, out_dir: Path
) -> Outcome:
    out = Outcome()
    out.daemon = True
    p = params(NAME)
    base = fixture(NAME)
    events = stream(NAME, seed, base, p["pool_events"])
    batches = [tuple(b) for b in batch_by_count(events, p["events_per_update"])]
    bodies = [
        json.dumps({"events": [ev.to_dict() for ev in b]}).encode("utf-8") for b in batches
    ]
    solve = solve_body(seed)

    # Set-up is timed several times: throwaway boots first, then the one
    # measured.  A traced run reports no set-up time and boots once.
    repeats = 1 if trace else MANIFEST["setup_repeats"]
    for i in range(repeats - 1):
        spare = Daemon(root, out_dir, f"setup{i}", trace=False)
        try:
            await boot(spare, solve, out)
        finally:
            code, _ = await spare.stop()
        out.attempted += 1
        out.check(code == 0, f"set-up daemon exited with {code}")

    daemon = Daemon(root, out_dir, "run", trace)
    try:
        doc = await boot(daemon, solve, out)
        if doc is None:
            return out
        # The measured daemon and this loop share one CPU from here on: the
        # writer waits while an update is solved, so the calibration slices
        # it times between updates run at the speed the daemon gets.
        # Unpinned, a slowdown of the daemon's CPU alone went unseen by the
        # slices.  The boots stay unpinned, as set-up was measured.
        cpu = min(os.sched_getaffinity(0))
        for tid in os.listdir(f"/proc/{daemon.proc.pid}/task"):
            os.sched_setaffinity(int(tid), {cpu})
        os.sched_setaffinity(0, {cpu})
        last_epoch = await drive(daemon.port, seconds, doc["session"]["epoch"], bodies, out)
        await final_reads(daemon.port, trace, out)
    finally:
        code, dump = await daemon.stop()
    out.attempted += 1
    if not out.check(code == 0 and dump is not None, f"daemon exited with {code}"):
        return out
    out.peak_rss_mb = dump["peak_rss_mb"]
    out.spans = dump.get("spans", [])
    out.wrapper_s = dump.get("wrapper_s", 0.0)

    # Independent certificate: fold the acknowledged batches into a state
    # of our own and re-check the daemon's resident allocation on it.
    state = WorkloadState.from_scenario(base.scenario)
    for i in range(len(out.latencies_s)):
        state.apply(batches[i % len(batches)])
    served = IDDEInstance(state.scenario(base.scenario), base.topology, base.radio)
    alloc = AllocationProfile(dump["server"], dump["channel"])
    out.attempted += 1
    out.check(
        dump["epoch"] == last_epoch
        and dump["n_active"] == state.n_active
        and certify(served, alloc, dump["effective_epsilon"], state.active),
        "independent ε-Nash re-check of the served allocation failed",
    )
    return out


async def drive(
    port: int, seconds: float, epoch: int, bodies: list[bytes], out: Outcome
) -> int:
    """Run the writer and the reader side by side for ``seconds``.

    Returns the session epoch of the last certified update.
    """
    p = params(NAME)
    quality_updates = p["quality_updates"]
    every = MANIFEST["calibration"]["every_ops"]
    rate = float(p["reads_per_s"])
    paths = p["read_paths"]
    stop = asyncio.Event()
    reads: list[float] = []
    late: list[float] = []
    start = clock()
    deadline = start + seconds

    async def writer() -> None:
        nonlocal epoch
        sent = 0
        # The run lasts ``seconds`` but never ends before the updates the
        # quality figures are averaged over, so they are the same inputs
        # on every run of a seed, traced or not.
        while clock() < deadline or sent < quality_updates:
            body = bodies[sent % len(bodies)]
            if sent % every == 0:
                # Between updates, so the slices delay reads, not updates.
                out.speed.tick()
            sent += 1
            out.attempted += 1
            t0 = clock()
            status, payload = await asyncio.wait_for(
                http(port, "POST", "/v1/events", body), REQUEST_TIMEOUT_S
            )
            t1 = clock()
            doc = json.loads(payload) if status == 200 else None
            ok = out.check(
                doc is not None
                and doc["session"]["certified"] is True
                and doc["session"]["epoch"] == epoch + 1,
                f"update {sent} answered {status} uncertified or out of order",
            )
            if not ok:
                break
            epoch += 1
            out.latencies_s.append(t1 - t0)
            out.windows.append((t0, t1))
            if sent <= quality_updates:
                out.r_avg.append(doc["r_avg"])
                out.l_avg.append(doc["l_avg_ms"])
                out.moves.append(doc["game"]["moves"])
        out.quality_note = f"mean over the first {quality_updates} updates"

    async def reader() -> None:
        k = 0
        while not stop.is_set():
            due = start + k / rate
            wait = due - clock()
            if wait > 0:
                try:
                    await asyncio.wait_for(stop.wait(), wait)
                    break
                except asyncio.TimeoutError:
                    pass
            late.append(clock() - due)
            out.attempted += 1
            status, _ = await asyncio.wait_for(
                http(port, "GET", paths[k % len(paths)]), REQUEST_TIMEOUT_S
            )
            reads.append(clock() - due)
            out.check(status == 200, f"read of {paths[k % len(paths)]} answered {status}")
            k += 1

    read_task = asyncio.ensure_future(reader())
    try:
        await writer()
    finally:
        stop.set()
        await read_task
    if reads:
        name, value = tail(reads)
        out.report["read_p50_ms"] = (1000 * statistics.median(reads), "ms", f"n={len(reads)}")
        out.report[f"read_{name}_ms"] = (1000 * value, "ms", f"n={len(reads)}")
        out.report["reader_late_p50_ms"] = (1000 * statistics.median(late), "ms", f"n={len(late)}")
        out.report["reader_late_max_ms"] = (1000 * max(late), "ms", f"n={len(late)}")
        out.layer_extra["serve.read_p50_ms"] = 1000 * statistics.median(reads)
        out.layer_extra["serve.read_tail_ms"] = 1000 * value
        out.layer_extra["serve.reader_late_ms"] = 1000 * statistics.median(late)
    return epoch


async def final_reads(port: int, trace: bool, out: Outcome) -> None:
    """Daemon counters after the run, and the trace size when traced."""
    status, payload = await http(port, "GET", "/v1/metrics")
    out.attempted += 1
    if not out.check(status == 200, f"GET /v1/metrics answered {status}"):
        return
    counters = json.loads(payload)["counters"]
    for name in ("serve.shed", "serve.timeouts", "serve.errors"):
        out.layer_extra[name] = float(counters.get(name, 0))
        out.check(counters.get(name, 0) == 0, f"daemon counted {name}={counters.get(name)}")
    if trace:
        status, payload = await http(port, "GET", "/v1/trace")
        out.attempted += 1
        out.check(status == 200, f"GET /v1/trace answered {status}")
        out.layer_extra["obs.trace_records"] = float(
            sum(1 for line in payload.splitlines() if line.strip())
        )
