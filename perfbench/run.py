"""IDDE end-to-end benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (parameters in ``perfbench/manifest.json``, reasons in
``BENCHMARK.json``):

``serve-deltas-M``
    A live ``idde serve`` daemon on the M fixture, driven over loopback
    HTTP by one closed-loop writer of 25-event delta batches and one
    open-loop reader (20 reads/s); see :mod:`loadgen`.
``metro-cold-XL``
    Repeated cold ``repro.api.execute`` solves of an XL metro snapshot.
``replay-churn-L``
    ``DynamicSimulation.run_events`` (``idde replay``, warm policy) over a
    churn-heavy 10k-event stream on the L fixture, 50 events per epoch.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped.  With ``--trace 1`` the layer shim (:mod:`layers`) wraps the
program's layers and the run reports the per-layer metrics instead; the
quality figures of both modes are identical (``test_perfbench.py``).
Every run checks its outputs — certificates, determinism, status codes —
and exits 1 when a check fails.  It exits 2 without a result when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where a run leaves its span logs and daemon dumps (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics in ``BENCHMARK.json`` order: (name, unit).  The
#: gated op times are medians over the run, since bursts of contention on a
#: shared host move a run's mean and tails far more than its median (over
#: nine serve runs the p90 spread by 23% and the median by 12%, IQR over
#: median); the tails are printed beside them.  All three times are scaled
#: to the reference host speed (``workloads.HostSpeed``).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("r_avg_mbps", "MB/s"),
    ("l_avg_ms", "ms"),
    ("ok_frac", "ratio"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the workload's inputs and exit (the timed set-up probe)",
    )
    return parser.parse_args(argv)


def setup_probes(workload: str, seed: int, repeats: int) -> list[float]:
    """Time a fresh process from spawn until its inputs are built."""
    from layers import clock

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--setup-only",
    ]
    samples = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120)
        samples.append(clock() - t0)
    return samples


def end_to_end(out, p: dict) -> dict[str, float]:
    """The end-to-end metrics; prints each under the workload's own name."""
    from workloads import MANIFEST, grouped_rate, tail

    lat = out.latencies_s
    group = p["rate_group"]
    ok = (out.attempted - len(out.failures)) / out.attempted
    raw = {
        "setup_s": statistics.median(out.setup_s),
        "op_p50_ms": 1000 * statistics.median(lat),
        "ops_per_s": grouped_rate(lat, group, [1.0] * len(lat))[0],
    }
    # The gated times read at the reference host speed (workloads.HostSpeed).
    scales = out.speed.scales(out.windows, group)
    rate, groups = grouped_rate(lat, group, scales)
    values = {
        # A cold start follows no slice of its own closely (slices timed
        # between set-ups spread wider than the set-ups), so set-up takes
        # the factor of the run that follows it.
        "setup_s": raw["setup_s"] * out.speed.scale(),
        "op_p50_ms": 1000 * statistics.median(t * k for t, k in zip(lat, scales)),
        "ops_per_s": rate,
        "peak_rss_mb": out.peak_rss_mb,
        "r_avg_mbps": statistics.fmean(out.r_avg),
        "l_avg_ms": statistics.fmean(out.l_avg),
        "ok_frac": ok,
    }
    op = p["op_alias"]
    notes = {
        "setup_s": f"median of {len(out.setup_s)}",
        "op_p50_ms": f"n={len(lat)}",
        "ops_per_s": f"median over {groups} groups of {min(group, len(lat))} {op}s",
        "peak_rss_mb": "solving process",
        "r_avg_mbps": out.quality_note,
        "l_avg_ms": out.quality_note,
        "ok_frac": f"failed_frac={1 - ok:.6g}, {len(out.failures)} of {out.attempted} failed",
    }
    names = {"op_p50_ms": f"{op}_p50_ms", "ops_per_s": p["rate_alias"]}
    ref = MANIFEST["calibration"]["reference_ms"]
    print(f"host speed: calibration slice {out.speed.median_ms():.4g} ms over the run "
          f"(n={len(out.speed.slices)}); times below read at the reference {ref:g} ms")
    for name, unit in END_TO_END:
        measured = f", measured {raw[name]:.6g}" if name in raw else ""
        print(f"{names.get(name, name)} [{name}] = {values[name]:.6g} {unit} "
              f"({notes[name]}{measured})")
    # Not gated: the tails and the mean move with every burst on the host.
    tails = dict(tail(lat, percentiles) for percentiles in ((90,), (99, 95, 90)))
    for tail_name, tail_s in tails.items():
        print(f"{op}_{tail_name}_ms = {1000 * tail_s:.6g} ms (n={len(lat)})")
    print(f"{op}_mean_ms = {1000 * statistics.fmean(lat):.6g} ms (n={len(lat)})")
    return values


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {list(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        workloads.INPUTS[args.workload](args.seed)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} machine={platform.machine()}")
    recorder = layers.Recorder() if trace else None
    try:
        if args.workload == "serve-deltas-M":
            import loadgen

            out = asyncio.run(
                loadgen.run_serve(args.seed, args.seconds, trace, ROOT, OUT_DIR)
            )
        else:
            if not trace:
                repeats = workloads.MANIFEST["setup_repeats"]
                setup = setup_probes(args.workload, args.seed, repeats)
            if recorder is not None:
                recorder.install()
            try:
                out = workloads.IN_PROCESS[args.workload](args.seed, args.seconds, recorder)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            if not trace:
                out.setup_s = setup
            else:
                out.spans = recorder.spans()
                out.wrapper_s = layers.wrapper_cost_s()
    except Exception:
        traceback.print_exc()
        print("perfbench: the run failed before it finished", file=sys.stderr)
        return 1

    for message in out.failures:
        print(f"CHECK FAILED: {message}")
    correct = not out.failures and out.attempted > 0 and bool(out.latencies_s)
    if not out.latencies_s:
        print(json.dumps({"correct": False, "attempted": max(out.attempted, 1),
                          "failed": max(len(out.failures), 1), "metrics": {}}))
        return 1
    print(f"quality: r_avg_mbps={statistics.fmean(out.r_avg)!r} "
          f"l_avg_ms={statistics.fmean(out.l_avg)!r} "
          f"moves_per_op={statistics.fmean(out.moves)!r}")
    print(f"op wall: mean {1000 * statistics.fmean(out.latencies_s):.4f} ms "
          f"(n={len(out.latencies_s)})")
    if trace:
        metrics = layers.layer_metrics(
            out.spans, out.windows, wrapper_s=out.wrapper_s,
            extra=out.layer_extra, daemon=out.daemon,
        )
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(out.spans), encoding="utf-8")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        values = end_to_end(out, workloads.params(args.workload))
        for name, (value, unit, note) in out.report.items():
            print(f"{name} = {value:.6g} {unit} ({note})")
        result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
