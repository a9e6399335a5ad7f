"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q -s

The first tests check the layer shim's self-time bookkeeping on a toy call
tree and the host-speed scaling on hand-made slices.  The others run every workload twice — untraced and traced — and
require identical quality figures (``r_avg_mbps``, ``l_avg_ms`` and the
per-op move count, printed on the ``quality:`` line) and a passing
correctness verdict in both; each prints the tracing overhead, traced
minus untraced mean op wall time.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def test_self_time_excludes_wrapped_children() -> None:
    module = types.ModuleType("toy")

    def leaf() -> int:
        time.sleep(0.02)
        return 1

    def outer() -> int:
        time.sleep(0.01)
        return module.leaf() + module.leaf()

    module.leaf, module.outer = leaf, outer
    sys.modules["toy"] = module
    try:
        recorder = layers.Recorder()
        recorder.install([("toy", "leaf", "leaf", None), ("toy", "outer", "outer", None)])
        assert module.outer() == 2
        recorder.uninstall()
    finally:
        del sys.modules["toy"]
    assert module.leaf is leaf and module.outer is outer
    spans = recorder.spans()
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    assert [s[1] for s in by_name["leaf"]] == ["outer", "outer"]
    (outer_span,) = by_name["outer"]
    assert outer_span[1] is None
    leaf_total = sum(s[3] for s in by_name["leaf"])
    assert outer_span[4] == pytest.approx(outer_span[3] - leaf_total, abs=1e-9)
    assert outer_span[4] >= 0.009
    window = (outer_span[2], outer_span[2] + outer_span[3])
    metrics = layers.layer_metrics(spans, [window], wrapper_s=0.0)
    assert metrics["dark_ms_per_op"] == pytest.approx(0.0, abs=1e-6)
    assert metrics["trace.wrapped_calls_per_op"] == 3


def test_host_speed_scales_each_group_by_its_own_slices() -> None:
    import workloads

    ref_s = workloads.MANIFEST["calibration"]["reference_ms"] / 1000
    speed = workloads.HostSpeed()
    # Two groups of two ops (the fifth joins the second); the host ran at
    # the reference speed during the first group and half of it after.
    speed.slices = [(0.5, ref_s), (2.5, 2 * ref_s), (3.5, 2 * ref_s)]
    windows = [(1.0, 2.0), (2.0, 2.4), (3.0, 3.2), (4.0, 5.0), (6.0, 7.0)]
    scales = speed.scales(windows, 2)
    assert scales == [1.0, 1.0, 0.5, 0.5, 0.5]
    assert workloads.grouped_rate([1.0, 1.0, 2.0, 2.0, 9.0], 2, scales) == (1.0, 2)


def _run(workload: str, trace: int) -> tuple[str, dict, float]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    quality = next(line for line in lines if line.startswith("quality:"))
    wall = next(line for line in lines if line.startswith("op wall:"))
    mean_ms = float(re.search(r"mean ([0-9.]+) ms", wall).group(1))
    return quality, json.loads(lines[-1]), mean_ms


@pytest.mark.parametrize("workload", ["serve-deltas-M", "metro-cold-XL", "replay-churn-L"])
def test_traced_run_matches_untraced(workload: str) -> None:
    quality, plain, plain_ms = _run(workload, 0)
    traced_quality, traced, traced_ms = _run(workload, 1)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert traced_quality == quality
    assert set(traced["metrics"]) == {name for name, _, _ in layers.PER_LAYER}
    print(
        f"\n{workload}: tracing overhead {traced_ms - plain_ms:+.4f} ms per op "
        f"({plain_ms:.4f} -> {traced_ms:.4f} ms)"
    )
