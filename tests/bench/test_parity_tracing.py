"""Kernel-pair parity must hold with a live recording tracer attached.

The tracer never consumes RNG and never feeds back into move selection,
so attaching it to both replays must leave every move log, profile and
certificate bit-identical — the acceptance gate for the instrumentation.
"""

from __future__ import annotations

from repro.bench.parity import verify_parity
from repro.obs import RecordingTracer


def test_parity_holds_with_tracing_enabled():
    tracer = RecordingTracer()
    report = verify_parity(scale="S", seeds=(0,), tracer=tracer)
    assert report.ok, [case.describe() for case in report.failures]
    # Both kernels of every (seed, schedule) case were actually observed.
    assert len([s for s in tracer.spans if s.name == "game.run"]) == 6
    assert tracer.counters["game.moves"] > 0
