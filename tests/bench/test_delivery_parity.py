"""The delivery family of the kernel-pair parity harness (repro.bench.parity).

Exhaustive parity coverage lives in ``tests/core/test_delivery_kernels.py``;
these tests pin the harness itself — grid shape, verdict plumbing, and
the rendered report the CI gate prints.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

from repro.bench import (
    DELIVERY_PARITY_CONFIGS,
    PairCase,
    ParityReport,
    render_parity_text,
    verify_parity,
)


@cache
def _one_seed_report() -> ParityReport:
    # One shared-fixture seed keeps this cheap: the S instance and its
    # equilibrium are memoised across the whole test process.
    report = verify_parity(scale="S", seeds=(0,))
    return ParityReport(
        cases=tuple(case for case in report.cases if case.family == "delivery")
    )


class TestVerifyDeliveryPair:
    def test_grid_shape_and_verdict(self):
        report = _one_seed_report()
        # one seed x four configs x {plain, traced}
        assert len(report.cases) == len(DELIVERY_PARITY_CONFIGS) * 2
        assert report.ok
        assert report.failures == ()

    def test_both_rules_and_thresholds_covered(self):
        labels = [case.label for case in _one_seed_report().cases]
        assert any(" ratio " in label for label in labels)
        assert any(" abs " in label for label in labels)
        assert any("thresh=0 " in label for label in labels)
        assert any("thresh=0 " not in label for label in labels)
        assert any(label.endswith("traced") for label in labels)
        assert any(label.endswith("plain") for label in labels)

    def test_some_case_actually_places(self):
        """A grid where nothing is placed would verify vacuously."""
        report = _one_seed_report()
        assert any(case.size > 0 for case in report.cases)

    def test_render_reports_parity_ok(self):
        report = _one_seed_report()
        text = render_parity_text(report)
        assert "PARITY OK" in text
        assert f"{len(report.cases)} cases" in text

    def test_render_flags_failures(self):
        report = _one_seed_report()
        broken = replace(report.cases[0], broken=("gains",))
        assert not broken.ok
        assert "gains" in broken.describe()
        bad_report = ParityReport(cases=(broken,) + report.cases[1:])
        assert not bad_report.ok
        assert bad_report.failures == (broken,)
        assert "PARITY BROKEN" in render_parity_text(bad_report)

    def test_case_describe_mentions_rule(self):
        case: PairCase = _one_seed_report().cases[0]
        assert ("ratio" in case.describe()) or ("abs" in case.describe())
        assert "placements=" in case.describe()
