import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbnrg.criticality import (
    CrossoverPoint,
    NoCrossingError,
    classify_phase,
    extract_nstar,
    fit_alpha_c,
)
from sbnrg.nrg import FlowRecord, NrgFlow
from sbnrg.numerics import DivergenceFit, FitError


def flow_from_level1(values, alpha=0.5, start=0, step=1):
    records = tuple(
        FlowRecord(iteration=start + i * step, kept_count=10,
                   energies=(0.0, float(v), float(v) + 1.0))
        for i, v in enumerate(values)
    )
    return NrgFlow(records=records, alpha=alpha)


class TestExtractNstar:
    def test_linear_interpolation(self):
        flow = flow_from_level1([0.1, 0.2, 0.25, 0.35, 0.5])
        pt = extract_nstar(flow)
        assert pt.n_star == pytest.approx(2.5, abs=1e-14)
        assert pt.alpha == 0.5

    def test_exact_hit_counts_as_crossing(self):
        flow = flow_from_level1([0.1, 0.3, 0.6])
        assert extract_nstar(flow).n_star == pytest.approx(1.0, abs=1e-14)

    def test_starts_above_threshold(self):
        flow = flow_from_level1([0.4, 0.5, 0.6])
        assert extract_nstar(flow).n_star == 0.0

    def test_no_crossing(self):
        flow = flow_from_level1([0.01, 0.02, 0.03])
        with pytest.raises(NoCrossingError):
            extract_nstar(flow)

    def test_custom_threshold(self):
        flow = flow_from_level1([0.1, 0.2, 0.25, 0.35, 0.5])
        pt = extract_nstar(flow, threshold=0.45)
        assert pt.n_star == pytest.approx(3.0 + 0.1 / 0.15, abs=1e-12)

    def test_skips_records_missing_the_level(self):
        # a record holding only the ground level does not feed the series,
        # so the interpolation spans the surviving iteration gap
        records = (
            FlowRecord(iteration=0, kept_count=4, energies=(0.0, 0.1)),
            FlowRecord(iteration=1, kept_count=1, energies=(0.0,)),
            FlowRecord(iteration=2, kept_count=4, energies=(0.0, 0.5)),
        )
        pt = extract_nstar(NrgFlow(records=records, alpha=0.2))
        assert pt.n_star == pytest.approx(1.0, abs=1e-14)

    def test_validation(self):
        flow = flow_from_level1([0.1, 0.2, 0.4])
        with pytest.raises(ValueError):
            extract_nstar(flow, threshold=0.0)
        with pytest.raises(ValueError):
            extract_nstar(flow_from_level1([0.1]))
        bare = NrgFlow(records=(
            FlowRecord(iteration=0, kept_count=1, energies=(0.0,)),
            FlowRecord(iteration=1, kept_count=1, energies=(0.0,)),
        ), alpha=0.1)
        with pytest.raises(ValueError):
            extract_nstar(bare)

    @given(st.floats(0.05, 0.45))
    def test_monotone_in_threshold(self, threshold):
        flow = flow_from_level1([0.01, 0.1, 0.22, 0.34, 0.46, 0.58])
        pt = extract_nstar(flow, threshold=threshold)
        later = extract_nstar(flow, threshold=min(threshold + 0.03, 0.49))
        assert later.n_star >= pt.n_star


class TestFitAlphaC:
    def points(self, alpha_c=1.0, a=3.0, b=2.0, alphas=(0.5, 0.6, 0.7, 0.8)):
        return [
            CrossoverPoint(alpha=x, n_star=a + b / (alpha_c - x))
            for x in alphas
        ]

    def test_recovers_pole(self):
        fit = fit_alpha_c(self.points())
        assert isinstance(fit, DivergenceFit)
        assert fit.alpha_c == pytest.approx(1.0, abs=1e-6)
        assert fit.rss < 1e-10

    def test_needs_four_points(self):
        with pytest.raises(FitError):
            fit_alpha_c(self.points()[:3])

    def test_leave_one_out_stability(self):
        # fixed-seed noisy points; values locked after first run
        rng = np.random.default_rng(7)
        alphas = (0.5, 0.6, 0.65, 0.7, 0.75, 0.8)
        pts = [
            CrossoverPoint(
                alpha=x,
                n_star=3.0 + 2.0 / (1.0 - x) + rng.uniform(-0.05, 0.05),
            )
            for x in alphas
        ]
        full = fit_alpha_c(pts)
        drop = fit_alpha_c(pts[:-1])
        assert abs(full.alpha_c - drop.alpha_c) < 0.05
        assert full.alpha_c == pytest.approx(0.991459182753052, abs=1e-10)
        assert drop.alpha_c == pytest.approx(1.0078238693402637, abs=1e-10)

    def test_window_forwarded(self):
        # a pole beyond the default search window needs the wider one
        far = self.points(alpha_c=3.2)
        with pytest.raises(FitError):
            fit_alpha_c(far)
        wide = fit_alpha_c(far, window=5.0)
        assert wide.alpha_c == pytest.approx(3.2, abs=1e-5)


class TestClassifyPhase:
    def test_labels(self):
        assert classify_phase(0.01).label == "delocalized"
        assert classify_phase(0.49).label == "localized"
        assert classify_phase(0.2).label == "undetermined"

    def test_boundaries_are_inclusive_middle(self):
        assert classify_phase(0.05).label == "undetermined"
        assert classify_phase(0.45).label == "undetermined"

    def test_value_carried(self):
        assert classify_phase(0.12).delta_p == 0.12

    def test_roundoff_above_half_tolerated(self):
        assert classify_phase(0.5 + 5e-10).label == "localized"

    def test_custom_thresholds(self):
        assert classify_phase(0.1, lo=0.2, hi=0.4).label == "delocalized"
        assert classify_phase(0.1, lo=0.02, hi=0.08).label == "localized"

    @pytest.mark.parametrize("dp", [-0.01, 0.51])
    def test_range_validation(self, dp):
        with pytest.raises(ValueError):
            classify_phase(dp)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.45), (0.05, 0.5), (0.3, 0.1)])
    def test_threshold_validation(self, lo, hi):
        with pytest.raises(ValueError):
            classify_phase(0.2, lo=lo, hi=hi)

