import math

import numpy as np
import pytest

from sbnrg.bath import longest_chain
from sbnrg.criticality import (
    THRESHOLD,
    CrossoverPoint,
    NoCrossingError,
    classify_phase,
    crossed,
    delocalized_plateau,
    extract_nstar,
    fit_alpha_c,
    nstar_threshold,
)
from sbnrg.nrg import FlowRecord, NrgFlow
from sbnrg.numerics import DivergenceFit, FitError


def flow_from_level1(values, alpha=0.5, start=0, step=1, **kwargs):
    records = tuple(
        FlowRecord(iteration=start + i * step, kept_count=10,
                   energies=(0.0, float(v), float(v) + 1.0))
        for i, v in enumerate(values)
    )
    return NrgFlow(records=records, alpha=alpha, **kwargs)


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

    def test_threshold_follows_the_flow_lambda(self):
        # a hand-built flow is at Lambda = 2, NrgConfig's default
        values = [0.1, 0.2, 0.25]
        with pytest.raises(NoCrossingError, match=r"alpha = 0.5 .* below 0.3,"):
            extract_nstar(flow_from_level1(values))
        pt = extract_nstar(flow_from_level1(values, Lambda=1.5))
        assert pt.n_star == pytest.approx(
            (nstar_threshold(1.5) - 0.1) / 0.1, abs=1e-14)

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
        with pytest.raises(ValueError):
            extract_nstar(flow_from_level1([0.1]))
        bare = NrgFlow(records=(
            FlowRecord(iteration=0, kept_count=1, energies=(0.0,)),
            FlowRecord(iteration=1, kept_count=1, energies=(0.0,)),
        ), alpha=0.1)
        with pytest.raises(ValueError):
            extract_nstar(bare)


class TestCrossed:
    def test_first_record_it_passes_fixes_nstar(self):
        # the flow cut at the first record crossed passes gives the full flow's N*
        for values in ([0.1, 0.2, 0.25, 0.35, 0.5], [0.1, 0.3, 0.6],
                       [0.4, 0.2, 0.35, 0.6], [0.4, 0.5, 0.6]):
            full = flow_from_level1(values)
            done = crossed(full.Lambda)
            k = next(i for i, r in enumerate(full.records) if done(r))
            cut = NrgFlow(records=full.records[:k + 1], alpha=full.alpha)
            assert extract_nstar(cut) == extract_nstar(full)

    def test_at_the_threshold_from_iteration_1(self):
        # the comparison extract_nstar makes, and never at record 0: N* needs two
        done = crossed(2.0)
        assert [done(r) for r in flow_from_level1([0.3, 0.3, 0.2999]).records] == [
            False, True, False]
        assert not done(FlowRecord(iteration=1, kept_count=1, energies=(0.0,)))

    def test_threshold_follows_lambda(self):
        record = flow_from_level1([0.0, 0.2]).records[1]
        assert crossed(1.5)(record) and not crossed(2.0)(record)


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
        assert classify_phase(0.01) == "delocalized"
        assert classify_phase(0.49) == "localized"
        assert classify_phase(0.2) == "undetermined"

    def test_boundaries_are_inclusive_middle(self):
        assert classify_phase(0.05) == "undetermined"
        assert classify_phase(0.45) == "undetermined"

    def test_roundoff_above_half_tolerated(self):
        assert classify_phase(0.5 + 5e-10) == "localized"

    @pytest.mark.parametrize("dp", [-0.01, 0.51])
    def test_range_validation(self, dp):
        with pytest.raises(ValueError):
            classify_phase(dp)


class TestZeroBiasPhase:
    # a zero-bias run's delta_p is its polarized doublet member's, 0.5
    # before its crossover; the direction of level 1 decides instead

    @pytest.mark.parametrize("values, phase", [
        ([1e-4, 1.06e-4], "delocalized"),  # grew by more than 5%
        ([1e-4, 0.94e-4], "localized"),  # shrank by more than 5%
        ([1e-4, 1.04e-4], "undetermined"),
        ([1e-4, 0.96e-4], "undetermined"),
        ([0.1, 0.35, 0.4745, 0.4745], "delocalized"),  # crossed, then flat
        ([0.4, 0.45, 0.46], "delocalized"),  # above THRESHOLD from the start
    ])
    def test_direction_of_level_1(self, values, phase):
        flow = flow_from_level1(values)
        assert classify_phase(0.5, flow) == phase
        assert classify_phase(0.0, flow) == phase

    def test_threshold_follows_the_flow_lambda(self):
        # level 1 reached Lambda = 1.5's threshold, 0.1737, not Lambda = 2's
        values = [0.1, 0.2, 0.2]
        assert classify_phase(0.5, flow_from_level1(values)) == "undetermined"
        assert classify_phase(
            0.5, flow_from_level1(values, Lambda=1.5)) == "delocalized"

    def test_degenerate_doublet_reads_delta_p(self):
        # a level 1 within DEGENERACY_TOL of 0 changes by roundoff alone
        flow = flow_from_level1([1e-16, 3e-16])
        assert classify_phase(0.5, flow) == "localized"
        assert classify_phase(0.0, flow) == "delocalized"

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="two"):
            classify_phase(0.5, flow_from_level1([0.1]))

    def test_delta_p_range_checked_with_a_flow(self):
        with pytest.raises(ValueError):
            classify_phase(0.51, flow_from_level1([0.1, 0.2]))


class TestDelocalizedPlateau:
    @pytest.mark.parametrize("Lambda, level", [
        (1.5, 0.2748), (2.0, 0.4746), (3.0, 0.6087)])
    def test_fixed_point_level(self, Lambda, level):
        # the level 1 that delocalized (60, 6) flows level off at
        assert delocalized_plateau(Lambda) == pytest.approx(level, abs=1e-4)

    def test_reads_the_limit_from_above(self):
        # a shorter chain reads a level nearer the start of the flow
        assert delocalized_plateau(1.5, sites=40) > delocalized_plateau(1.5)
        assert delocalized_plateau(1.5, sites=80) == pytest.approx(
            delocalized_plateau(1.5), abs=2e-6)

    def test_threshold_lies_below_the_plateau(self):
        # so a delocalized flow reaches its threshold, and critical's stop ends it
        for Lambda in (1.5, 1.55, 2.0, 3.0):
            assert nstar_threshold(Lambda) < delocalized_plateau(Lambda), Lambda


class TestNstarThreshold:
    def test_exactly_threshold_at_lambda_2(self):
        # the plateau's ratio to itself is exactly 1, so no Lambda = 2 N* moves
        assert nstar_threshold(2.0) == THRESHOLD == 0.3

    @pytest.mark.parametrize("Lambda, value", [(1.5, 0.1737), (3.0, 0.3848)])
    def test_same_fraction_of_the_plateau(self, Lambda, value):
        assert nstar_threshold(Lambda) == pytest.approx(value, abs=1e-4)
        assert nstar_threshold(Lambda) / delocalized_plateau(Lambda) == (
            pytest.approx(THRESHOLD / delocalized_plateau(2.0), rel=1e-12))

    def test_finite_at_large_lambda(self):
        # 60 sites at Lambda = 1000 take the chain map's weight products below
        # the float64 range; the plateau reads the 26 sites NrgConfig allows
        assert longest_chain(1000.0) == 26
        assert math.isfinite(nstar_threshold(1000.0))
