import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbnrg.circuit import (
    DELTA_CONVENTIONS,
    E_CHARGE,
    FLUX_QUANTUM,
    H_BAR,
    CircuitParams,
    SpinBosonParams,
    map_to_spin_boson,
    microwave_bias,
    qubit_spectrum,
)

REFERENCE = CircuitParams(
    c_j=0.85e-12, c_0=4.25e-12, i_0=2e-6, i_b=0.98 * 2e-6, l=4e-7, c=1.6e-10
)


def make(**overrides):
    base = dict(c_j=0.85e-12, c_0=4.25e-12, i_0=2e-6, i_b=0.98 * 2e-6,
                l=4e-7, c=1.6e-10)
    base.update(overrides)
    return CircuitParams(**base)


class TestConstants:
    def test_flux_quantum_value(self):
        assert FLUX_QUANTUM == pytest.approx(2.0678338484619295e-15, rel=1e-12)

    def test_flux_quantum_is_pi_hbar_over_e(self):
        assert FLUX_QUANTUM == pytest.approx(math.pi * H_BAR / E_CHARGE, rel=1e-12)


class TestCircuitParams:
    def test_impedance(self):
        assert REFERENCE.impedance == pytest.approx(50.0, rel=1e-14)

    def test_total_capacitance(self):
        assert REFERENCE.c_total == pytest.approx(5.1e-12, rel=1e-14)

    @pytest.mark.parametrize("field,value", [
        ("c_j", 0.0), ("c_j", -1e-12), ("c_0", -1e-15), ("i_0", 0.0),
        ("i_b", -1e-9), ("l", 0.0), ("c", -1e-10),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            make(**{field: value})

    @pytest.mark.parametrize("field", ["c_j", "c_0", "i_0", "i_b", "l", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, field, value):
        # a NaN once passed every range check and gave omega_p = nan
        with pytest.raises(ValueError, match="must be finite"):
            make(**{field: value})

    def test_rejects_overbias(self):
        with pytest.raises(ValueError):
            make(i_b=2e-6)
        with pytest.raises(ValueError):
            make(i_b=2.5e-6)


class TestQubitSpectrum:
    def test_frozen_values(self):
        spec = qubit_spectrum(REFERENCE)
        assert spec.omega_p == pytest.approx(15437501819.022846, rel=1e-12)
        assert spec.omega_10 == pytest.approx(14665626728.071703, rel=1e-12)
        assert spec.barrier_height == pytest.approx(3.5104637704048405e-24, rel=1e-12)
        assert spec.e_j == pytest.approx(6.582119569509067e-22, rel=1e-12)
        assert spec.e_c == pytest.approx(2.5166372220936958e-27, rel=1e-12)

    def test_level_splitting_is_softened_plasma(self):
        spec = qubit_spectrum(REFERENCE)
        assert spec.omega_10 == pytest.approx(0.95 * spec.omega_p, rel=1e-15)
        assert spec.delta == pytest.approx(H_BAR * spec.omega_10, rel=1e-15)

    def test_charge_regime_flag(self):
        spec = qubit_spectrum(REFERENCE)
        assert spec.ej_ec_ratio > 1e5
        assert spec.is_valid
        # a small junction in the charge regime, E_J/E_C = 25.6
        charge = qubit_spectrum(make(c_j=1e-12, c_0=0.0, i_0=1e-9, i_b=0.0))
        assert charge.ej_ec_ratio == pytest.approx(25.64159166377945, rel=1e-12)
        assert not charge.is_valid

    def test_barrier_holds_a_few_levels(self):
        spec = qubit_spectrum(REFERENCE)
        assert 1.0 < spec.barrier_ratio < 10.0

    def test_critical_limit_scalings(self):
        # barrier ~ tilt^(3/2), plasma frequency ~ tilt^(1/4)
        base = qubit_spectrum(make(i_b=0.0))
        probe = qubit_spectrum(make(i_b=(1.0 - 1e-12) * 2e-6))
        wp_ratio = probe.omega_p / base.omega_p
        du_ratio = probe.barrier_height / base.barrier_height
        assert 0.99e-3 < wp_ratio < 1.01e-3
        assert 0.99e-18 < du_ratio < 1.01e-18

    def test_monotone_in_bias(self):
        fractions = np.linspace(0.0, 0.995, 25)
        wp = [qubit_spectrum(make(i_b=f * 2e-6)).omega_p for f in fractions]
        du = [qubit_spectrum(make(i_b=f * 2e-6)).barrier_height for f in fractions]
        assert all(a > b for a, b in zip(wp, wp[1:]))
        assert all(a > b for a, b in zip(du, du[1:]))


class TestMapToSpinBoson:
    def test_frozen_alpha_both_conventions(self):
        sb = map_to_spin_boson(REFERENCE, 1e14)
        assert sb.alpha == pytest.approx(0.8266628913401026, rel=1e-12)
        sb_half = map_to_spin_boson(REFERENCE, 1e14,
                                    delta_convention="half_omega_p")
        assert sb_half.alpha == pytest.approx(0.4350857322842646, rel=1e-12)

    def test_convention_ratio(self):
        sb = map_to_spin_boson(REFERENCE, 1e14)
        sb_half = map_to_spin_boson(REFERENCE, 1e14,
                                    delta_convention="half_omega_p")
        assert sb.alpha / sb_half.alpha == pytest.approx(1.9, rel=1e-13)
        assert sb.delta / sb_half.delta == pytest.approx(1.9, rel=1e-13)

    def test_dimensionless_splitting(self):
        sb = map_to_spin_boson(REFERENCE, 1e14)
        assert sb.delta == pytest.approx(1.4665626728071704e-4, rel=1e-12)
        assert sb.epsilon == 0.0

    def test_cutoff_must_clear_splitting(self):
        with pytest.raises(ValueError):
            map_to_spin_boson(REFERENCE, 1e10)
        # an infinite cutoff would map to delta = 0
        with pytest.raises(ValueError):
            map_to_spin_boson(REFERENCE, math.inf)

    @pytest.mark.parametrize("convention,cutoff,valid", [
        ("omega10", 0.95 * (1 + 1e-9), True),
        ("omega10", 0.95 * (1 - 1e-9), False),
        ("omega10", 0.7, False),
        ("half_omega_p", 0.5 * (1 + 1e-9), True),
        ("half_omega_p", 0.5 * (1 - 1e-9), False),
        ("half_omega_p", 0.7, True),
    ], ids=["omega10-above", "omega10-below", "omega10-0.7",
            "half_omega_p-above", "half_omega_p-below", "half_omega_p-0.7"])
    def test_cutoff_bound_is_the_conventions_splitting(self, convention,
                                                       cutoff, valid):
        # omega_c = cutoff * omega_p against omega_10 = 0.95 omega_p or
        # omega_p / 2; 0.7 omega_p once failed under half_omega_p as well
        p = make(i_b=0.95 * 2e-6)
        omega_p = qubit_spectrum(p).omega_p
        split = 0.95 * omega_p if convention == "omega10" else 0.5 * omega_p
        omega_c = cutoff * omega_p
        if valid:
            sb = map_to_spin_boson(p, omega_c, delta_convention=convention)
            assert sb.delta == pytest.approx(split / omega_c, rel=1e-12)
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"above the qubit splitting, {split:.6g} rad/s "
                    f"under {convention}")):
                map_to_spin_boson(p, omega_c, delta_convention=convention)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            map_to_spin_boson(REFERENCE, 1e14, delta_convention="omega_p")

    def test_window_warning_and_silence(self):
        # c_0 = 0.5 pF gives alpha = 0.084, below the window
        with pytest.warns(RuntimeWarning, match=re.escape(
                "alpha = 0.084 outside the window (0.2, 3.0)")):
            map_to_spin_boson(make(c_0=0.5e-12), 1e14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            map_to_spin_boson(REFERENCE, 1e14)
            # decoupled circuit never warns
            map_to_spin_boson(make(c_0=0.0), 1e14)

    def test_alpha_decreases_with_bias(self):
        fractions = np.linspace(0.0, 0.99, 20)
        alphas = [
            map_to_spin_boson(make(i_b=f * 2e-6), 1e14,
                              delta_convention="half_omega_p").alpha
            for f in fractions
        ]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_alpha_grows_with_coupling_capacitance(self):
        caps = np.linspace(0.5e-12, 8e-12, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the smallest c_0 lie below the window
            alphas = [
                map_to_spin_boson(make(c_0=c0), 1e14,
                                  delta_convention="half_omega_p").alpha
                for c0 in caps
            ]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))


class TestBias:
    def test_frozen_microwave_bias(self):
        eps = microwave_bias(REFERENCE, 1e-9)
        assert eps == pytest.approx(2.6551415630181494e-26, rel=1e-12)

    def test_linear_in_drive(self):
        assert microwave_bias(REFERENCE, 2e-9) == pytest.approx(
            2.0 * microwave_bias(REFERENCE, 1e-9), rel=1e-15
        )
        assert microwave_bias(REFERENCE, 0.0) == 0.0


class TestSpinBosonParams:
    def test_defaults(self):
        sb = SpinBosonParams(delta=0.01)
        assert sb.epsilon == 0.0 and sb.alpha == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"delta": -0.1},
        {"delta": 0.1, "alpha": -0.2},
        {"delta": 0.1, "alpha": float("nan")},
        {"delta": 0.1, "epsilon": float("nan")},
        {"delta": 0.1, "alpha": float("inf")},
        {"delta": float("nan")},
        {"delta": 0.1, "epsilon": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SpinBosonParams(**kwargs)


def line_modes(p, length, n_c, delta_convention="omega10"):
    """Reference: the first n_c modes (omega_n, lambda_n) of an open line of
    length L, omega_n = n dOmega with dOmega = pi / (L sqrt(l c)) and
    lambda_n = C_0 sqrt(2 Delta hbar omega_n / (C L c)), and dOmega."""
    spec = qubit_spectrum(p)
    split = spec.omega_10 if delta_convention == "omega10" else 0.5 * spec.omega_p
    spacing = math.pi / (length * math.sqrt(p.l * p.c))
    omegas = [n * spacing for n in range(1, n_c + 1)]
    modes = [(w, p.c_0 * math.sqrt(2.0 * H_BAR * split * H_BAR * w
                                   / (p.c_total * length * p.c)))
             for w in omegas]
    return modes, spacing


class TestFiniteLineModes:
    # the semi-infinite line's alpha is the limit of a finite line's modes:
    # per mode, pi lambda_n^2 / (hbar^2 dOmega) = 2 pi alpha omega_n
    def test_ohmic_identity(self):
        sb = map_to_spin_boson(REFERENCE, 1e14)
        modes, spacing = line_modes(REFERENCE, length=2.5, n_c=8)
        for omega_n, lam in modes:
            lhs = math.pi * lam * lam / (H_BAR * H_BAR * spacing)
            assert lhs == pytest.approx(2.0 * math.pi * sb.alpha * omega_n,
                                        rel=1e-12)

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.0, 0.99),
        st.floats(0.5, 8.0),
        st.sampled_from(DELTA_CONVENTIONS),
    )
    def test_ohmic_identity_generic(self, length, bias_frac, c0_pf, convention):
        p = make(i_b=bias_frac * 2e-6, c_0=c0_pf * 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sb = map_to_spin_boson(p, 1e14, delta_convention=convention)
        modes, spacing = line_modes(p, length=length, n_c=3,
                                    delta_convention=convention)
        for omega_n, lam in modes:
            lhs = math.pi * lam * lam / (H_BAR * H_BAR * spacing)
            rhs = 2.0 * math.pi * sb.alpha * omega_n
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-30)
