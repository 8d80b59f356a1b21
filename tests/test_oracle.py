import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbnrg import numerics
from sbnrg.oracle import EdProblem, exact_diag


def polaron_energy(modes):
    """Reference: the exact Delta = 0 ground energy, -sum gamma^2 / (4 xi)."""
    return -sum(g * g / (4.0 * w) for w, g in modes)


class TestEdProblem:
    def test_dimension(self):
        p = EdProblem(delta=0.1, epsilon=0.0, modes=((0.5, 0.1),) * 3, n_max=4)
        assert p.dimension == 2 * 5 ** 3

    def test_positive_frequencies(self):
        with pytest.raises(ValueError):
            EdProblem(delta=0.1, epsilon=0.0, modes=((0.0, 0.1),), n_max=2)

    def test_n_max_floor(self):
        with pytest.raises(ValueError):
            EdProblem(delta=0.1, epsilon=0.0, modes=((0.5, 0.1),), n_max=0)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            EdProblem(delta=0.1, epsilon=0.0, modes=((0.5, 0.1),) * 6, n_max=10)

    def test_budget_is_the_dense_matrix_limit(self):
        # construct only: never diagonalize a problem this large
        assert numerics.MAX_DENSE_DIM == 8192
        p = EdProblem(delta=0.1, epsilon=0.0, modes=((0.5, 0.1),), n_max=4095)
        assert p.dimension == 8192
        with pytest.raises(ValueError, match="8192"):
            EdProblem(delta=0.1, epsilon=0.0, modes=((0.5, 0.1),), n_max=4096)

    def test_mode_count_bounded_by_dimension_only(self):
        # 7 modes at n_max = 1 is a 256-dim problem; the n_max + 5 check
        # would need 2 * 7^7 states and is skipped
        r = exact_diag(EdProblem(delta=0.2, epsilon=0.0,
                                 modes=((0.5, 0.1),) * 7, n_max=1))
        assert r.converged is None
        assert r.ground_energy < -0.1


class TestExactDiag:
    def test_bare_spin(self):
        r = exact_diag(EdProblem(delta=0.4, epsilon=0.0, modes=(), n_max=1))
        assert r.ground_energy == pytest.approx(-0.2, abs=1e-15)
        assert r.gap == pytest.approx(0.4, abs=1e-15)
        assert r.sigma_z == pytest.approx(0.0, abs=1e-12)
        assert r.sigma_x == pytest.approx(1.0, rel=1e-12)
        assert r.converged is True

    def test_decoupled_mode(self):
        # gamma = 0: spin and boson separate exactly
        r = exact_diag(EdProblem(delta=0.3, epsilon=0.4,
                                 modes=((0.2, 0.0),), n_max=6))
        split = math.hypot(0.3, 0.4)
        assert r.ground_energy == pytest.approx(-0.5 * split, abs=1e-14)
        assert r.gap == pytest.approx(0.2, abs=1e-13)
        assert r.sigma_z == pytest.approx(-0.4 / split, rel=1e-13)
        assert r.sigma_x == pytest.approx(0.3 / split, rel=1e-13)

    def test_polaron_doublet(self):
        # delta = 0 shifts each oscillator; ground energy is exact and the
        # degenerate pair resolves to a fully polarized member
        p = EdProblem(delta=0.0, epsilon=0.0, modes=((0.5, 0.3),), n_max=12)
        r = exact_diag(p)
        assert r.ground_energy == pytest.approx(polaron_energy(p.modes),
                                                abs=1e-12)
        assert r.gap == pytest.approx(0.0, abs=1e-12)
        assert abs(r.sigma_z) == pytest.approx(1.0, abs=1e-9)
        assert r.sigma_x == pytest.approx(0.0, abs=1e-9)

    def test_two_mode_regression(self):
        p = EdProblem(delta=0.3, epsilon=0.1,
                      modes=((0.5, 0.2), (0.25, 0.15)), n_max=14)
        r = exact_diag(p)
        assert r.converged is True
        assert r.ground_energy == pytest.approx(-0.18319519535899106, rel=1e-12)
        assert r.gap == pytest.approx(0.19621060924756523, rel=1e-12)
        assert r.sigma_z == pytest.approx(-0.3763570474296114, rel=1e-10)
        assert r.sigma_x == pytest.approx(0.8657211544791934, rel=1e-10)

    def test_unconverged_basis_flagged(self):
        # displacement gamma / 2 xi = 10 cannot fit in 3 Fock states
        r = exact_diag(EdProblem(delta=0.1, epsilon=0.0,
                                 modes=((0.01, 0.2),), n_max=2))
        assert r.converged is False

    def test_convergence_check_skippable(self):
        r = exact_diag(EdProblem(delta=0.3, epsilon=0.1,
                                 modes=((0.5, 0.2),), n_max=8),
                       check_convergence=False)
        assert r.converged is None

    def test_guard_blocks_convergence_check(self, monkeypatch):
        monkeypatch.setattr("sbnrg.numerics.MAX_DENSE_DIM", 100)
        p = EdProblem(delta=0.1, epsilon=0.0, modes=((0.5, 0.1),), n_max=46)
        r = exact_diag(p)
        assert r.converged is None

    def test_bias_sign(self):
        up = exact_diag(EdProblem(delta=0.2, epsilon=0.3,
                                  modes=((0.5, 0.1),), n_max=8))
        dn = exact_diag(EdProblem(delta=0.2, epsilon=-0.3,
                                  modes=((0.5, 0.1),), n_max=8))
        assert up.sigma_z < 0 < dn.sigma_z
        assert up.ground_energy == pytest.approx(dn.ground_energy, rel=1e-12)

    @given(
        st.floats(0.05, 1.0),
        st.floats(0.2, 1.0),
        st.floats(0.0, 0.5),
    )
    def test_variational_upper_bounds(self, delta, w, g):
        # ground energy sits below both product-state trial energies
        p = EdProblem(delta=delta, epsilon=0.0, modes=((w, g),), n_max=10)
        r = exact_diag(p, check_convergence=False)
        bound = min(-0.5 * delta, polaron_energy(p.modes))
        assert r.ground_energy <= bound + 1e-9

    def test_coupling_always_lowers_energy(self):
        free = exact_diag(EdProblem(delta=0.3, epsilon=0.0,
                                    modes=((0.5, 0.0),), n_max=10))
        coupled = exact_diag(EdProblem(delta=0.3, epsilon=0.0,
                                       modes=((0.5, 0.2),), n_max=10))
        assert coupled.ground_energy < free.ground_energy

