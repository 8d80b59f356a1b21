import hashlib
import json
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbnrg.bath import (
    StarBath,
    WilsonChain,
    chain_map,
    discretize,
    longest_chain,
)
from sbnrg.circuit import SpinBosonParams
from sbnrg.criticality import extract_nstar
from sbnrg.nrg import NrgConfig, run


REFERENCE_CHAINS = json.loads(
    (Path(__file__).parent / "data" / "chains_ref.json").read_text()
)["stars"]


def _reference_id(ref):
    if "xi" in ref:
        return f"explicit{len(ref['xi'])}"
    return f"L{ref['Lambda']:g}-n{ref['n_star']}-a{ref['alpha']:g}-s{ref['s']:g}"


def ohmic(alpha):
    return SpinBosonParams(delta=0.01, alpha=alpha)


def _frozen_star(ref):
    """The star a reference chain was frozen from, stored bit for bit."""
    return StarBath(xi=np.array([float.fromhex(x) for x in ref["star_xi"]]),
                    gamma=np.array([float.fromhex(g) for g in ref["star_gamma"]]))


def _assert_frozen_chain(ch, ref):
    assert ch.c0 == pytest.approx(float.fromhex(ref["c0"]), rel=1e-13, abs=0)
    npt.assert_allclose(ch.eps, [float.fromhex(x) for x in ref["eps"]],
                        rtol=1e-13, atol=0)
    npt.assert_allclose(ch.t, [float.fromhex(x) for x in ref["t"]],
                        rtol=1e-13, atol=0)


# xi_n and gamma_n of the Ohmic star at alpha = 0.6, n_star = 120, as
# float.hex: the closed form's bits, which every output follows from
FROZEN_STAR_BITS = {
    (2.0, 0): ("0x1.8e38e38e38e38p-1", "0x1.5775c544ff263p-1"),
    (2.0, 1): ("0x1.8e38e38e38e38p-2", "0x1.5775c544ff263p-2"),
    (2.0, 4): ("0x1.8e38e38e38e38p-5", "0x1.5775c544ff263p-5"),
    (2.0, 64): ("0x1.8e38e38e38e38p-65", "0x1.5775c544ff263p-65"),
    (2.0, 119): ("0x1.8e38e38e38e38p-120", "0x1.5775c544ff263p-120"),
    (3.0, 0): ("0x1.71c71c71c71c7p-1", "0x1.75e9746a0b098p-1"),
    (3.0, 1): ("0x1.ed097b425ed09p-3", "0x1.f28c9b380eb76p-3"),
    (3.0, 4): ("0x1.242b8b69b3722p-7", "0x1.276fc447252a5p-7"),
    (3.0, 64): ("0x1.1107a1aeb8f24p-102", "0x1.14151278a92bbp-102"),
    (3.0, 119): ("0x1.e45fb3c6ef94fp-190", "0x1.e9ca083707d8dp-190"),
}


class TestDiscretize:
    def test_geometric_ladders(self):
        star = discretize(ohmic(0.5), 2.0, 12)
        assert star.n_modes == 12
        xi0 = (2.0 / 3.0) * (1.0 - 2.0 ** -3) / (1.0 - 2.0 ** -2)
        npt.assert_allclose(star.xi, xi0 * 2.0 ** -np.arange(12.0), rtol=1e-14)
        g0 = math.sqrt(0.5 * (1.0 - 2.0 ** -2))
        npt.assert_allclose(star.gamma, g0 * 2.0 ** -np.arange(12.0), rtol=1e-14)

    def test_couplings_carry_integrated_weight(self):
        # per interval: gamma^2 = (1/pi) int J = 2 alpha int w dw
        star = discretize(ohmic(0.37), 2.5, 8)
        for k in range(8):
            lo, hi = 2.5 ** -(k + 1), 2.5 ** -k
            assert star.gamma[k] ** 2 == pytest.approx(
                0.37 * (hi ** 2 - lo ** 2), rel=1e-13
            )

    def test_energies_are_weighted_means(self):
        star = discretize(ohmic(0.37), 2.5, 8)
        for k, xi in enumerate(star.xi):
            lo, hi = 2.5 ** -(k + 1), 2.5 ** -k
            assert lo < xi < hi
            mean = (2.0 / 3.0) * (hi ** 3 - lo ** 3) / (hi ** 2 - lo ** 2)
            assert xi == pytest.approx(mean, rel=1e-13)

    def test_closed_form_matches_interval_integrals(self):
        # per interval, against the difference form of int w and int w^2
        star = discretize(ohmic(0.4), 2.0, 200)
        for k in range(200):
            lo, hi = 2.0 ** -(k + 1), 2.0 ** -k
            w_int = (hi ** 2 - lo ** 2) / 2
            m_int = (hi ** 3 - lo ** 3) / 3
            assert star.gamma[k] ** 2 == pytest.approx(0.8 * w_int, rel=1e-13)
            assert star.xi[k] == pytest.approx(m_int / w_int, rel=1e-13)

    @pytest.mark.parametrize("Lambda,n", FROZEN_STAR_BITS,
                             ids=[f"L{L:g}-n{n}" for L, n in FROZEN_STAR_BITS])
    def test_closed_form_bits(self, Lambda, n):
        # the same product in another order, alpha ((1 - Lambda^-2)
        # Lambda^-2n), moves 42 of the 120 gamma_n at Lambda = 3, n = 4
        # among them
        star = discretize(ohmic(0.6), Lambda, 120)
        xi, gamma = FROZEN_STAR_BITS[Lambda, n]
        assert float(star.xi[n]).hex() == xi
        assert float(star.gamma[n]).hex() == gamma

    def test_decoupled_alpha_zero(self):
        star = discretize(ohmic(0.0), 2.0, 10)
        npt.assert_array_equal(star.gamma, np.zeros(10))
        assert np.all(star.xi > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            discretize(ohmic(0.5), 1.0, 10)
        with pytest.raises(ValueError):
            discretize(ohmic(0.5), 2.0, 0)
        # a NaN Lambda once gave c0 = 0 and every eps NaN, with no error
        for Lambda in (math.nan, math.inf):
            for call in (lambda: discretize(ohmic(0.5), Lambda, 5),
                         lambda: longest_chain(Lambda)):
                with pytest.raises(ValueError,
                                   match=f"Lambda must be finite, not {Lambda}"):
                    call()

    @given(st.floats(1.2, 5.0), st.integers(2, 30))
    def test_strictly_decaying(self, Lambda, n_star):
        star = discretize(ohmic(0.5), Lambda, n_star)
        assert np.all(np.diff(star.xi) < 0)
        assert np.all(np.diff(star.gamma) < 0)
        ratios = star.xi[:-1] / star.xi[1:]
        npt.assert_allclose(ratios, Lambda, rtol=1e-12)


class TestChainMap:
    def test_spin_coupling_collects_total_weight(self):
        star = discretize(ohmic(0.5), 2.0, 20)
        ch = chain_map(star)
        assert ch.c0 ** 2 == pytest.approx(float(np.sum(star.gamma ** 2)),
                                           rel=1e-13)
        assert ch.c0 == pytest.approx(math.sqrt(0.5 * (1 - 2.0 ** -40)),
                                      rel=1e-14)

    def test_first_site_energy(self):
        # J-weighted mean of the whole band; 2/3 for the Ohmic bath
        ch20 = chain_map(discretize(ohmic(0.5), 2.0, 20))
        assert ch20.eps[0] == pytest.approx(2.0 / 3.0, rel=1e-11)
        ch40 = chain_map(discretize(ohmic(0.5), 2.0, 40))
        assert ch40.eps[0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_shape(self):
        ch = chain_map(discretize(ohmic(0.5), 2.0, 15))
        assert ch.n_sites == 15
        assert ch.t.size == 14
        assert np.all(ch.eps > 0)
        assert np.all(ch.t > 0)

    def test_similarity_preserves_star_spectrum(self):
        star = discretize(ohmic(0.5), 2.0, 20)
        ch = chain_map(star)
        tri = np.diag(ch.eps) + np.diag(ch.t, 1) + np.diag(ch.t, -1)
        ev, vec = np.linalg.eigh(tri)
        xi_sorted = np.sort(star.xi)
        npt.assert_allclose(ev, xi_sorted, rtol=1e-12)
        # the spin-facing column maps back onto the star couplings
        g_rec = np.abs(vec[0, :]) * ch.c0
        npt.assert_allclose(g_rec, star.gamma[np.argsort(star.xi)], rtol=1e-12)

    def test_hoppings_decay_at_discretization_ratio(self):
        ch = chain_map(discretize(ohmic(0.5), 2.0, 40))
        r = ch.t[:-1] / ch.t[1:]
        mid = np.abs(r[15:26] - 2.0)
        assert mid.max() < 1e-4
        assert mid.min() < 1e-6

    def test_coupling_strength_factors_out(self):
        weak = chain_map(discretize(ohmic(0.1), 2.0, 18))
        strong = chain_map(discretize(ohmic(0.4), 2.0, 18))
        npt.assert_array_equal(weak.eps, strong.eps)
        npt.assert_array_equal(weak.t, strong.t)
        assert strong.c0 == pytest.approx(2.0 * weak.c0, rel=1e-15)

    def test_decoupled_star_gives_decoupled_chain(self):
        star = discretize(ohmic(0.0), 2.0, 10)
        ch = chain_map(star)
        assert ch.n_sites == 10
        assert ch.c0 == 0.0
        npt.assert_array_equal(ch.eps, star.xi)
        npt.assert_array_equal(ch.t, np.zeros(9))

    def test_rejects_bad_star(self):
        with pytest.raises(ValueError):
            chain_map(StarBath(xi=np.array([0.5, 0.0]),
                               gamma=np.array([0.1, 0.1])))
        with pytest.raises(ValueError):
            chain_map(StarBath(xi=np.array([0.5, 0.25]),
                               gamma=np.array([0.1])))
        with pytest.raises(ValueError, match="float64"):
            chain_map(discretize(ohmic(0.5), 2.0, 400))  # past NrgConfig's bound
        # a NaN gamma once failed g * g > 0 and was dropped as a weightless mode
        for bad in (math.nan, math.inf):
            for xi, gamma in (([0.5, bad], [0.1, 0.1]), ([0.5, 0.25], [0.1, bad])):
                with pytest.raises(ValueError, match="must be finite"):
                    chain_map(StarBath(xi=np.array(xi), gamma=np.array(gamma)))

    def test_degenerate_star_truncates_cleanly(self):
        # modes at one energy span a 1d Krylov space, weightless ones none:
        # one site per distinct weighted energy, with the star's spectrum
        for xi, gamma in [
            ([0.5, 0.5], [0.3, 0.4]),
            ([0.9, 0.5, 0.3, 0.5, 0.1], [0.2, 0.3, 0.1, 0.4, 0.0]),
            ([0.8, 0.4, 0.2, 0.4, 0.1, 0.05], [0.5, 0.0, 0.25, 0.3, 0.1, 0.0]),
        ]:
            star = StarBath(xi=np.array(xi), gamma=np.array(gamma))
            ch = chain_map(star)
            weighted = sorted({x for x, g in zip(xi, gamma) if g > 0})
            assert ch.n_sites == len(weighted)
            assert ch.c0 == pytest.approx(math.hypot(*gamma), rel=1e-14)
            tri = np.diag(ch.eps) + np.diag(ch.t, 1) + np.diag(ch.t, -1)
            npt.assert_allclose(np.linalg.eigvalsh(tri), weighted, rtol=1e-12)

    def test_returns_fresh_arrays(self):
        star = discretize(ohmic(0.25), 2.0, 8)
        a = chain_map(star)
        b = chain_map(star)
        assert a.eps is not b.eps
        npt.assert_array_equal(a.eps, b.eps)
        a.eps[0] = -1.0
        c = chain_map(star)
        assert c.eps[0] == b.eps[0]

    @pytest.mark.parametrize("ref", REFERENCE_CHAINS, ids=_reference_id)
    def test_matches_frozen_lanczos_chains(self, ref):
        # to 1e-13 relative against chains frozen from the reorthogonalized
        # Lanczos, and from the decimal recursion at the chain-length bound
        if "xi" in ref:
            star = StarBath(xi=np.array(ref["xi"]), gamma=np.array(ref["gamma"]))
        elif "star_xi" in ref:
            # a sub-Ohmic star (s < 1), which discretize no longer builds:
            # the chain was frozen from the stored star, bit for bit
            star = _frozen_star(ref)
        else:
            assert ref["s"] == 1.0
            star = discretize(SpinBosonParams(delta=0.0, alpha=ref["alpha"]),
                              ref["Lambda"], ref["n_star"])
        _assert_frozen_chain(chain_map(star), ref)


class TestWilsonChain:
    def test_digest_stable_and_sensitive(self):
        ch = chain_map(discretize(ohmic(0.5), 2.0, 10))
        d1 = ch.digest()
        d2 = chain_map(discretize(ohmic(0.5), 2.0, 10)).digest()
        assert d1 == d2
        assert len(d1) == 64
        other = chain_map(discretize(ohmic(0.6), 2.0, 10))
        assert other.digest() != d1
        # the built-in sha256 bath takes in place of hashlib's is the same hash
        data = np.float64(ch.c0).tobytes() + ch.eps.tobytes() + ch.t.tobytes()
        assert d1 == hashlib.sha256(data).hexdigest()

    def test_digest_covers_all_fields(self):
        eps = np.array([0.5, 0.25])
        t = np.array([0.1])
        base = WilsonChain(c0=0.3, eps=eps, t=t).digest()
        assert WilsonChain(c0=0.4, eps=eps, t=t).digest() != base
        assert WilsonChain(c0=0.3, eps=eps * 2, t=t).digest() != base
        assert WilsonChain(c0=0.3, eps=eps, t=t * 2).digest() != base


def shell_ratio(Lambda):
    """r(Lambda): an Ohmic shell mode's static exponent gamma_n^2/xi_n^2 over
    the continuum's, the integral of J/(pi omega^2) over the shell, 2 alpha
    ln Lambda."""
    return 9 * (1 - Lambda ** -2) ** 3 / (8 * (1 - Lambda ** -3) ** 2 * math.log(Lambda))


def assert_nstar_slope(config, alpha, deltas, rel):
    """N* against log_Lambda(1/Delta), run at config, has the slope
    1/(1 - r(Lambda) alpha) to within rel."""
    Lambda = config.Lambda
    nstar = [extract_nstar(run(SpinBosonParams(delta=d, alpha=alpha),
                               config).flow).n_star for d in deltas]
    slope = np.polyfit([math.log(1 / d, Lambda) for d in deltas], nstar, 1)[0]
    assert slope == pytest.approx(1 / (1 - shell_ratio(Lambda) * alpha), rel=rel)


class TestDeltaScaling:
    """The discretized Ohmic bath renormalizes the tunneling as a continuum of
    coupling r(Lambda) alpha would: T* ~ Delta^(1/(1 - r alpha)), so N*, which
    is log_Lambda(1/T*) up to a constant, grows with log_Lambda(1/Delta) at
    the slope 1/(1 - r alpha) (Bulla, Lee, Tong and Vojta, PRB 71, 045122)."""

    @pytest.mark.parametrize("Lambda", [1.001, 1.5, 2.0, 3.0])
    def test_ratio_is_the_shell_exponent(self, Lambda):
        alpha = 0.3
        star = discretize(SpinBosonParams(delta=0.1, alpha=alpha), Lambda, 6)
        exponents = star.gamma ** 2 / star.xi ** 2 / (2 * alpha * math.log(Lambda))
        npt.assert_allclose(exponents, shell_ratio(Lambda), rtol=1e-9)
        # below the continuum's, and reaching it as the shells shrink
        assert 0 < 1 - shell_ratio(Lambda) < (Lambda - 1) ** 2

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.6])
    @pytest.mark.parametrize("Lambda,n_iter", [(2.0, 80), (3.0, 60)])
    def test_nstar_slope(self, Lambda, n_iter, alpha):
        # measured: 0.99936, 1.5575, 2.1542 at Lambda = 2 and 0.99461,
        # 1.44946, 1.87143 at Lambda = 3; the alpha = 0 slope is 1 up to the
        # crossing's interpolation
        deltas = [10.0 ** -k for k in range(2, 7)]
        config = NrgConfig(Lambda=Lambda, n_s=100, n_b=8, n_iter=n_iter)
        assert_nstar_slope(config, alpha, deltas, rel=0.02 if alpha == 0 else 0.01)

    def test_nstar_slope_at_small_lambda(self):
        # N* read at the threshold scaled to Lambda = 1.5's plateau, 0.1737,
        # since 0.3 lies above that plateau; measured 1.6150, 0.56% low.
        # n_s = 100 reads 7-11% low: a small Lambda needs more kept states
        config = NrgConfig(Lambda=1.5, n_s=200, n_b=8, n_iter=45)
        assert_nstar_slope(config, 0.4, [1e-2, 1e-3, 1e-4], rel=0.01)
