"""Ohmic bath: logarithmic star discretization and Wilson chain.

The continuous bath of the transmission line, J(omega) = 2 pi alpha omega
(cutoff at omega_c = 1), is chopped into intervals
[Lambda^-(n+1), Lambda^-n]. Each interval becomes one star mode with
squared coupling gamma_n^2 = (1/pi) int J and representative energy
xi_n = int J omega / int J, both in closed form. Tridiagonalizing the
star from the normalized coupling vector (the Lanczos chain, computed here
by the Gragg-Harrod rotation recursion in float64) turns it into a
semi-infinite chain whose hoppings decay like Lambda^-n, which is what the
iterative diagonalization needs.

A shell's mode is weaker, at low energy, than the continuum it replaces.
The static (orthogonality) exponent that renormalizes the tunneling is,
for the mode, gamma_n^2 / xi_n^2, and for the continuum shell
int J / (pi omega^2) = 2 alpha ln Lambda. Their ratio is

    r(Lambda) = 9 (1 - Lambda^-2)^3 / (8 (1 - Lambda^-3)^2 ln Lambda),

the same for every shell: 0.8944 at Lambda = 2, 0.7756 at Lambda = 3,
and 1 in the limit Lambda -> 1. So the discretized bath acts as a
continuum of coupling r alpha: T* ~ Delta^(1/(1 - r alpha)), and N*
grows with log_Lambda(1/Delta) at the slope 1/(1 - r alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CPython's built-in SHA-256, as random.py takes its sha512: hashlib loads
# OpenSSL's libcrypto, 3.5-3.8 MB of RSS, to hash a few KB per run.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .circuit import SpinBosonParams

__all__ = [
    "StarBath",
    "WilsonChain",
    "check_lambda",
    "discretize",
    "chain_map",
    "longest_chain",
]


@dataclass(frozen=True)
class StarBath:
    """Discretized bath modes: energies xi_n and couplings gamma_n."""

    xi: np.ndarray
    gamma: np.ndarray

    @property
    def n_modes(self) -> int:
        return int(self.xi.size)


@dataclass(frozen=True)
class WilsonChain:
    """Tridiagonal chain: spin couples to site 0 with strength c0.

    eps holds on-site energies, t the hoppings; len(t) = len(eps) - 1.
    A fully decoupled bath has c0 = 0 and every t zero.
    """

    c0: float
    eps: np.ndarray
    t: np.ndarray

    @property
    def n_sites(self) -> int:
        return int(self.eps.size)

    def digest(self) -> str:
        """Content hash used to tag results with the chain they ran on."""
        h = sha256()
        h.update(np.float64(self.c0).tobytes())
        h.update(np.asarray(self.eps, dtype=float).tobytes())
        h.update(np.asarray(self.t, dtype=float).tobytes())
        return h.hexdigest()


def check_lambda(Lambda: float) -> None:
    """Raise ValueError unless the discretization ratio is finite and above 1."""
    if not math.isfinite(Lambda):
        raise ValueError(f"Lambda must be finite, not {Lambda}")
    if Lambda <= 1.0:
        raise ValueError("Lambda must exceed 1")


def discretize(p: SpinBosonParams, Lambda: float, n_star: int) -> StarBath:
    """Logarithmically discretize the bath into n_star modes.

    The defining integrals of omega and omega^2 over each interval give
    gamma_n^2 = alpha (1 - Lambda^-2) Lambda^-2n and
    xi_n = (2/3) (1 - Lambda^-3)/(1 - Lambda^-2) Lambda^-n, each evaluated
    in the order written. alpha = 0 gives a decoupled bath (all gamma
    zero), not an error; the xi stay at the J-weighted interval means,
    which do not depend on alpha.
    """
    Lambda = float(Lambda)
    check_lambda(Lambda)
    n_star = int(n_star)
    if n_star < 1:
        raise ValueError("need at least one discretization interval")
    n = np.arange(n_star, dtype=float)
    xi0 = 2.0 / 3.0 * (1.0 - Lambda ** -3.0) / (1.0 - Lambda ** -2.0)
    g_sq = p.alpha * (1.0 - Lambda ** -2.0) * Lambda ** (-2.0 * n)
    return StarBath(xi=xi0 * Lambda ** -n, gamma=np.sqrt(g_sq))


def _rkpw(nodes: list, weights: list) -> tuple[list, list]:
    """Recurrence coefficients (alpha_n, beta_n) of sum_i w_i delta(x - x_i).

    Gragg-Harrod rotations (RKPW, Gautschi's OPQ lanczos.m) fold in one
    node at a time: O(n^2) work and no Lanczos basis. beta[0] = sum w_i.
    Plain Python floats, so every bit is IEEE arithmetic in a fixed order.
    """
    n = len(nodes)
    p0 = list(nodes)
    p1 = [weights[0]] + [0.0] * (n - 1)
    for m in range(1, n):
        pn, xlam = weights[m], nodes[m]
        gam, sig, t = 1.0, 0.0, 0.0
        for k in range(m + 1):
            rho = p1[k] + pn
            tmp = gam * rho
            tsig = sig
            if rho <= 0:
                gam, sig = 1.0, 0.0
            else:
                gam, sig = p1[k] / rho, pn / rho
            tk = sig * (p0[k] - xlam) - gam * t
            p0[k] -= tk - t
            t = tk
            pn = tsig * p1[k] if sig <= 0 else t * t / sig
            p1[k] = tmp  # p1[k], not p1[k + 1]
    return p0, p1


def chain_map(star: StarBath) -> WilsonChain:
    """Tridiagonalize the star into the Wilson chain.

    The chain is the Lanczos tridiagonal of diag(xi) from the normalized
    coupling vector, taken from the recurrence of the weights gamma_i^2:
    c0 = sqrt(beta_0), eps_n = alpha_n, t_n = sqrt(beta_{n+1}), in float64.
    Modes of equal energy are first merged into one with the summed weight
    and weightless modes dropped, so every beta is positive and the chain
    has one site per distinct weighted energy; without the merge, roundoff
    leaves spurious hoppings of order 1e-32 on repeated energies. A
    weightless star maps to the decoupled chain: c0 = 0, eps = xi, t = 0.
    Products of two weights must stay normal floats (longest_chain); a
    star whose chain float64 loses (some beta <= 0) raises ValueError.
    """
    xi = np.asarray(star.xi, dtype=float)
    gamma = np.asarray(star.gamma, dtype=float)
    if xi.shape != gamma.shape:
        raise ValueError("xi and gamma must have matching shapes")
    if not (np.isfinite(xi).all() and np.isfinite(gamma).all()):
        raise ValueError("star energies and couplings must be finite")
    if np.any(xi <= 0):
        raise ValueError("star energies must be positive")
    weights: dict[float, float] = {}
    for x, g in zip(xi.tolist(), gamma.tolist()):
        if g * g > 0:
            weights[x] = weights.get(x, 0.0) + g * g
    if not weights:
        return WilsonChain(c0=0.0, eps=xi.copy(), t=np.zeros(max(xi.size - 1, 0)))
    alpha, beta = _rkpw(list(weights), list(weights.values()))
    if min(beta) <= 0:
        raise ValueError("star weights span more than float64 can map")
    return WilsonChain(c0=math.sqrt(beta[0]), eps=np.array(alpha),
                       t=np.sqrt(beta[1:]))


def longest_chain(Lambda: float) -> int:
    """The most sites chain_map maps at Lambda: 256 at 2, 26 at 1000."""
    check_lambda(Lambda)
    return 1 + int(-math.log(np.finfo(float).tiny, Lambda) / 4)
