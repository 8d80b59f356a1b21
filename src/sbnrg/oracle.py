"""Brute-force exact diagonalization of few-mode spin-boson Hamiltonians.

Independent of the NRG engine on purpose: dense product-basis build of

    H = -(Delta/2) sigma_x + (epsilon/2) sigma_z
        + sum_n xi_n a_n^dag a_n + (sigma_z/2) sum_n gamma_n (a_n + a_n^dag)

for a handful of modes with a Fock cutoff per mode. Used to validate the
iterative diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics

__all__ = [
    "EdProblem",
    "EdResult",
    "exact_diag",
]

_DEGENERACY_TOL = 1e-10
_CONVERGENCE_TOL = 1e-10


@dataclass(frozen=True)
class EdProblem:
    """Finite spin-boson instance: modes are (frequency, coupling) pairs.

    Energies in cutoff units. n_max is the highest occupation kept per
    mode, so each mode contributes n_max + 1 basis states.
    """

    delta: float
    modes: tuple[tuple[float, float], ...]
    epsilon: float = 0.0
    n_max: int = 20

    def __post_init__(self):
        object.__setattr__(
            self, "modes", tuple((float(w), float(g)) for w, g in self.modes)
        )
        for w, _ in self.modes:
            if w <= 0:
                raise ValueError("mode frequencies must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.dimension > numerics.MAX_DENSE_DIM:
            raise ValueError(f"dimension {self.dimension} exceeds the "
                             f"dense-matrix limit {numerics.MAX_DENSE_DIM}")

    @property
    def dimension(self) -> int:
        return 2 * (self.n_max + 1) ** len(self.modes)


@dataclass
class EdResult:
    """Ground-state data; converged reports the n_max -> n_max + 5 check.

    converged is None when the enlarged problem would exceed the
    dense-matrix limit, so the check could not run.
    """

    ground_energy: float
    gap: float
    sigma_z: float
    sigma_x: float
    converged: bool | None


def _build_hamiltonian(delta: float, epsilon: float, modes, n_max: int):
    """Dense H = [[B + X + eps/2, -Delta/2], [-Delta/2, B - X - eps/2]].

    Spin index slowest; B = sum xi n and X = sum (gamma/2)(a + a^dag) act
    on the boson product, first mode slowest.
    """
    dim_b = n_max + 1
    pos = np.diag(np.sqrt(np.arange(1.0, dim_b)), 1)
    pos += pos.T
    diag = np.array([0.5 * epsilon, -0.5 * epsilon])  # H's diagonal, +-eps/2 + B
    x = np.zeros((1, 1))
    for w, g in modes:
        x = np.kron(x, np.eye(dim_b)) + np.kron(np.eye(x.shape[0]), 0.5 * g * pos)
        diag = np.add.outer(diag, w * np.arange(dim_b)).ravel()
    n = x.shape[0]
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n], h[n:, n:] = x, -x
    np.fill_diagonal(h, diag)
    i = np.arange(n)
    h[i, i + n] = h[i + n, i] = -0.5 * delta
    return h


def _ground_expectations(energies, vectors):
    """<sigma_z>, <sigma_x> in the ground state, resolving a degenerate pair.

    Everything is read from the spin halves u_up, u_dn of the
    eigenvectors. Within a degenerate ground multiplet the sigma_z block
    U_up^T U_up - U_dn^T U_dn is diagonalized and the member with extremal
    |<sigma_z>| reported, the same convention the NRG engine uses, so
    cross checks compare like with like.
    """
    n = vectors.shape[0] // 2
    g = int(np.searchsorted(energies, energies[0] + _DEGENERACY_TOL, side="right"))
    vec = vectors[:, 0]
    if g > 1:
        up, dn = vectors[:n, :g], vectors[n:, :g]
        zblock = up.T @ up - dn.T @ dn
        dec = numerics.sym_eig(0.5 * (zblock + zblock.T))
        vec = vectors[:, :g] @ dec.vectors[:, int(np.argmax(np.abs(dec.eigenvalues)))]
    up, dn = vec[:n], vec[n:]
    return float(up @ up - dn @ dn), float(2.0 * (up @ dn))


def exact_diag(p: EdProblem, check_convergence: bool = True) -> EdResult:
    """Dense diagonalization of the full product-basis Hamiltonian."""
    dec = numerics.sym_eig(_build_hamiltonian(p.delta, p.epsilon, p.modes, p.n_max))
    e = dec.eigenvalues
    sz, sx = _ground_expectations(e, dec.vectors)

    converged = None
    if check_convergence:
        bigger_dim = 2 * (p.n_max + 6) ** len(p.modes)
        if not p.modes:
            converged = True
        elif bigger_dim <= numerics.MAX_DENSE_DIM:
            h_big = _build_hamiltonian(p.delta, p.epsilon, p.modes, p.n_max + 5)
            e0_big = float(np.linalg.eigvalsh(h_big)[0])
            converged = abs(e0_big - float(e[0])) < _CONVERGENCE_TOL

    return EdResult(
        ground_energy=float(e[0]),
        gap=float(e[1] - e[0]) if e.size > 1 else 0.0,
        sigma_z=sz,
        sigma_x=sx,
        converged=converged,
    )

