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
    "polaron_energy",
    "DIMENSION_LIMIT",
]

DIMENSION_LIMIT = 1_000_000
_MAX_MODES = 6
_DEGENERACY_TOL = 1e-10
_CONVERGENCE_TOL = 1e-10

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class EdProblem:
    """Finite spin-boson instance: modes are (frequency, coupling) pairs.

    Energies in cutoff units. n_max is the highest occupation kept per
    mode, so each mode contributes n_max + 1 basis states.
    """

    delta: float
    epsilon: float
    modes: tuple[tuple[float, float], ...]
    n_max: int

    def __post_init__(self):
        object.__setattr__(
            self, "modes", tuple((float(w), float(g)) for w, g in self.modes)
        )
        if len(self.modes) > _MAX_MODES:
            raise ValueError(f"at most {_MAX_MODES} modes supported")
        for w, _ in self.modes:
            if w <= 0:
                raise ValueError("mode frequencies must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.dimension > DIMENSION_LIMIT:
            raise ValueError(
                f"dimension {self.dimension} exceeds the guard {DIMENSION_LIMIT}"
            )

    @property
    def dimension(self) -> int:
        return 2 * (self.n_max + 1) ** len(self.modes)


@dataclass
class EdResult:
    """Ground-state data; converged reports the n_max -> n_max + 5 check.

    converged is None when the enlarged problem would blow the dimension
    guard, so the check could not run.
    """

    ground_energy: float
    gap: float
    sigma_z: float
    sigma_x: float
    converged: bool | None


def _build_hamiltonian(delta: float, epsilon: float, modes, n_max: int):
    """Dense H plus the spin operators in the same product basis."""
    dim_b = n_max + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, dim_b)), 1)
    nhat = np.diag(np.arange(dim_b, dtype=float))
    pos = ladder + ladder.T
    eye_b = np.eye(dim_b)

    def lift(site_op, site):
        """Embed a one-mode operator at the given site of the boson product."""
        op = np.eye(1)
        for j in range(len(modes)):
            op = np.kron(op, site_op if j == site else eye_b)
        return op

    bos_dim = dim_b ** len(modes) if modes else 1
    eye_bos = np.eye(bos_dim)
    h = -0.5 * delta * np.kron(_SX, eye_bos) + 0.5 * epsilon * np.kron(_SZ, eye_bos)
    for site, (w, g) in enumerate(modes):
        h += w * np.kron(np.eye(2), lift(nhat, site))
        h += 0.5 * g * np.kron(_SZ, lift(pos, site))
    sz_full = np.kron(_SZ, eye_bos)
    sx_full = np.kron(_SX, eye_bos)
    return h, sz_full, sx_full


def _ground_expectations(energies, vectors, sz_full, sx_full):
    """Expectations in the ground state, resolving a degenerate pair.

    Within a degenerate ground multiplet the sigma_z operator is
    diagonalized and the member with extremal |<sigma_z>| reported, the
    same convention the NRG engine uses, so cross checks compare like
    with like.
    """
    g = int(np.searchsorted(energies, energies[0] + _DEGENERACY_TOL, side="right"))
    g = max(g, 1)
    vec = vectors[:, 0]
    if g > 1:
        vg = vectors[:, :g]
        zblock = vg.T @ sz_full @ vg
        dec = numerics.sym_eig(0.5 * (zblock + zblock.T))
        vec = vg @ dec.vectors[:, int(np.argmax(np.abs(dec.eigenvalues)))]
    return float(vec @ sz_full @ vec), float(vec @ sx_full @ vec)


def exact_diag(p: EdProblem, check_convergence: bool = True) -> EdResult:
    """Dense diagonalization of the full product-basis Hamiltonian."""
    h, sz_full, sx_full = _build_hamiltonian(p.delta, p.epsilon, p.modes, p.n_max)
    dec = numerics.sym_eig(h)
    e = dec.eigenvalues
    sz, sx = _ground_expectations(e, dec.vectors, sz_full, sx_full)

    converged = None
    if check_convergence:
        bigger_dim = 2 * (p.n_max + 6) ** max(len(p.modes), 1)
        if not p.modes:
            converged = True
        elif bigger_dim <= DIMENSION_LIMIT:
            h_big, _, _ = _build_hamiltonian(p.delta, p.epsilon, p.modes, p.n_max + 5)
            e0_big = float(np.linalg.eigvalsh(h_big)[0])
            converged = abs(e0_big - float(e[0])) < _CONVERGENCE_TOL

    return EdResult(
        ground_energy=float(e[0]),
        gap=float(e[1] - e[0]) if e.size > 1 else 0.0,
        sigma_z=sz,
        sigma_x=sx,
        converged=converged,
    )


def polaron_energy(modes) -> float:
    """Exact Delta = 0 ground energy, -sum gamma^2 / (4 xi)."""
    total = 0.0
    for w, g in modes:
        if w <= 0:
            raise ValueError("mode frequencies must be positive")
        total -= g * g / (4.0 * w)
    return total
