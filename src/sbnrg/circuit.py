"""SI-unit circuit parameters to dimensionless spin-boson parameters.

A current-biased Josephson junction sits in a tilted washboard potential;
near the critical current each well is cubic, with barrier height

    dU(I_b) = (2 sqrt(2) I_0 Phi_0 / 3 pi) (1 - I_b/I_0)^(3/2)

and small-oscillation (plasma) frequency

    omega_p(I_b) = 2^(1/4) sqrt(2 pi I_0 / (Phi_0 C)) (1 - I_b/I_0)^(1/4),

where C = C_J + C_0. The two lowest well levels form the qubit with
splitting omega_10 = 0.95 omega_p. A semi-infinite transmission line of
impedance sqrt(l/c) shunts the junction through C_0; its continuum of
modes is an Ohmic bath with dimensionless coupling

    alpha = (Delta / hbar pi) (C_0^2 / C) sqrt(l/c).

All SI conversion happens in this module; downstream code works in units
of the bath cutoff (hbar = 1, energies in omega_c).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "H_BAR",
    "E_CHARGE",
    "FLUX_QUANTUM",
    "ALPHA_WINDOW",
    "EJ_EC_MIN",
    "CircuitParams",
    "QubitSpectrum",
    "SpinBosonParams",
    "qubit_spectrum",
    "map_to_spin_boson",
    "microwave_bias",
    "DELTA_CONVENTIONS",
]

# CODATA exact values; Phi_0 = pi hbar / e
_H_PLANCK = 6.62607015e-34  # J s, exact by definition
H_BAR = _H_PLANCK / (2.0 * math.pi)
E_CHARGE = 1.602176634e-19  # C, exact by definition
FLUX_QUANTUM = _H_PLANCK / (2.0 * E_CHARGE)

# the experimentally motivated range of alpha; map_to_spin_boson warns outside it
ALPHA_WINDOW = (0.2, 3.0)
# the E_J/E_C ratio a junction must exceed to stay clear of charge noise
EJ_EC_MIN = 100.0

# The qubit splitting entering alpha and delta can be taken as hbar*omega_10
# or as hbar*omega_p/2; both appear in the literature for this circuit and
# they differ by a factor 1.9. Neither is asserted correct here.
DELTA_CONVENTIONS = ("omega10", "half_omega_p")


@dataclass(frozen=True)
class CircuitParams:
    """Phase-qubit circuit in SI units.

    c_j junction capacitance (F), c_0 coupling capacitance (F),
    i_0 critical current (A), i_b dc bias current (A),
    l line inductance per length (H/m), c line capacitance per length (F/m).
    """

    c_j: float
    c_0: float
    i_0: float
    i_b: float
    l: float
    c: float

    def __post_init__(self):
        if self.c_j <= 0:
            raise ValueError("junction capacitance must be positive")
        if self.c_0 < 0:
            raise ValueError("coupling capacitance must be non-negative")
        if self.i_0 <= 0:
            raise ValueError("critical current must be positive")
        if self.i_b < 0:
            raise ValueError("bias current must be non-negative")
        if self.l <= 0 or self.c <= 0:
            raise ValueError("line parameters must be positive")
        if self.i_b >= self.i_0:
            raise ValueError("bias current must stay below the critical current")

    @property
    def c_total(self) -> float:
        return self.c_j + self.c_0

    @property
    def impedance(self) -> float:
        """Characteristic impedance sqrt(l/c) in ohms."""
        return math.sqrt(self.l / self.c)


@dataclass(frozen=True)
class QubitSpectrum:
    """Derived junction spectrum, all in SI units.

    barrier_ratio is dU / (hbar omega_p), the number of levels the well
    roughly holds; is_valid records the E_J >> E_C charge-noise check.
    """

    omega_p: float
    omega_10: float
    barrier_height: float
    delta: float
    e_j: float
    e_c: float
    barrier_ratio: float
    ej_ec_ratio: float
    is_valid: bool


@dataclass(frozen=True)
class SpinBosonParams:
    """Dimensionless model parameters in units of the cutoff omega_c.

    delta tunneling amplitude, epsilon bias, alpha dissipation strength,
    s bath exponent (1 = Ohmic). The cutoff is the unit of energy; its
    value in rad/s is map_to_spin_boson's omega_c.
    """

    delta: float
    epsilon: float = 0.0
    alpha: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 < self.s <= 1.0:
            raise ValueError("bath exponent s must lie in (0, 1]")
        if not all(math.isfinite(x) for x in
                   (self.delta, self.epsilon, self.alpha, self.s)):
            raise ValueError("parameters must be finite")


def qubit_spectrum(p: CircuitParams) -> QubitSpectrum:
    """Evaluate the cubic-well spectrum of the biased junction.

    Uses omega_10 = 0.95 omega_p for the anharmonically softened level
    splitting and Delta = hbar omega_10. is_valid is E_J/E_C > EJ_EC_MIN.
    """
    phi0 = FLUX_QUANTUM
    ctot = p.c_total
    tilt = 1.0 - p.i_b / p.i_0
    barrier = (2.0 * math.sqrt(2.0) / (3.0 * math.pi)) * p.i_0 * phi0 * tilt ** 1.5
    omega_p = 2.0 ** 0.25 * math.sqrt(2.0 * math.pi * p.i_0 / (phi0 * ctot)) * tilt ** 0.25
    omega_10 = 0.95 * omega_p
    e_j = phi0 * p.i_0 / (2.0 * math.pi)
    e_c = E_CHARGE ** 2 / (2.0 * ctot)
    ratio = e_j / e_c
    return QubitSpectrum(
        omega_p=omega_p,
        omega_10=omega_10,
        barrier_height=barrier,
        delta=H_BAR * omega_10,
        e_j=e_j,
        e_c=e_c,
        barrier_ratio=barrier / (H_BAR * omega_p) if omega_p > 0 else 0.0,
        ej_ec_ratio=ratio,
        is_valid=ratio > EJ_EC_MIN,
    )


def _splitting(p: CircuitParams, delta_convention: str) -> float:
    """The qubit splitting (rad/s) the convention names."""
    if delta_convention not in DELTA_CONVENTIONS:
        raise ValueError(f"unknown delta convention {delta_convention!r}")
    spec = qubit_spectrum(p)
    return spec.omega_10 if delta_convention == "omega10" else 0.5 * spec.omega_p


def map_to_spin_boson(p: CircuitParams, omega_c: float,
                      delta_convention: str = "omega10") -> SpinBosonParams:
    """Reduce the circuit to dimensionless spin-boson parameters.

    alpha = (Delta / hbar pi)(C_0^2 / C) sqrt(l/c) and delta is the
    splitting frequency over omega_c. The splitting follows
    delta_convention; see DELTA_CONVENTIONS. omega_c must be finite and
    lie above that splitting, so 0 < delta < 1, or ValueError. Bias
    epsilon starts at zero (see microwave_bias for driving). Warns when
    alpha leaves ALPHA_WINDOW.
    """
    split = _splitting(p, delta_convention)
    if not split < omega_c < math.inf:
        raise ValueError("cutoff omega_c must lie above the qubit splitting, "
                         f"{split:.6g} rad/s under {delta_convention}")
    alpha = (split / math.pi) * (p.c_0 ** 2 / p.c_total) * p.impedance
    if alpha > 0 and not ALPHA_WINDOW[0] <= alpha <= ALPHA_WINDOW[1]:
        warnings.warn(
            f"alpha = {alpha:.3g} outside the window {ALPHA_WINDOW}",
            RuntimeWarning,
            stacklevel=2,
        )
    return SpinBosonParams(delta=split / omega_c, epsilon=0.0, alpha=alpha, s=1.0)


def microwave_bias(p: CircuitParams, i_uw: float) -> float:
    """Bias energy (J) a static microwave current amplitude produces.

    epsilon = sqrt(hbar / (2 omega_10 C)) I_uw.
    """
    omega_10 = qubit_spectrum(p).omega_10
    return math.sqrt(H_BAR / (2.0 * omega_10 * p.c_total)) * i_uw

