"""Kosterlitz-Thouless diagnostics extracted from NRG flows.

The crossover iteration N* is where the rescaled first excited level
first reaches THRESHOLD (0.3) from below; T* = const * Lambda^-N* is
the crossover scale. Approaching the transition from the delocalized
side, T* ~ Delta^(1/(alpha_c - alpha)), so N*(alpha) diverges like
a + b / (alpha_c - alpha) and the pole of that fit extrapolates the
critical coupling. The population difference delta_p classifies the
phase directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import numerics
from .nrg import NrgFlow

__all__ = [
    "CrossoverPoint",
    "NoCrossingError",
    "extract_nstar",
    "fit_alpha_c",
    "classify_phase",
]

THRESHOLD = 0.3
DELOCALIZED_BELOW = 0.05
LOCALIZED_ABOVE = 0.45


class NoCrossingError(RuntimeError):
    """The level-1 flow never reached THRESHOLD; extend n_iter."""


@dataclass(frozen=True)
class CrossoverPoint:
    alpha: float
    n_star: float


def extract_nstar(flow: NrgFlow) -> CrossoverPoint:
    """First iteration where level 1 crosses THRESHOLD from below.

    The crossing is linearly interpolated between the bracketing
    iterations. A flow already above THRESHOLD at its first record gives
    n_star = 0. No crossing at all raises NoCrossingError.
    """
    if len(flow.records) < 2:
        raise ValueError("need at least two recorded iterations")
    its, vals = flow.level_series(1)
    if len(vals) < 2:
        raise ValueError("flow records do not track level 1")
    if vals[0] >= THRESHOLD:
        return CrossoverPoint(alpha=flow.alpha, n_star=0.0)
    for i in range(len(vals) - 1):
        if vals[i] < THRESHOLD <= vals[i + 1]:
            frac = (THRESHOLD - vals[i]) / (vals[i + 1] - vals[i])
            n_star = float(its[i]) + frac * float(its[i + 1] - its[i])
            return CrossoverPoint(alpha=flow.alpha, n_star=n_star)
    raise NoCrossingError(
        f"level 1 stayed below {THRESHOLD} over {len(vals)} iterations"
    )


def fit_alpha_c(points, window: float | None = None) -> numerics.DivergenceFit:
    """Extrapolate alpha_c from the pole of N*(alpha) = a + b/(alpha_c - alpha)."""
    return numerics.fit_divergence(
        [(p.alpha, p.n_star) for p in points], window=window
    )


def classify_phase(delta_p: float) -> str:
    """The phase a delta_p value reads: delocalized below DELOCALIZED_BELOW,
    localized above LOCALIZED_ABOVE, undetermined between them."""
    dp = float(delta_p)
    if not 0.0 <= dp <= 0.5 + 1e-9:
        raise ValueError(f"delta_p = {dp} outside [0, 0.5]")
    if dp < DELOCALIZED_BELOW:
        return "delocalized"
    if dp > LOCALIZED_ABOVE:
        return "localized"
    return "undetermined"

