"""Kosterlitz-Thouless diagnostics extracted from NRG flows.

The crossover iteration N* is where the rescaled first excited level
first reaches a threshold (0.3) from below; T* = const * Lambda^-N* is
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
    "PhaseDiagnosis",
    "NoCrossingError",
    "extract_nstar",
    "fit_alpha_c",
    "classify_phase",
]

DEFAULT_THRESHOLD = 0.3


class NoCrossingError(RuntimeError):
    """The level-1 flow never reached the threshold; extend n_iter."""


@dataclass(frozen=True)
class CrossoverPoint:
    alpha: float
    n_star: float


@dataclass(frozen=True)
class PhaseDiagnosis:
    delta_p: float
    label: str  # delocalized | localized | undetermined


def extract_nstar(flow: NrgFlow, threshold: float = DEFAULT_THRESHOLD) -> CrossoverPoint:
    """First iteration where level 1 crosses the threshold from below.

    The crossing is linearly interpolated between the bracketing
    iterations. A flow already above threshold at its first record gives
    n_star = 0. No crossing at all raises NoCrossingError.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if len(flow.records) < 2:
        raise ValueError("need at least two recorded iterations")
    its, vals = flow.level_series(1)
    if len(vals) < 2:
        raise ValueError("flow records do not track level 1")
    if vals[0] >= threshold:
        return CrossoverPoint(alpha=flow.alpha, n_star=0.0)
    for i in range(len(vals) - 1):
        if vals[i] < threshold <= vals[i + 1]:
            frac = (threshold - vals[i]) / (vals[i + 1] - vals[i])
            n_star = float(its[i]) + frac * float(its[i + 1] - its[i])
            return CrossoverPoint(alpha=flow.alpha, n_star=n_star)
    raise NoCrossingError(
        f"level 1 stayed below {threshold} over {len(vals)} iterations"
    )


def fit_alpha_c(points, window: float | None = None) -> numerics.DivergenceFit:
    """Extrapolate alpha_c from the pole of N*(alpha) = a + b/(alpha_c - alpha)."""
    return numerics.fit_divergence(
        [(p.alpha, p.n_star) for p in points], window=window
    )


def classify_phase(delta_p: float, lo: float = 0.05, hi: float = 0.45) -> PhaseDiagnosis:
    """Label a delta_p value: below lo delocalized, above hi localized."""
    dp = float(delta_p)
    if not 0.0 <= dp <= 0.5 + 1e-9:
        raise ValueError(f"delta_p = {dp} outside [0, 0.5]")
    if not 0.0 < lo < hi < 0.5:
        raise ValueError("thresholds must satisfy 0 < lo < hi < 0.5")
    if dp < lo:
        label = "delocalized"
    elif dp > hi:
        label = "localized"
    else:
        label = "undetermined"
    return PhaseDiagnosis(delta_p=dp, label=label)

