"""Kosterlitz-Thouless diagnostics extracted from NRG flows.

The crossover iteration N* is where the rescaled first excited level
first reaches the N* threshold from below; T* = const * Lambda^-N* is
the crossover scale. Approaching the transition from the delocalized
side, T* ~ Delta^(1/(alpha_c - alpha)), so N*(alpha) diverges like
a + b / (alpha_c - alpha) and the pole of that fit extrapolates the
critical coupling. The threshold is THRESHOLD at Lambda = 2 and the same
fraction of a delocalized flow's plateau at every Lambda. The population
difference delta_p classifies a biased run's phase, and the direction
of level 1's flow a zero-bias run's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bath, numerics
from .circuit import SpinBosonParams
from .nrg import DEGENERACY_TOL, FlowRecord, NrgFlow

__all__ = [
    "CrossoverPoint",
    "NoCrossingError",
    "crossed",
    "extract_nstar",
    "fit_alpha_c",
    "classify_phase",
    "delocalized_plateau",
    "nstar_threshold",
]

THRESHOLD = 0.3  # the N* threshold at Lambda = 2
DELOCALIZED_BELOW = 0.05
LOCALIZED_ABOVE = 0.45
# a zero-bias flow whose level 1 changed by more than this fraction over
# its last iteration has a direction
FLOW_STEP_BOUND = 0.05


@functools.cache
def delocalized_plateau(Lambda: float, sites: int = 60) -> float:
    """Level 1 of a flow at the delocalized fixed point, cached per process:
    Lambda^N times the lowest one-boson level of the free Wilson chain's
    sites 0..N, N = sites // 2, with sites at most bath.longest_chain(Lambda)
    and the chain mapped at alpha = 1 (its eps and t do not depend on
    alpha; alpha = 0 decouples it). The level falls with N, so it reads
    its limit from above: at 60 sites within 1e-5 for Lambda >= 1.5
    (0.2748 at 1.5, 0.4746 at 2, 0.6087 at 3), not below (at 1.1, 0.0749
    for a limit of 0.0276). There nstar_threshold is an upper estimate: a
    flow may fail to cross it (exit 3, or nan in sweep), not give a wrong N*.
    """
    sites = min(sites, bath.longest_chain(Lambda))
    star = bath.discretize(SpinBosonParams(delta=0.0, alpha=1.0), Lambda, sites)
    chain = bath.chain_map(star)
    n = chain.n_sites // 2
    h = (np.diag(chain.eps[:n + 1]) + np.diag(chain.t[:n], 1)
         + np.diag(chain.t[:n], -1))
    return float(np.linalg.eigvalsh(h)[0] * Lambda ** n)


def nstar_threshold(Lambda: float) -> float:
    """THRESHOLD times the plateau's ratio to its Lambda = 2 value, the ratio
    first, so exactly THRESHOLD at Lambda = 2 (0.3848 at 3, 0.1737 at 1.5)."""
    return THRESHOLD * (delocalized_plateau(Lambda) / delocalized_plateau(2.0))


def _reached(level: float, threshold: float) -> bool:
    """Level 1 at or above the N* threshold, as every reader here tests it."""
    return threshold <= level


def crossed(Lambda: float) -> Callable[[FlowRecord], bool]:
    """The test of a record after which no record moves extract_nstar:
    level 1 has reached nstar_threshold(Lambda), at iteration 1 or later,
    since N* needs two records even where the first has reached it."""
    threshold = nstar_threshold(Lambda)
    return lambda rec: (rec.iteration >= 1 and len(rec.energies) > 1
                        and _reached(rec.energies[1], threshold))


class NoCrossingError(RuntimeError):
    """The level-1 flow never reached its N* threshold; extend n_iter."""


@dataclass(frozen=True)
class CrossoverPoint:
    alpha: float
    n_star: float


def extract_nstar(flow: NrgFlow) -> CrossoverPoint:
    """First iteration where level 1 crosses nstar_threshold(flow.Lambda).

    The crossing is linearly interpolated between the bracketing
    iterations. A flow already above the threshold at its first record
    gives n_star = 0. No crossing at all raises NoCrossingError.
    """
    its, vals = flow.level_series(1)
    if len(vals) < 2:
        raise ValueError("level 1 is recorded at fewer than two iterations")
    threshold = nstar_threshold(flow.Lambda)
    i = next((i for i, v in enumerate(vals) if _reached(v, threshold)), None)
    if i is None:
        raise NoCrossingError(
            f"level 1 at alpha = {flow.alpha:g} stayed below {threshold:g}, the N* "
            f"threshold at Lambda = {flow.Lambda:g}, over {len(vals)} iterations")
    if i == 0:
        return CrossoverPoint(alpha=flow.alpha, n_star=0.0)
    frac = (threshold - vals[i - 1]) / (vals[i] - vals[i - 1])
    n_star = float(its[i - 1]) + frac * float(its[i] - its[i - 1])
    return CrossoverPoint(alpha=flow.alpha, n_star=n_star)


def fit_alpha_c(points, window: float | None = None) -> numerics.DivergenceFit:
    """Extrapolate alpha_c from the pole of N*(alpha) = a + b/(alpha_c - alpha)."""
    return numerics.fit_divergence(
        [(p.alpha, p.n_star) for p in points], window=window
    )


def classify_phase(delta_p: float, flow: NrgFlow | None = None) -> str:
    """The phase a run reads: delocalized, localized or undetermined.

    delta_p decides a biased run: delocalized below DELOCALIZED_BELOW,
    localized above LOCALIZED_ABOVE, undetermined between them. A
    zero-bias run passes its flow too, since its delta_p is that of the
    polarized member of a ground doublet, and so reads localized in a run
    that stops before its crossover. Level 1, the rescaled tunneling
    splitting, then decides: delocalized if it reached its threshold or grew
    by more than FLOW_STEP_BOUND over the last iteration, localized if it
    shrank by more than that, undetermined otherwise. A level 1 within
    DEGENERACY_TOL of 0 is a degenerate ground doublet whose changes are
    roundoff (as at delta = 0), and delta_p decides.
    """
    dp = float(delta_p)
    if not 0.0 <= dp <= 0.5 + 1e-9:
        raise ValueError(f"delta_p = {dp} outside [0, 0.5]")
    if flow is not None:
        _, e1 = flow.level_series(1)
        if len(e1) < 2:
            raise ValueError("flow records do not track level 1 over two "
                             "iterations")
        if e1[-1] > DEGENERACY_TOL:
            if (_reached(e1.max(), nstar_threshold(flow.Lambda))
                    or e1[-1] > (1 + FLOW_STEP_BOUND) * e1[-2]):
                return "delocalized"
            if e1[-1] < (1 - FLOW_STEP_BOUND) * e1[-2]:
                return "localized"
            return "undetermined"
    if dp < DELOCALIZED_BELOW:
        return "delocalized"
    if dp > LOCALIZED_ABOVE:
        return "localized"
    return "undetermined"

