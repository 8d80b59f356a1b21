"""Iterative diagonalization of the spin plus Wilson chain.

The spin is the first block, and every chain site, site 0 included, is
added by the same step: couple the block to the site, rediagonalize and
truncate back to n_s states. After site 0 the block is the kept
eigenstates, with energies rescaled by Lambda at each step. The
recorded flow is the rescaled spectrum Lambda^N (E - E_ground), the
quantity whose level-1 curve crossing the N* threshold defines the
crossover iteration N*. Ground-state observables <sigma_z>, <sigma_x>
come from operator matrices carried through every basis change.

At zero bias H commutes with the parity P = sigma_x (-1)^(sum of boson
numbers). The kept states are then held as the two sectors of P: each
step builds and diagonalizes the sectors apart, never the full H, and
carries only the operator blocks that can be nonzero, b and sigma_z
between the sectors and sigma_x within each, so every kept state has
<sigma_z> = 0 exactly. A run on the main thread with two or more CPUs
free solves the second sector on a worker thread while it solves the
first, with the serial step's bits. In the localized phase the ground
doublet straddles the two sectors, and ground_spin reads its polarized
member. A biased run is the same step with one sector, labelled 0.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bath, numerics
from .bath import WilsonChain
from .circuit import SpinBosonParams

__all__ = [
    "NrgConfig",
    "NrgState",
    "FlowRecord",
    "NrgFlow",
    "NrgResult",
    "NrgError",
    "DegeneracyError",
    "RunStopped",
    "build_initial",
    "iterate",
    "run",
    "run_on_chain",
    "ground_spin",
    "delta_p",
    "usable_cpus",
]

# Rescaled levels within this relative window of the truncation boundary
# are kept with it, and levels within it of 0 form the ground multiplet.
DEGENERACY_TOL = 1e-8
# A parity-blocked ground state and the level above it, from the other
# sector, form a doublet when their splitting is below this fraction of
# the next level: 0 at the localized fixed point, 0.5 at the delocalized
# one (one boson against two).
DOUBLET_RATIO = 0.1
# levels each flow record stores
FLOW_LEVELS = 12

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


class NrgError(RuntimeError):
    """Numerical failure inside an NRG run, tagged with the iteration."""


class DegeneracyError(ValueError):
    """Degeneracy extension blew past 2 n_s; the configuration is pathological."""


class RunStopped(RuntimeError):
    """A run ended before its last iteration because its stop event was set."""


@dataclass(frozen=True)
class NrgConfig:
    """Knobs of the iterative diagonalization.

    Lambda discretization ratio, n_s kept-states target (the cut extends
    across a boundary multiplet DEGENERACY_TOL wide), n_b boson basis
    states per chain site, n_iter iteration count. n_b counts basis
    states (occupations 0..n_b-1), so a quoted highest occupation n_max
    means n_b = n_max + 1. Each flow record stores FLOW_LEVELS levels.
    The bias is SpinBosonParams.epsilon: at epsilon = 0 the run is
    parity-blocked and ground_spin reads the polarized member of a
    localized ground doublet. n_star overrides the chain length (default
    2 n_iter, floor n_iter + 5); it may not exceed bath.longest_chain(Lambda).
    """

    Lambda: float = 2.0
    n_s: int = 100
    n_b: int = 6
    n_iter: int = 60
    n_star: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.Lambda):
            raise ValueError(f"Lambda must be finite, not {self.Lambda}")
        if self.Lambda <= 1.0:
            raise ValueError("Lambda must exceed 1")
        if self.n_s < 2:
            raise ValueError("n_s must be at least 2")
        if self.n_b < 2:
            raise ValueError("n_b must be at least 2")
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")
        if self.n_star is not None and self.n_star < self.n_iter + 5:
            raise ValueError("n_star must be at least n_iter + 5")
        if self.n_s * self.n_b > numerics.MAX_DENSE_DIM:
            raise ValueError(
                f"n_s * n_b = {self.n_s * self.n_b} exceeds the "
                f"dense-matrix limit {numerics.MAX_DENSE_DIM}"
            )
        if self.chain_length > (longest := bath.longest_chain(self.Lambda)):
            raise ValueError(
                f"n_star above {longest} takes the chain map's products of "
                "star weights, Lambda^-4n, below the float64 range")

    @property
    def chain_length(self) -> int:
        return self.n_star if self.n_star is not None else max(
            2 * self.n_iter, self.n_iter + 5
        )


@dataclass
class NrgState:
    """Kept basis after some iteration, held sector by sector.

    labels are the sectors' eigenvalues of P = sigma_x (-1)^(sum of boson
    numbers), (-1, 1) at epsilon = 0, else (0,); sector i's partner is
    sector len(labels) - 1 - i. levels[i] holds sector i's kept energies
    and energies all of them, stable-sorted, with the ground state at
    exactly 0. op_b (the current site's annihilator) and op_sz flip P:
    block i maps the partner's states to sector i's (op_sz[1] is
    op_sz[0].T). op_sx keeps P: block i is sector i's own. ground_energy
    accumulates the absolute ground-state energy in cutoff units.
    """

    iteration: int
    energies: np.ndarray
    labels: tuple[int, ...]
    levels: tuple
    op_b: tuple
    op_sz: tuple
    op_sx: tuple
    ground_energy: float

    @property
    def kept(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True)
class FlowRecord:
    iteration: int
    kept_count: int
    energies: tuple[float, ...]


@dataclass(frozen=True)
class NrgFlow:
    """Per-iteration rescaled spectra and the alpha and Lambda of their run."""

    records: tuple[FlowRecord, ...]
    alpha: float = float("nan")
    Lambda: float = NrgConfig.Lambda

    def level_series(self, index: int):
        """(iterations, values) of one level across all records that have it."""
        its = [r.iteration for r in self.records if len(r.energies) > index]
        vals = [r.energies[index] for r in self.records if len(r.energies) > index]
        return np.array(its), np.array(vals)


@dataclass(frozen=True)
class NrgResult:
    flow: NrgFlow
    sigma_z_gs: float
    sigma_x_gs: float
    delta_p: float
    params: SpinBosonParams
    config: NrgConfig
    chain_digest: str
    ground_energy: float


def _kept_count(energies: np.ndarray, cfg: NrgConfig) -> int:
    """Truncation cut: n_s lowest plus the whole boundary multiplet."""
    dim = energies.size
    if dim <= cfg.n_s:
        return dim
    boundary = energies[cfg.n_s - 1]
    cut = boundary * (1.0 + DEGENERACY_TOL)
    kept = int(np.searchsorted(energies, cut, side="right"))
    if kept > 2 * cfg.n_s:
        raise DegeneracyError(
            f"kept set {kept} exceeds 2 n_s = {2 * cfg.n_s}; raise n_s")
    return kept


def _sector_h(blocks: tuple, coupling: tuple, j: int, n_b: int,
              on_site: float, hop: float) -> tuple[np.ndarray, list, list]:
    """H on new sector j, its halves' boson levels and row edges.

    Half i is old sector i's states at the levels s + len(blocks) c (s = 0
    if i is j, else 1) as a (state, c) grid; blocks[i] is sector i's H:
    its energies, or a matrix for the bare spin. blocks x 1 + on_site n_hat
    + hop (coupling^T x b + coupling x b^dag) is summed into zeros through
    strided views with a full H build's products: each entry has its bits.
    """
    n = len(blocks)
    levels = [np.arange(int(i != j), n_b, n) for i in range(n)]
    ks = [b.shape[0] for b in blocks]
    edges = np.cumsum([0] + [k * lv.size for k, lv in zip(ks, levels)])
    h = np.zeros((edges[-1], edges[-1]))

    def grid(x, y):  # half x's rows and half y's columns as a (k, c, k, c) view
        return h[edges[x]:edges[x + 1], edges[y]:edges[y + 1]].reshape(
            ks[x], levels[x].size, ks[y], levels[y].size)

    for i in range(n):
        diag = np.einsum("iaia->ia", grid(i, i))
        if blocks[i].ndim == 2:  # the bare spin: a biased one is not diagonal
            np.einsum("iaja->aij", grid(i, i))[...] += blocks[i]
        else:
            diag += blocks[i][:, None]
        diag += on_site * levels[i]
        p = n - 1 - i
        lag = int(p == j)  # level n + 1 is at c + lag in half p
        c = levels[p].size - lag
        up = hop * (coupling[p].T * np.sqrt(levels[i][:c] + 1.0)[:, None, None])
        np.einsum("iaja->aij", grid(i, p)[:, :c, :, lag:lag + c])[...] += up
        np.einsum("iaja->aij", grid(p, i)[:, lag:lag + c, :, :c])[...] += (
            up.transpose(0, 2, 1))
    return h, levels, edges


def _add_site(blocks: tuple, coupling: tuple, op_sz: tuple, op_sx: tuple,
              labels: tuple[int, ...], cfg: NrgConfig, m: int = 0,
              eps: float = 0.0, hop: float = 0.0, ground_energy: float = 0.0,
              pool=None) -> NrgState:
    """Couple chain site m to a block held as NrgState holds it,
    rediagonalize and truncate.

    H = blocks x 1 + Lambda^m [eps (1 x n_hat) + hop (coupling^T x b + h.c.)]
    never links two sectors: each is built and diagonalized alone, given
    pool (an executor) the second on its thread, with the same bits. The
    spectra are stable-merged, shifted to 0 (the shift joins ground_energy)
    and cut; each operator block is rotated with its sectors' kept vectors.
    """
    n = len(labels)
    scale = cfg.Lambda ** m

    def solve(j):
        # h is returned to live as long as the step: freed any earlier,
        # bias_scan ran 4% slower (medians 12.29 -> 12.81 s, 4 of 4 pairs)
        # with the same page faults, since the heap pin keeps its pages
        h, levels, edges = _sector_h(blocks, coupling, j, cfg.n_b,
                                     scale * eps, scale * hop)
        return h, levels, edges, numerics.sym_eig(h)

    if pool is None or n == 1:
        solved = [solve(j) for j in range(n)]
    else:
        second = pool.submit(solve, 1)
        try:
            first = solve(0)
        finally:  # the step never returns with its worker busy or its error unread
            other = second.result()
        solved = [first, other]
    _, levels, edges, decs = zip(*solved)
    w = np.concatenate([d.eigenvalues for d in decs])
    e = np.sort(w) - w.min()
    kept = _kept_count(e, cfg)  # so each sector keeps its levels up to e[kept - 1]
    counts = [np.count_nonzero(d.eigenvalues - w.min() <= e[kept - 1]) for d in decs]
    v = [np.ascontiguousarray(d.vectors[:, :c]) for d, c in zip(decs, counts)]
    ks = [b.shape[0] for b in blocks]

    def half(j, i):  # new sector j's kept vectors on its half from old sector i
        return v[j][edges[j][i]:edges[j][i + 1]]

    def rotated(o, j, r):  # block (j, r) of o x 1, by one GEMM per half
        left = np.empty((v[r].shape[0], counts[j]))
        for i in range(n):  # o's rows in old sector t meet its columns in i
            t = i if r == j else n - 1 - i
            size = levels[r][i].size * counts[j]
            np.matmul(o[t].T, half(j, t).reshape(ks[t], size),
                      out=left[edges[r][i]:edges[r][i + 1]].reshape(ks[i], size))
        return left.T @ v[r]

    def lowered(j):  # block (j, partner) of 1 x b, by a shift of the level
        r = n - 1 - j
        x = np.zeros((counts[j], v[r].shape[0]))
        for i in range(n):  # level n of half (r, i) meets n - 1 of (j, i)
            low, high = levels[j][i], levels[r][i]
            lag = int(high[0] == 0)
            x[:, edges[r][i]:edges[r][i + 1]].reshape(counts[j], ks[i], high.size)[
                :, :, lag:] = half(j, i).T.reshape(counts[j], ks[i], low.size)[
                :, :, :high.size - lag] * np.sqrt(high[lag:])
        return x @ v[r]

    sz = rotated(op_sz, 0, n - 1)
    if (worst := float(np.abs(sz).max(initial=0.0))) > 1.0 + 1e-9:
        raise NrgError(f"propagated sigma_z norm {worst:.12g} exceeds 1; "
                       "basis corrupted")
    return NrgState(
        iteration=m,
        energies=e[:kept],
        labels=labels,
        levels=tuple(d.eigenvalues[:c] - w.min() for d, c in zip(decs, counts)),
        op_b=tuple(lowered(j) for j in range(n)),
        op_sz=(sz, sz.T)[:n],
        op_sx=tuple(rotated(op_sx, j, j) for j in range(n)),
        ground_energy=ground_energy + float(w.min()) * cfg.Lambda ** -m,
    )


def build_initial(p: SpinBosonParams, chain: WilsonChain, cfg: NrgConfig) -> NrgState:
    """Add chain site 0 to the spin, as iterate adds every later site.

    The spin block -(delta/2) sigma_x + (epsilon/2) sigma_z couples to
    site 0 through (c0/2) sigma_z (b + b^dag), on the 2 x n_b product
    basis. At epsilon = 0 the spin is written in the sigma_x eigenbasis,
    its upper state sector -1 and its lower sector +1; otherwise it is one
    sector, labelled 0, in the sigma_z basis. This is the only place that decides
    whether a run is parity-blocked. The chain needs a site 0: chain_map
    always gives one, the decoupled chain at alpha = 0, and an empty chain
    raises ValueError. Warns when the coupling-induced displacement
    c0/eps_0 approaches what the boson basis can represent.
    """
    if chain.n_sites == 0:
        raise ValueError("chain exhausted: no site 0")
    if p.epsilon == 0:
        one = np.ones((1, 1))
        spin = ((np.array([0.5 * p.delta]), np.array([-0.5 * p.delta])),
                (one, one), (one, one), (-one, one), (-1, 1))
    else:
        spin = ((-0.5 * p.delta * _SX + 0.5 * p.epsilon * _SZ,), (_SZ,),
                (_SZ,), (_SX,), (0,))
    eps0 = float(chain.eps[0])
    c0 = float(chain.c0)
    if c0 > 0 and eps0 > 0 and c0 / eps0 > math.sqrt(cfg.n_b):
        warnings.warn(
            f"boson basis dim {cfg.n_b} may truncate the displacement "
            f"c0/eps0 = {c0 / eps0:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return _add_site(*spin, cfg, eps=eps0, hop=0.5 * c0)


def iterate(state: NrgState, chain: WilsonChain, cfg: NrgConfig,
            pool=None) -> NrgState:
    """Add the next chain site to the kept block, as site 0 was added.

    The block is Lambda diag(E_kept) and couples through the previous
    site's b_N, so in rescaled units

        H_N+1 = Lambda diag(E_kept) + Lambda^(N+1) [eps_N+1 n_hat
                + t_N (b_N^dag b_N+1 + h.c.)],

    then the new ground energy is subtracted (and accumulated unrescaled)
    so each recorded spectrum starts at exactly 0. pool, an executor or
    None, goes to _add_site for the second parity sector.
    """
    m = state.iteration + 1
    if m >= chain.n_sites:
        raise ValueError(f"chain exhausted: no site {m}")
    return _add_site(tuple(cfg.Lambda * x for x in state.levels), state.op_b,
                     state.op_sz, state.op_sx, state.labels, cfg, m,
                     float(chain.eps[m]), float(chain.t[m - 1]),
                     state.ground_energy, pool)


def _record(state: NrgState) -> FlowRecord:
    return FlowRecord(
        iteration=state.iteration,
        kept_count=state.kept,
        energies=tuple(float(x) for x in state.energies[:FLOW_LEVELS]),
    )


def _full(blocks: tuple, sizes: list[int], odd: bool) -> np.ndarray:
    """An operator's blocks as one matrix, the sectors' states in turn."""
    edges = np.cumsum([0, *sizes])
    full = np.zeros((edges[-1], edges[-1]))
    for i, block in enumerate(blocks):
        r = len(sizes) - 1 - i if odd else i
        full[edges[i]:edges[i + 1], edges[r]:edges[r + 1]] = block
    return full


def ground_spin(state: NrgState) -> tuple[float, float]:
    """Ground-state expectations (<sigma_z>, <sigma_x>).

    A degenerate ground multiplet is resolved by diagonalizing sigma_z
    inside it and reporting the member with extremal |<sigma_z>|; both
    operators are evaluated in that member. This is the state an
    infinitesimal bias selects in the localized phase. The multiplet holds
    the states within DEGENERACY_TOL (rescaled) of the ground state. In a
    parity-blocked run the localized doublet straddles the two sectors and
    stays split far beyond that window at any finite N, so the level just
    above the window joins the multiplet when it lies in the other sector
    and below DOUBLET_RATIO times the level after it. Both values are
    clipped to [-1, 1]; one beyond 1 + 1e-9 raises NrgError.
    """
    sizes = [x.size for x in state.levels]
    order = np.argsort(np.concatenate(state.levels), kind="stable")
    second = order >= sizes[0]  # the state lies in the second sector
    e = state.energies
    g = max(int(np.searchsorted(e, DEGENERACY_TOL, side="right")), 1)
    if (g + 1 < e.size and second[g] != second[0]
            and e[g] < DOUBLET_RATIO * e[g + 1]):
        g += 1
    top = np.ix_(order[:g], order[:g])
    sz, sx = (_full(blocks, sizes, odd)[top]
              for blocks, odd in ((state.op_sz, True), (state.op_sx, False)))
    if g == 1:
        spin = sz[0, 0], sx[0, 0]
    else:
        sz, sx = (0.5 * (o + o.T) for o in (sz, sx))
        dec = numerics.sym_eig(sz)
        vec = dec.vectors[:, int(np.argmax(np.abs(dec.eigenvalues)))]
        spin = vec @ sz @ vec, vec @ sx @ vec
    if (worst := max(abs(x) for x in spin)) > 1.0 + 1e-9:
        raise NrgError(f"ground-state spin {worst:.12g} exceeds 1; basis corrupted")
    return tuple(min(max(float(x), -1.0), 1.0) for x in spin)


def delta_p(sigma_z_gs: float) -> float:
    """Population difference delta_p = |<sigma_z>| / 2, in [0, 0.5]."""
    sz = float(sigma_z_gs)
    if abs(sz) > 1.0 + 1e-9:
        raise ValueError(f"|<sigma_z>| = {abs(sz)} exceeds 1")
    return min(abs(sz), 1.0) / 2.0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU the system reports."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_on_chain(p: SpinBosonParams, chain: WilsonChain, cfg: NrgConfig, *,
                 stop: threading.Event | None = None,
                 until: Callable[[FlowRecord], bool] | None = None) -> NrgResult:
    """Run the iteration on an explicit chain (also the test injection point).

    Stops after n_iter iterations or when the chain runs out of sites. Zero
    hoppings (a decoupled chain) do not stop it. Given until, the run ends
    at the first flow record that passes it, with that iteration's flow,
    sigma_z_gs, sigma_x_gs and ground_energy. Given stop, the run reads it
    before each iteration and raises RunStopped once another thread has
    set it, so a sweep can end its running points. A parity-blocked run on
    the main thread solves its second sector on one worker thread, which
    lives for this call only, when usable_cpus() is two or more. A run on
    any other thread, such as one point of a sweep's --workers pool,
    solves its sectors serially, so the sweep's threads are the only ones
    that share the CPUs.
    """
    state = build_initial(p, chain, cfg)
    records = [_record(state)]
    limit = min(cfg.n_iter, chain.n_sites)
    pool = contextlib.nullcontext()
    if (len(state.labels) == 2 and usable_cpus() >= 2
            and threading.current_thread() is threading.main_thread()):
        from concurrent.futures import ThreadPoolExecutor  # 7-11 ms to import

        pool = ThreadPoolExecutor(max_workers=1)
    with pool as sector_pool:
        for m in range(1, limit):
            if until is not None and until(records[-1]):
                break
            if stop is not None and stop.is_set():
                raise RunStopped(f"stopped before iteration {m}")
            try:
                state = iterate(state, chain, cfg, sector_pool)
            except DegeneracyError as exc:
                raise DegeneracyError(f"iteration {m}: {exc}") from None
            except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
                raise NrgError(f"iteration {m}: {exc}") from exc
            records.append(_record(state))
    sz, sx = ground_spin(state)
    return NrgResult(
        flow=NrgFlow(tuple(records), alpha=p.alpha, Lambda=cfg.Lambda),
        sigma_z_gs=sz,
        sigma_x_gs=sx,
        delta_p=delta_p(sz),
        params=p,
        config=cfg,
        chain_digest=chain.digest(),
        ground_energy=state.ground_energy,
    )


def run(p: SpinBosonParams, cfg: NrgConfig, *,
        stop: threading.Event | None = None,
        until: Callable[[FlowRecord], bool] | None = None) -> NrgResult:
    """Full pipeline: discretize, chain map, iterate, observables.

    At alpha = 0 the chain map gives the decoupled chain, so the boson
    sector is still represented and the flow has its usual shape. stop and
    until go to run_on_chain; a run ended by until reports the observables
    of its last iteration.
    """
    star = bath.discretize(p, cfg.Lambda, cfg.chain_length)
    return run_on_chain(p, bath.chain_map(star), cfg, stop=stop, until=until)
