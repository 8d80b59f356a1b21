"""Iterative diagonalization of the spin plus Wilson chain.

The spin is the first block, and every chain site, site 0 included, is
added by the same step: couple the block to the site, rediagonalize and
truncate back to n_s states. After site 0 the block is the kept
eigenstates, with energies rescaled by Lambda at each step. The
recorded flow is the rescaled spectrum Lambda^N (E - E_ground), the
quantity whose level-1 curve crossing 0.3 defines the crossover iteration
N*. Ground-state observables <sigma_z>, <sigma_x> come from operator
matrices carried through every basis change.

At zero bias H commutes with the parity P = sigma_x (-1)^(sum of boson
numbers). Every kept state then carries its eigenvalue of P, each step
builds and diagonalizes the two parity sectors apart, never the full H,
and merges their spectra before the cut, and b and sigma_z stay exactly
parity-odd, so every kept state has <sigma_z> = 0 exactly rather than up
to truncation noise. A run on the main thread with two or more CPUs
free solves the second sector on a worker thread while it solves the
first; each solve is the serial step's call on the serial step's matrix,
so the bits are the serial step's. In the localized phase the ground doublet
straddles the two sectors, and ground_spin reads its polarized member. A
biased run labels every state 0 and is the same step with one sector.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import warnings
from dataclasses import dataclass

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

# A parity-blocked ground state and the level above it, from the other
# sector, form a doublet when their splitting is below this fraction of
# the next level: 0 at the localized fixed point, 0.5 at the delocalized
# one (one boson against two).
DOUBLET_RATIO = 0.1

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

    Lambda discretization ratio, n_s kept-states target, n_b boson basis
    states per chain site, n_iter iteration count, degeneracy_tol the
    relative window that extends the truncation cut across a degenerate
    boundary multiplet, flow_levels how many levels each flow record
    stores. n_b counts basis states (occupations 0..n_b-1), so a quoted
    highest occupation n_max means n_b = n_max + 1. The bias is
    SpinBosonParams.epsilon: at epsilon = 0 the run is parity-blocked and
    ground_spin reads the polarized member of a localized ground
    doublet. n_star overrides the chain length (default 2 n_iter, floor
    n_iter + 5); it may not exceed 1 + floor(log(1/tiny) / (4 log Lambda)),
    256 at Lambda = 2, where the float64 chain map still holds.
    """

    Lambda: float = 2.0
    n_s: int = 100
    n_b: int = 6
    n_iter: int = 60
    degeneracy_tol: float = 1e-8
    flow_levels: int = 12
    n_star: int | None = None

    def __post_init__(self):
        if self.Lambda <= 1.0:
            raise ValueError("Lambda must exceed 1")
        if self.n_s < 2:
            raise ValueError("n_s must be at least 2")
        if self.n_b < 2:
            raise ValueError("n_b must be at least 2")
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")
        if not 0.0 < self.degeneracy_tol < 1e-3:
            raise ValueError("degeneracy_tol must lie in (0, 1e-3)")
        if self.flow_levels < 2:
            raise ValueError("flow_levels must be at least 2")
        if self.n_star is not None and self.n_star < self.n_iter + 5:
            raise ValueError("n_star must be at least n_iter + 5")
        if self.n_s * self.n_b > numerics.MAX_DENSE_DIM:
            raise ValueError(
                f"n_s * n_b = {self.n_s * self.n_b} exceeds the "
                f"dense-matrix limit {numerics.MAX_DENSE_DIM}"
            )
        # bath.chain_map multiplies pairs of star weights: Lambda^-4n at s = 1,
        # the steepest bath SpinBosonParams allows
        longest = 1 + int(-math.log(np.finfo(float).tiny, self.Lambda) / 4)
        if self.chain_length > longest:
            raise ValueError(
                f"n_star above {longest} takes the chain map's products of "
                "star weights, Lambda^-4n, below the float64 range"
            )

    @property
    def chain_length(self) -> int:
        return self.n_star if self.n_star is not None else max(
            2 * self.n_iter, self.n_iter + 5
        )


@dataclass
class NrgState:
    """Kept basis after some iteration.

    energies are rescaled with the ground state at exactly 0. op_b is the
    current site's boson annihilator in the kept basis; op_sz and op_sx
    are the spin operators carried along. ground_energy accumulates the
    absolute (unrescaled) ground-state energy in cutoff units. parity
    labels each kept state with its eigenvalue +-1 of
    P = sigma_x (-1)^(sum of boson numbers) when the run conserves P
    (epsilon = 0), and with 0 otherwise; op_b and op_sz then vanish
    exactly between states of equal label.
    """

    iteration: int
    energies: np.ndarray
    op_b: np.ndarray
    op_sz: np.ndarray
    op_sx: np.ndarray
    parity: np.ndarray
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
    """Per-iteration rescaled spectra plus the alpha they were run at."""

    records: tuple[FlowRecord, ...]
    alpha: float = float("nan")

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
    cut = boundary * (1.0 + cfg.degeneracy_tol)
    kept = int(np.searchsorted(energies, cut, side="right"))
    if kept > 2 * cfg.n_s:
        raise DegeneracyError(
            f"kept set {kept} exceeds 2 n_s = {2 * cfg.n_s}; "
            "raise n_s or shrink degeneracy_tol"
        )
    return kept


def _sector_h(h_block: np.ndarray, coupling: np.ndarray, parity: np.ndarray,
              label: int, n_b: int, on_site: float,
              hop: float) -> tuple[np.ndarray, np.ndarray]:
    """H on one label's (block, boson) pairs, and their flat indices.

    The pair (i, n) carries the label parity[i] (-1)^n, or 0 in a run
    without parity. Label 0 holds every pair. Otherwise block state i
    holds the levels n = s_i + 2c, where s_i is 0 if parity[i] is the
    label and 1 if not. Either way the sector is a (block, c, block, c)
    grid in the full H's (i, n) order, padded where an odd n_b leaves
    block state i a level short. The terms h_block x 1 + on_site n_hat
    + hop (coupling^T x b + coupling x b^dag) are summed into zeros
    through strided views of the grid, with the products and in the order
    of a build of the full H, so every entry has that build's bits. This
    holds because h_block links only states of equal parity and coupling
    only states of opposite parity, exactly: the terms that land on
    another term's entries are exact zeros. The padding is cut out last.
    """
    k = h_block.shape[0]
    stride = 2 if label else 1
    size = -(-n_b // stride)
    level = (parity != label)[:, None] + stride * np.arange(size)
    h = np.zeros((k, size, k, size))  # einsum "iaja->aij" views the (c, c) blocks
    np.einsum("iaja->aij", h)[...] += h_block
    np.einsum("iaia->ia", h)[...] += on_site * level
    # b^dag lifts (i, n) to (j, n + 1) with sqrt(n + 1): the level
    # n = s + stride c of the rows with s_i = s lands at c + lag
    for s in range(stride):
        lag = (s + 1) // stride
        lifted = np.where(level[:, :1] == s, coupling.T, 0.0)
        root = np.sqrt(s + stride * np.arange(size - lag) + 1.0)
        low, high = slice(0, size - lag), slice(lag, size)
        up = hop * (lifted * root[:, None, None])
        np.einsum("iaja->aij", h[:, low, :, high])[...] += up
        np.einsum("iaja->aij", h[:, high, :, low])[...] += up.transpose(0, 2, 1)
    rows = (n_b * np.arange(k)[:, None] + level).ravel()
    h = h.reshape(k * size, -1)
    if size * stride > n_b:  # an odd n_b: drop the padded levels
        real = level.ravel() < n_b
        h, rows = h[real][:, real], rows[real]
    return h, rows


def _add_site(h_block: np.ndarray, coupling: np.ndarray, op_sz: np.ndarray,
              op_sx: np.ndarray, parity: np.ndarray, cfg: NrgConfig, m: int = 0,
              eps: float = 0.0, hop: float = 0.0, ground_energy: float = 0.0,
              pool=None) -> NrgState:
    """Couple chain site m to a block, rediagonalize and truncate.

    With scale = Lambda^m, H = h_block x 1 + scale [eps (1 x n_hat)
    + hop (coupling^T x b + coupling x b^dag)]. H never links two labels
    (see _sector_h), so each label's sector is built and diagonalized
    alone, and the full H is never formed; with one label the sector is
    all of H. Given pool, an executor, the second of two sectors is built
    and solved on its thread while this one does the first; each solve
    gets the same matrix either way, so the bits do not depend on it. The
    sector spectra are merged by a stable sort, shifted to 0 (the shift
    over scale joins ground_energy) and cut by _kept_count. The kept
    vectors, exactly zero outside their sector, rotate b by a boson-index
    shift and op_sz, op_sx by one GEMM.
    """
    db = cfg.n_b
    k = h_block.shape[0]
    scale = cfg.Lambda ** m
    sectors = (-1, 1) if parity.any() else (0,)

    def solve(label):
        # h is returned to live as long as the step: freed any earlier,
        # glibc hands its pages back and the next step faults them in
        # again (in a biased run, 13 times the page faults, 17% more time)
        h, rows = _sector_h(h_block, coupling, parity, label, db, scale * eps,
                            scale * hop)
        return h, rows, numerics.sym_eig(h)

    if pool is None or len(sectors) == 1:
        solved = [solve(q) for q in sectors]
    else:
        second = pool.submit(solve, sectors[1])
        try:
            first = solve(sectors[0])
        finally:  # the step never returns with its worker busy or its error unread
            other = second.result()
        solved = [first, other]
    _, rows, decs = zip(*solved)
    sizes = [d.eigenvalues.size for d in decs]
    w = np.concatenate([d.eigenvalues for d in decs])
    order = np.argsort(w, kind="stable")
    e = w[order] - w[order[0]]
    kept = _kept_count(e, cfg)
    v = np.zeros((k * db, kept))  # each sector's kept vectors at their merged ranks
    ranks = np.split(np.argsort(order), np.cumsum(sizes)[:-1])
    for r, d, rank in zip(rows, decs, ranks):
        n = np.count_nonzero(rank < kept)  # ranks ascend: it keeps its lowest n
        v[r[:, None], rank[:n]] = d.vectors[:, :n]
    blocks = v.reshape(k, db * kept)
    op_sz, op_sx = ((o.T @ blocks).reshape(-1, kept).T @ v for o in (op_sz, op_sx))
    worst = float(np.abs(op_sz).max())
    if worst > 1.0 + 1e-9:
        raise NrgError(
            f"propagated sigma_z norm {worst:.12g} exceeds 1; basis corrupted"
        )
    root = np.sqrt(np.arange(1.0, db))
    b_v = np.pad(v.T.reshape(kept, k, db)[:, :, :-1] * root, ((0, 0), (0, 0), (1, 0)))
    return NrgState(
        iteration=m,
        energies=e[:kept],
        op_b=b_v.reshape(kept, -1) @ v,
        op_sz=op_sz,
        op_sx=op_sx,
        parity=np.repeat(sectors, sizes)[order[:kept]],
        ground_energy=ground_energy + float(w[order[0]]) * cfg.Lambda ** -m,
    )


def build_initial(p: SpinBosonParams, chain: WilsonChain, cfg: NrgConfig) -> NrgState:
    """Add chain site 0 to the spin, as iterate adds every later site.

    The spin block -(delta/2) sigma_x + (epsilon/2) sigma_z couples to
    site 0 through (c0/2) sigma_z (b + b^dag), on the 2 x n_b product
    basis. At epsilon = 0 the spin is written in the sigma_x eigenbasis,
    where each state carries its parity label (+1, -1); otherwise in the
    sigma_z basis with labels 0. This is the only place that decides
    whether a run is parity-blocked. The chain needs a site 0: chain_map
    always gives one, the decoupled chain at alpha = 0, and an empty chain
    raises ValueError. Warns when the coupling-induced displacement
    c0/eps_0 approaches what the boson basis can represent.
    """
    if chain.n_sites == 0:
        raise ValueError("chain exhausted: no site 0")
    if p.epsilon == 0:
        spin = (np.diag([-0.5 * p.delta, 0.5 * p.delta]), _SX, _SX, _SZ,
                np.array([1, -1]))
    else:
        spin = (-0.5 * p.delta * _SX + 0.5 * p.epsilon * _SZ, _SZ, _SZ, _SX,
                np.zeros(2, dtype=int))
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
    return _add_site(np.diag(cfg.Lambda * state.energies), state.op_b,
                     state.op_sz, state.op_sx, state.parity, cfg, m,
                     float(chain.eps[m]), float(chain.t[m - 1]),
                     state.ground_energy, pool)


def _record(state: NrgState, cfg: NrgConfig) -> FlowRecord:
    levels = state.energies[: cfg.flow_levels]
    return FlowRecord(
        iteration=state.iteration,
        kept_count=state.kept,
        energies=tuple(float(x) for x in levels),
    )


def ground_spin(state: NrgState, degeneracy_tol: float) -> tuple[float, float]:
    """Ground-state expectations (<sigma_z>, <sigma_x>).

    A degenerate ground multiplet is resolved by diagonalizing sigma_z
    inside it and reporting the member with extremal |<sigma_z>|; both
    operators are evaluated in that member. This is the state an
    infinitesimal bias selects in the localized phase. The multiplet holds
    the states within degeneracy_tol (rescaled) of the ground state. In a
    parity-blocked run the localized doublet straddles the two sectors and
    stays split far beyond that window at any finite N, so the level just
    above the window joins the multiplet when it lies in the other sector
    and below DOUBLET_RATIO times the level after it.
    """
    e = state.energies
    g = max(int(np.searchsorted(e, degeneracy_tol, side="right")), 1)
    if (g + 1 < e.size and state.parity[g] != state.parity[0]
            and e[g] < DOUBLET_RATIO * e[g + 1]):  # labels differ only if blocked
        g += 1
    if g == 1:
        return float(state.op_sz[0, 0]), float(state.op_sx[0, 0])
    sz, sx = (0.5 * (o[:g, :g] + o[:g, :g].T) for o in (state.op_sz, state.op_sx))
    dec = numerics.sym_eig(sz)
    vec = dec.vectors[:, int(np.argmax(np.abs(dec.eigenvalues)))]
    return float(vec @ sz @ vec), float(vec @ sx @ vec)


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
                 stop: threading.Event | None = None) -> NrgResult:
    """Run the iteration on an explicit chain (also the test injection point).

    Stops after n_iter iterations or when the chain runs out of sites. Zero
    hoppings (a decoupled chain) do not stop it. Given stop, the run reads
    it before each iteration and raises RunStopped once another thread has
    set it, so a sweep can end its running points. A parity-blocked run on
    the main thread solves its second sector on one worker thread, which
    lives for this call only, when usable_cpus() is two or more. A run on
    any other thread, such as one point of a sweep's --workers pool,
    solves its sectors serially, so the sweep's threads are the only ones
    that share the CPUs.
    """
    state = build_initial(p, chain, cfg)
    records = [_record(state, cfg)]
    limit = min(cfg.n_iter, chain.n_sites)
    pool = contextlib.nullcontext()
    if (state.parity.any() and usable_cpus() >= 2
            and threading.current_thread() is threading.main_thread()):
        from concurrent.futures import ThreadPoolExecutor  # 7-11 ms to import

        pool = ThreadPoolExecutor(max_workers=1)
    with pool as sector_pool:
        for m in range(1, limit):
            if stop is not None and stop.is_set():
                raise RunStopped(f"stopped before iteration {m}")
            try:
                state = iterate(state, chain, cfg, sector_pool)
            except DegeneracyError as exc:
                raise DegeneracyError(f"iteration {m}: {exc}") from None
            except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
                raise NrgError(f"iteration {m}: {exc}") from exc
            records.append(_record(state, cfg))
    sz, sx = ground_spin(state, cfg.degeneracy_tol)
    return NrgResult(
        flow=NrgFlow(records=tuple(records), alpha=p.alpha),
        sigma_z_gs=sz,
        sigma_x_gs=sx,
        delta_p=delta_p(sz),
        params=p,
        config=cfg,
        chain_digest=chain.digest(),
        ground_energy=state.ground_energy,
    )


def run(p: SpinBosonParams, cfg: NrgConfig, *,
        stop: threading.Event | None = None) -> NrgResult:
    """Full pipeline: discretize, chain map, iterate, observables.

    At alpha = 0 the chain map gives the decoupled chain, so the boson
    sector is still represented and the flow has its usual shape. stop
    goes to run_on_chain.
    """
    star = bath.discretize(p, cfg.Lambda, cfg.chain_length)
    return run_on_chain(p, bath.chain_map(star), cfg, stop=stop)
