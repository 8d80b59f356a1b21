import math
import os
import threading
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbnrg import nrg, numerics
from sbnrg.bath import StarBath, WilsonChain, chain_map, discretize
from sbnrg.circuit import SpinBosonParams
from sbnrg.criticality import classify_phase, extract_nstar
from sbnrg.nrg import (
    DegeneracyError,
    NrgConfig,
    RunStopped,
    NrgState,
    build_initial,
    delta_p,
    ground_spin,
    iterate,
    run,
    run_on_chain,
)

from conftest import CRITICAL_PAYLOAD
from oracle import EdProblem, exact_diag

CRITICAL_DELTA = CRITICAL_PAYLOAD["model"]["delta"]
CRITICAL_NRG = NrgConfig(**CRITICAL_PAYLOAD["nrg"])
CRITICAL_ALPHAS = CRITICAL_PAYLOAD["sweep"]["grid"]["values"]


def assert_same_state(a, b):
    """Two NrgStates with the same bits in every array and number."""
    assert (a.iteration, a.labels, a.ground_energy) == (
        b.iteration, b.labels, b.ground_energy)
    for name in ("energies", "levels", "op_b", "op_sz", "op_sx"):
        xs, ys = getattr(a, name), getattr(b, name)
        if name == "energies":
            xs, ys = (xs,), (ys,)
        assert len(xs) == len(ys), name
        for x, y in zip(xs, ys):
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def one_sector(state):
    """The state as one sector labelled 0, assembled from its blocks.

    Its states take the order of state.energies.
    """
    sizes = [x.size for x in state.levels]
    order = np.argsort(np.concatenate(state.levels), kind="stable")
    pick = np.ix_(order, order)

    def full(blocks, odd):
        return (nrg._full(blocks, sizes, odd)[pick],)

    return NrgState(iteration=state.iteration, energies=state.energies,
                    labels=(0,), levels=(state.energies,),
                    op_b=full(state.op_b, True), op_sz=full(state.op_sz, True),
                    op_sx=full(state.op_sx, False),
                    ground_energy=state.ground_energy)


class TestNrgConfig:
    def test_defaults(self):
        cfg = NrgConfig()
        assert cfg.Lambda == 2.0 and cfg.n_s == 100 and cfg.n_b == 6
        assert cfg.chain_length == 120

    def test_chain_length_floor(self):
        assert NrgConfig(n_iter=3).chain_length == 8
        assert NrgConfig(n_iter=30).chain_length == 60
        assert NrgConfig(n_iter=30, n_star=40).chain_length == 40

    @pytest.mark.parametrize("kwargs", [
        {"Lambda": 1.0},
        {"n_s": 1},
        {"n_b": 1},
        {"n_iter": 0},
        {"n_iter": 30, "n_star": 34},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NrgConfig(**kwargs)

    @pytest.mark.parametrize("Lambda", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lambda(self, Lambda):
        # checked first: NaN would reach int() and inf the chain-length bound
        with pytest.raises(ValueError, match="Lambda must be finite"):
            NrgConfig(Lambda=Lambda)

    @pytest.mark.parametrize("n_star", [200000, 10**23])
    def test_rejects_underflowing_chain(self, n_star):
        # validation only: products of star weights, Lambda^-4n, leave the
        # float64 range past 256 sites at Lambda = 2 and 128 at Lambda = 4
        reason = "products of star weights"
        with pytest.raises(ValueError, match=reason):
            NrgConfig(n_star=n_star)
        assert NrgConfig(n_star=256).chain_length == 256
        with pytest.raises(ValueError, match=f"n_star above 256 .*{reason}"):
            NrgConfig(n_star=257)
        assert NrgConfig(Lambda=4.0, n_star=128).chain_length == 128
        with pytest.raises(ValueError, match=f"n_star above 128 .*{reason}"):
            NrgConfig(Lambda=4.0, n_star=129)

    def test_rejects_oversized_dense_problem(self):
        # validation only: never run a config this large
        with pytest.raises(ValueError, match="8192"):
            NrgConfig(n_s=10000, n_b=50)
        with pytest.raises(ValueError, match="8192"):
            NrgConfig(n_s=1366, n_b=6)
        assert NrgConfig(n_s=300, n_b=12).n_s == 300

    def test_dense_limit_is_read_from_numerics(self, monkeypatch):
        assert NrgConfig(n_s=1024, n_b=8).n_s * 8 == numerics.MAX_DENSE_DIM
        monkeypatch.setattr(numerics, "MAX_DENSE_DIM", 100)
        with pytest.raises(ValueError, match="limit 100"):
            NrgConfig(n_s=20, n_b=6)


class TestDecoupledLimit:
    """alpha = 0 is exactly solvable: free spin plus free chain."""

    def test_exact_spectral_content(self):
        p = SpinBosonParams(delta=0.01, alpha=0.0)
        r = run(p, NrgConfig(n_s=80, n_b=4, n_iter=10))
        assert len(r.flow.records) == 10
        assert r.ground_energy == pytest.approx(-0.005, abs=1e-15)
        # rescaled spin gap Lambda^n delta shows up exactly at each n
        for it in (4, 5, 6):
            rec = r.flow.records[it]
            target = 2.0 ** it * 0.01
            assert min(abs(e - target) for e in rec.energies) < 1e-13

    def test_spin_observables(self):
        r = run(SpinBosonParams(delta=0.01, alpha=0.0),
                NrgConfig(n_s=80, n_b=4, n_iter=10))
        assert abs(r.sigma_z_gs) < 1e-12
        assert r.sigma_x_gs == pytest.approx(1.0, abs=1e-10)
        assert r.delta_p < 1e-12

    def test_boson_ladder_present(self):
        # the lowest boson excitation sits at the band edge of the records
        r = run(SpinBosonParams(delta=0.01, alpha=0.0),
                NrgConfig(n_s=80, n_b=4, n_iter=10))
        xi0 = (2.0 / 3.0) * (1.0 - 2.0 ** -3) / (1.0 - 2.0 ** -2)
        rec = r.flow.records[9]
        assert min(abs(e - xi0) for e in rec.energies) < 1e-12


class TestAgainstExactDiagonalization:
    """A two-mode star solved through the chain path must match the dense
    oracle: the chain map is a similarity transform, so only the Fock
    truncation differs, negligible at weak coupling."""

    MODES = ((0.6, 0.05), (0.15, 0.02))

    def setup_method(self):
        star = StarBath(xi=np.array([0.6, 0.15]),
                        gamma=np.array([0.05, 0.02]))
        self.chain = chain_map(star)
        self.p = SpinBosonParams(delta=0.2, epsilon=0.05, alpha=0.1)
        self.cfg = NrgConfig(n_s=300, n_b=12, n_iter=2)
        self.res = run_on_chain(self.p, self.chain, self.cfg)
        self.oracle = exact_diag(
            EdProblem(delta=0.2, epsilon=0.05, modes=self.MODES, n_max=11),
            check_convergence=False,
        )

    def test_ground_energy(self):
        assert self.res.ground_energy == pytest.approx(
            self.oracle.ground_energy, abs=1e-12
        )

    def test_gap(self):
        last = self.res.flow.records[-1]
        gap = last.energies[1] / 2.0 ** last.iteration
        assert gap == pytest.approx(self.oracle.gap, abs=1e-12)

    def test_spin_observables(self):
        assert self.res.sigma_z_gs == pytest.approx(self.oracle.sigma_z,
                                                    abs=1e-12)
        assert self.res.sigma_x_gs == pytest.approx(self.oracle.sigma_x,
                                                    abs=1e-12)

    def test_unbiased_run_matches_oracle(self):
        # at epsilon = 0 the run is parity-blocked; the oracle is not
        res = run_on_chain(SpinBosonParams(delta=0.2, alpha=0.1), self.chain,
                           self.cfg)
        oracle = exact_diag(
            EdProblem(delta=0.2, epsilon=0.0, modes=self.MODES, n_max=11),
            check_convergence=False,
        )
        last = res.flow.records[-1]
        assert res.ground_energy == pytest.approx(oracle.ground_energy,
                                                  abs=1e-12)
        assert last.energies[1] / 2.0 ** last.iteration == pytest.approx(
            oracle.gap, abs=1e-12)
        assert res.sigma_z_gs == 0.0 and abs(oracle.sigma_z) < 1e-12
        assert res.sigma_x_gs == pytest.approx(oracle.sigma_x, abs=1e-12)

    def test_low_spectrum(self):
        # rebuild the dense star Hamiltonian independently and compare the
        # lowest recorded levels after undoing the rescaling
        db = 12
        lad = np.diag(np.sqrt(np.arange(1.0, db)), 1)
        nh = np.diag(np.arange(db, dtype=float))
        ib = np.eye(db)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        dimb = db ** 2
        h = -0.1 * np.kron(sx, np.eye(dimb)) + 0.025 * np.kron(sz, np.eye(dimb))
        for site, (w, g) in enumerate(self.MODES):
            op_n = np.kron(nh, ib) if site == 0 else np.kron(ib, nh)
            x = lad + lad.T
            op_x = np.kron(x, ib) if site == 0 else np.kron(ib, x)
            h += w * np.kron(np.eye(2), op_n) + 0.5 * g * np.kron(sz, op_x)
        ev = np.linalg.eigvalsh(h)
        last = self.res.flow.records[-1]
        got = self.res.ground_energy + np.array(last.energies) / 2.0 ** last.iteration
        npt.assert_allclose(got, ev[: len(got)], atol=1e-12)


class TestPhases:
    def test_strong_coupling_localizes(self):
        # deep in the localized phase a tiny bias pins the spin
        r = run(SpinBosonParams(delta=0.1, epsilon=1e-6, alpha=1.5),
                NrgConfig(n_s=100, n_b=6, n_iter=20))
        assert r.delta_p > 0.45
        assert r.sigma_z_gs < -0.9

    def test_unbiased_run_keeps_parity(self):
        # without any bias <sigma_z> vanishes exactly: sigma_z has no block
        # inside a sector
        r = run(SpinBosonParams(delta=0.1, alpha=0.5),
                NrgConfig(n_s=100, n_b=6, n_iter=20))
        assert r.sigma_z_gs == 0.0
        assert r.delta_p == 0.0
        assert r.sigma_x_gs > 0.1

    @pytest.mark.parametrize("alpha,cfg", [
        *((a, CRITICAL_NRG) for a in CRITICAL_ALPHAS),
        (0.75, NrgConfig()),  # production defaults
    ])
    def test_unbiased_critical_run_keeps_parity(self, alpha, cfg):
        # the same at the tiny tunnelling of the critical scans
        r = run(SpinBosonParams(delta=CRITICAL_DELTA, alpha=alpha), cfg)
        assert r.sigma_z_gs == 0.0
        assert r.delta_p == 0.0
        assert r.sigma_x_gs > 0.0

    def test_unbiased_localized_cut_keeps_doublets(self):
        # each localized level is a doublet split across the two parity
        # sectors; the merged cut never separates its members
        p = SpinBosonParams(delta=0.1, alpha=1.5)
        cfg = NrgConfig(n_s=100, n_b=6, n_iter=20)
        chain = chain_map(discretize(p, cfg.Lambda, cfg.chain_length))
        state = build_initial(p, chain, cfg)
        for _ in range(1, cfg.n_iter):
            state = iterate(state, chain, cfg)
            assert state.labels == (-1, 1)
            down, up = state.levels
            assert up.size == down.size
        assert np.abs(up - down).max() < np.diff(up).min()  # paired
        # the doublet is split by 5.6e-4 at N = 19, far beyond the default
        # window; its cross-sector pair still reads as the polarized member
        assert state.energies[1] > 1e-4
        sz, _ = ground_spin(state)
        assert abs(sz) > 0.9
        assert classify_phase(delta_p(sz)) == "localized"

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_blocked_flow_matches_one_sector_flow(self, alpha):
        # the reference runs the same unbiased chain in one sector labelled
        # 0, assembled from the blocked state's blocks, so each step
        # diagonalizes the full space
        p = SpinBosonParams(delta=0.1, alpha=alpha)
        cfg = NrgConfig(n_s=100, n_b=6, n_iter=20)
        chain = chain_map(discretize(p, cfg.Lambda, cfg.chain_length))
        blocked = build_initial(p, chain, cfg)
        full = one_sector(blocked)
        for _ in range(1, cfg.n_iter):
            blocked, full = iterate(blocked, chain, cfg), iterate(full, chain, cfg)
            assert full.labels == (0,) and blocked.labels == (-1, 1)
            npt.assert_allclose(blocked.energies, full.energies, rtol=0,
                                atol=1e-10)

    @pytest.mark.parametrize("alpha,rel", [(0.0, 1e-12), (0.2, 1e-4),
                                           (0.5, 1e-4)])
    def test_sigma_x_is_the_ground_energy_slope(self, alpha, rel):
        # Hellmann-Feynman: H holds -(delta/2) sigma_x, so <sigma_x> =
        # -2 dE0/d(delta). The carried sigma_x blocks against a central
        # difference of the ground energy, two independent routes; the
        # truncation leaves them 4.6e-5 apart at most, and the free spin
        # at alpha = 0 8.4e-14
        delta = 1e-3
        step = 1e-3 * delta
        cfg = NrgConfig(n_s=120, n_b=6, n_iter=40)
        res = {d: run(SpinBosonParams(delta=d, alpha=alpha), cfg)
               for d in (delta - step, delta, delta + step)}
        slope = (res[delta + step].ground_energy
                 - res[delta - step].ground_energy) / (2.0 * step)
        assert res[delta].sigma_x_gs == pytest.approx(-2.0 * slope, rel=rel,
                                                      abs=0.0)

    def test_chain_noise_does_not_move_nstar(self):
        # the alpha = 0.85 point of the sbnrg critical config, on chains
        # perturbed in their last bits
        p = SpinBosonParams(delta=CRITICAL_DELTA, alpha=CRITICAL_ALPHAS[-1])
        cfg = CRITICAL_NRG
        chain = chain_map(discretize(p, cfg.Lambda, cfg.chain_length))
        n_star = extract_nstar(run_on_chain(p, chain, cfg).flow).n_star
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)

            def jitter(x):
                return x * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, np.shape(x)))

            noisy = WilsonChain(c0=float(jitter(chain.c0)),
                                eps=jitter(chain.eps), t=jitter(chain.t))
            assert noisy.digest() != chain.digest()
            moved = extract_nstar(run_on_chain(p, noisy, cfg).flow).n_star
            assert moved == pytest.approx(n_star, abs=1e-6)

    def test_bias_selects_branch(self):
        up = run(SpinBosonParams(delta=0.1, epsilon=0.01, alpha=0.3),
                 NrgConfig(n_s=60, n_b=5, n_iter=12))
        dn = run(SpinBosonParams(delta=0.1, epsilon=-0.01, alpha=0.3),
                 NrgConfig(n_s=60, n_b=5, n_iter=12))
        assert up.sigma_z_gs < 0 < dn.sigma_z_gs
        assert up.sigma_z_gs == pytest.approx(-dn.sigma_z_gs, rel=1e-9)
        assert up.delta_p == pytest.approx(dn.delta_p, rel=1e-9)

    def test_truncation_insensitive(self):
        p = SpinBosonParams(delta=0.01, epsilon=1e-4, alpha=0.5)
        lean = run(p, NrgConfig(n_s=60, n_b=6, n_iter=25))
        rich = run(p, NrgConfig(n_s=120, n_b=6, n_iter=25))
        assert abs(lean.delta_p - rich.delta_p) < 1.5e-3


class TestMechanics:
    def test_result_provenance(self):
        star = StarBath(xi=np.array([0.5, 0.25]), gamma=np.array([0.1, 0.05]))
        chain = chain_map(star)
        p = SpinBosonParams(delta=0.1, alpha=0.2)
        cfg = NrgConfig(n_s=40, n_b=4, n_iter=2)
        r = run_on_chain(p, chain, cfg)
        assert r.chain_digest == chain.digest()
        assert r.params is p
        assert r.config is cfg
        assert r.flow.alpha == 0.2

    def test_flow_record_shape(self):
        # site 0 keeps 2 n_b = 8 states, fewer than FLOW_LEVELS; later
        # iterations keep n_s = 30, more
        r = run(SpinBosonParams(delta=0.05, alpha=0.3),
                NrgConfig(n_s=30, n_b=4, n_iter=8))
        assert [rec.iteration for rec in r.flow.records] == list(range(8))
        for rec in r.flow.records:
            assert len(rec.energies) == min(rec.kept_count, nrg.FLOW_LEVELS)
            assert rec.energies[0] == 0.0
            assert all(a <= b for a, b in zip(rec.energies, rec.energies[1:]))
            assert rec.kept_count >= len(rec.energies)

    def test_level_series(self):
        r = run(SpinBosonParams(delta=0.05, alpha=0.3),
                NrgConfig(n_s=30, n_b=4, n_iter=8))
        its, vals = r.flow.level_series(1)
        assert its.tolist() == list(range(8))
        assert vals.shape == (8,)
        npt.assert_array_equal(
            vals, [rec.energies[1] for rec in r.flow.records]
        )

    @pytest.mark.parametrize("epsilon,cpus,on_main,pools", [
        (0.0, {0, 1}, True, 1),
        (0.0, {0}, True, 0),
        (0.0, {0, 1}, False, 0),
        (1e-3, {0, 1}, True, 0),
        (0.0, None, True, 1),
    ], ids=["two-cpus", "one-cpu", "sweep-thread", "biased", "no-affinity"])
    def test_sector_thread_needs_two_sectors_and_two_cpus(
            self, monkeypatch, epsilon, cpus, on_main, pools):
        # the run starts its sector thread only on the main thread and where
        # it pays, and no step moves a bit with it; cpus None is a platform
        # without sched_getaffinity and two CPUs
        import concurrent.futures

        sweep_pool = concurrent.futures.ThreadPoolExecutor
        p = SpinBosonParams(delta=0.05, alpha=0.6, epsilon=epsilon)
        cfg = NrgConfig(n_s=30, n_b=4, n_iter=8)
        chain = chain_map(discretize(p, cfg.Lambda, cfg.chain_length))
        step = nrg.iterate

        def states():
            seen = []

            def recorded(*args):
                seen.append(step(*args))
                return seen[-1]

            monkeypatch.setattr(nrg, "iterate", recorded)
            run_on_chain(p, chain, cfg)
            return seen

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = states()
        built = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        if on_main:
            got = states()
        else:
            with sweep_pool(max_workers=1) as sweep:
                got = sweep.submit(states).result(timeout=300)
        assert len(built) == pools
        assert len(got) == len(serial) == cfg.n_iter - 1
        for a, b in zip(got, serial):
            assert_same_state(a, b)

    @pytest.mark.parametrize("epsilon,solves,n3", [
        (0.0, 2, 2600320), (1e-3, 1, 10401280)], ids=["two-sectors", "biased"])
    def test_benchmark_seams_see_every_call(self, monkeypatch, epsilon, solves,
                                            n3):
        # the benchmark times a run by replacing numerics.sym_eig,
        # nrg.build_initial and nrg.iterate, so every call goes through
        # them: one solve per sector and site, of the dimensions whose
        # dim^3 sum its numerics.sym_eig_n3 records
        dims, calls = [], {"build_initial": 0, "iterate": 0}
        sym_eig = numerics.sym_eig

        def counted(name):
            step = getattr(nrg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return step(*args, **kwargs)
            return call

        monkeypatch.setattr(numerics, "sym_eig",
                            lambda a: dims.append(len(a)) or sym_eig(a))
        for name in calls:
            monkeypatch.setattr(nrg, name, counted(name))
        cfg = NrgConfig(n_s=30, n_b=4, n_iter=8)
        run(SpinBosonParams(delta=0.05, alpha=0.6, epsilon=epsilon), cfg)
        assert calls == {"build_initial": 1, "iterate": cfg.n_iter - 1}
        # ground_spin solves once more when the ground state is a multiplet
        assert solves * cfg.n_iter <= len(dims) <= solves * cfg.n_iter + 1
        assert sum(d ** 3 for d in dims[:solves * cfg.n_iter]) == n3

    def test_until_ends_the_run_at_the_record_it_passes(self):
        # k + 1 records with the bits of a full run's first k + 1, and the
        # observables of a run whose last iteration is k
        p = SpinBosonParams(delta=0.05, alpha=0.6)
        cfg = NrgConfig(n_s=30, n_b=4, n_iter=8)
        chain = chain_map(discretize(p, cfg.Lambda, cfg.chain_length))
        full = run_on_chain(p, chain, cfg)

        def bits(records):
            return [(r.iteration, r.kept_count, np.array(r.energies).tobytes())
                    for r in records]

        for k in (0, 3, cfg.n_iter - 1):
            ended = run_on_chain(p, chain, cfg,
                                 until=lambda rec, k=k: rec.iteration == k)
            short = run_on_chain(p, chain, replace(cfg, n_iter=k + 1))
            assert bits(ended.flow.records) == bits(full.flow.records[:k + 1])
            assert bits(ended.flow.records) == bits(short.flow.records)
            assert (ended.sigma_z_gs, ended.sigma_x_gs, ended.ground_energy) == (
                short.sigma_z_gs, short.sigma_x_gs, short.ground_energy)
        for until in (None, lambda rec: False):
            again = run_on_chain(p, chain, cfg, until=until)
            assert bits(again.flow.records) == bits(full.flow.records)
            assert again.ground_energy == full.ground_energy

    def test_stop_still_raises_beside_until(self):
        stop = threading.Event()
        stop.set()
        with pytest.raises(RunStopped, match="before iteration 1"):
            run(SpinBosonParams(delta=0.05, alpha=0.3),
                NrgConfig(n_s=30, n_b=4, n_iter=8), stop=stop,
                until=lambda rec: rec.iteration == 5)

    def test_usable_cpus_without_affinity(self, monkeypatch):
        # a platform without sched_getaffinity (macOS) counts every CPU
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert nrg.usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert nrg.usable_cpus() == 1

    def test_tiny_hoppings_run_every_iteration(self):
        # at Lambda = 4 the hopping reaches 1e-30 near site 50 of 60
        r = run(SpinBosonParams(delta=1e-3, epsilon=1e-6, alpha=0.3),
                NrgConfig(Lambda=4.0, n_s=60, n_b=5))
        assert len(r.flow.records) == 60

    def test_zero_hopping_is_not_underflow(self):
        chain = WilsonChain(c0=0.0, eps=np.array([0.5, 0.4, 0.3]),
                            t=np.zeros(2))
        r = run_on_chain(SpinBosonParams(delta=0.05, alpha=0.0), chain,
                         NrgConfig(n_s=30, n_b=4, n_iter=3))
        assert len(r.flow.records) == 3

    def test_chain_exhaustion_guard(self):
        chain = WilsonChain(c0=0.1, eps=np.array([0.5]), t=np.empty(0))
        cfg = NrgConfig(n_s=30, n_b=4, n_iter=1)
        state = build_initial(SpinBosonParams(delta=0.05, alpha=0.1),
                              chain, cfg)
        with pytest.raises(ValueError, match="exhausted"):
            iterate(state, chain, cfg)

    def test_empty_chain_is_rejected(self):
        # chain_map always gives a site 0; a chain built without one is an error
        empty = WilsonChain(c0=0.0, eps=np.empty(0), t=np.empty(0))
        cfg = NrgConfig(n_s=10, n_b=4, n_iter=1)
        for alpha in (0.0, 0.2):
            with pytest.raises(ValueError, match="no site 0"):
                build_initial(SpinBosonParams(delta=0.1, alpha=alpha), empty,
                              cfg)

    @pytest.mark.parametrize("delta,epsilon",
                             [(0.1, 0.05), (0.2, -0.03), (0.1, 0.0)])
    def test_empty_chain_is_the_bare_spin(self, delta, epsilon):
        # H = -(delta/2) sigma_x + (epsilon/2) sigma_z has levels -+ r/2; at
        # alpha = 0 the chain is decoupled and site 0 only adds its boson
        # levels n xi_0, all above r
        p = SpinBosonParams(delta=delta, epsilon=epsilon, alpha=0.0)
        cfg = NrgConfig(n_s=10, n_b=4, n_iter=1)
        chain = chain_map(discretize(p, cfg.Lambda, cfg.chain_length))
        state = build_initial(p, chain, cfg)
        r = np.hypot(delta, epsilon)
        assert state.kept == 2 * cfg.n_b
        assert state.energies[2] == pytest.approx(chain.eps[0], abs=1e-14)
        sz, sx = ground_spin(state)
        assert sz == pytest.approx(-epsilon / r, abs=1e-14)
        assert sx == pytest.approx(delta / r, abs=1e-14)
        assert state.ground_energy == pytest.approx(-r / 2, abs=1e-14)
        assert state.energies[1] == pytest.approx(r, abs=1e-14)

    def test_displacement_warning(self):
        chain = WilsonChain(c0=10.0, eps=np.array([1.0, 0.5]),
                            t=np.array([0.1]))
        with pytest.warns(RuntimeWarning, match="boson basis"):
            build_initial(SpinBosonParams(delta=0.1, alpha=0.5), chain,
                          NrgConfig(n_s=30, n_b=4, n_iter=2))

    def test_pathological_degeneracy_detected(self):
        chain = WilsonChain(c0=0.0, eps=np.zeros(2), t=np.zeros(1))
        with pytest.raises(DegeneracyError):
            build_initial(SpinBosonParams(delta=0.0, alpha=0.0), chain,
                          NrgConfig(n_s=2, n_b=4, n_iter=2))

    @staticmethod
    def assembled(blocks, coupling, op_sz, op_sx, labels):
        """An _add_site block as full matrices over its states, sector by
        sector: H, the coupling, sigma_z, sigma_x and each state's label."""
        sizes = [b.shape[0] for b in blocks]
        h = tuple(np.diag(b) if b.ndim == 1 else b for b in blocks)
        return (nrg._full(h, sizes, False), nrg._full(coupling, sizes, True),
                nrg._full(op_sz, sizes, True), nrg._full(op_sx, sizes, False),
                np.repeat(labels, sizes))

    @classmethod
    def dense_add_site(cls, blocks, coupling, op_sz, op_sx, labels, cfg, m,
                       eps, hop):
        """The site step on kron-built matrices, as the reference.

        Each label's sector is the full H restricted to the (state, n)
        pairs of that label. Gives the merged kept energies, each sector's
        kept energies and kept vectors on the full basis, and b, sigma_z,
        sigma_x on the full basis.
        """
        h_block, coupling, op_sz, op_sx, label = cls.assembled(
            blocks, coupling, op_sz, op_sx, labels)
        n_b = cfg.n_b
        b = np.diag(np.sqrt(np.arange(1.0, n_b)), 1)
        eye_b, eye_k = np.eye(n_b), np.eye(h_block.shape[0])
        scale = cfg.Lambda ** m
        h = (np.kron(h_block, eye_b)
             + (scale * eps) * np.kron(eye_k, np.diag(np.arange(n_b, dtype=float)))
             + (scale * hop) * (np.kron(coupling.T, b) + np.kron(coupling, b.T)))
        pair = np.multiply.outer(label, (-1) ** np.arange(n_b)).ravel()
        rows = [np.flatnonzero(pair == q) for q in labels]
        decs = [numerics.sym_eig(h[np.ix_(r, r)]) for r in rows]
        w = np.concatenate([d.eigenvalues for d in decs])
        order = np.argsort(w, kind="stable")
        e = w[order] - w[order[0]]
        kept = nrg._kept_count(e, cfg)
        sector = np.repeat(np.arange(len(labels)), [r.size for r in rows])
        counts = np.bincount(sector[order[:kept]], minlength=len(labels))
        vectors = []
        for r, d, c in zip(rows, decs, counts):
            v = np.zeros((h.shape[0], c))
            v[r] = d.vectors[:, :c]
            vectors.append(v)
        levels = [d.eigenvalues[:c] - w[order[0]] for d, c in zip(decs, counts)]
        return (e[:kept], levels, vectors,
                (np.kron(eye_k, b), np.kron(op_sz, eye_b), np.kron(op_sx, eye_b)))

    @staticmethod
    def site_step_args(block, bias, eps, cfg, n_b):
        """_add_site arguments for site 0 or site 2, biased or not.

        The block comes from cfg and the site holds n_b boson states.
        """
        site_cfg = replace(cfg, n_b=n_b)
        if block == "spin":  # site 0: the spin block, as build_initial
            sx = np.array([[0.0, 1.0], [1.0, 0.0]])
            sz = np.array([[1.0, 0.0], [0.0, -1.0]])
            if bias:
                return ((-0.05 * sx + bias * sz,), (sz,), (sz,), (sx,), (0,),
                        site_cfg, 0, eps, 0.3)
            one = np.ones((1, 1))
            return ((np.array([0.05]), np.array([-0.05])), (one, one),
                    (one, one), (-one, one), (-1, 1), site_cfg, 0, eps, 0.3)
        # a later site: diagonal block of ~20 kept states
        chain = WilsonChain(c0=0.4, eps=np.array([0.6, 0.3, 0.15]),
                            t=np.array([0.2, 0.1]))
        st1 = iterate(build_initial(
            SpinBosonParams(delta=0.05, epsilon=bias, alpha=0.3), chain,
            cfg), chain, cfg)
        assert 20 <= st1.kept <= 24
        return (tuple(cfg.Lambda * x for x in st1.levels), st1.op_b,
                st1.op_sz, st1.op_sx, st1.labels, site_cfg, 2, eps, 0.1)

    @pytest.mark.parametrize("n_b", [2, 6])
    @pytest.mark.parametrize("eps", [0.0, 0.37])
    @pytest.mark.parametrize("block", ["spin", "kept"])
    def test_site_step_matches_kron_reference(self, block, eps, n_b):
        # with a bias there is one sector, and the step is the reference's
        cfg = NrgConfig(Lambda=2.0, n_s=20, n_b=4, n_iter=4)
        args = self.site_step_args(block, 0.01, eps, cfg, n_b)
        got = nrg._add_site(*args)
        e, _, (v,), (op_b, op_sz, op_sx) = self.dense_add_site(*args)
        assert got.labels == (0,)
        npt.assert_array_equal(got.energies, e)
        npt.assert_array_equal(got.levels[0], e)
        npt.assert_array_equal(got.op_b[0], v.T @ op_b @ v)
        npt.assert_allclose(got.op_sz[0], v.T @ op_sz @ v, rtol=0, atol=1e-13)
        npt.assert_allclose(got.op_sx[0], v.T @ op_sx @ v, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_b", [2, 5, 6])
    @pytest.mark.parametrize("block,eps", [
        ("spin", 0.37), ("kept", 0.0), ("kept", 0.37)])
    def test_blocked_site_step_matches_kron_reference(self, block, eps, n_b):
        # without a bias each sector's kept energies and operator blocks are
        # the dense reference's restricted to that sector, odd n_b (halves
        # of unequal size) included. (Site 0 at eps = 0 has degenerate
        # levels in opposite sectors, whose vectors are the solver's
        # choice, so it is left out.)
        cfg = NrgConfig(Lambda=2.0, n_s=20, n_b=4, n_iter=4)
        args = self.site_step_args(block, 0.0, eps, cfg, n_b)
        got = nrg._add_site(*args)
        e, levels, v, (op_b, op_sz, op_sx) = self.dense_add_site(*args)
        assert got.labels == (-1, 1)
        npt.assert_allclose(got.energies, e, rtol=0, atol=1e-13)
        for j, r in ((0, 1), (1, 0)):
            npt.assert_allclose(got.levels[j], levels[j], rtol=0, atol=1e-13)
            for ours, ref in ((got.op_b[j], v[j].T @ op_b @ v[r]),
                              (got.op_sz[j], v[j].T @ op_sz @ v[r]),
                              (got.op_sx[j], v[j].T @ op_sx @ v[j])):
                assert ours.shape == ref.shape
                npt.assert_allclose(ours, ref, rtol=0, atol=1e-13)
        npt.assert_array_equal(got.op_sz[1], got.op_sz[0].T)

    @pytest.mark.parametrize("n_b", [2, 3, 6, 7])
    @pytest.mark.parametrize("bias", [0.01, 0.0], ids=["one-label", "two-labels"])
    @pytest.mark.parametrize("block", ["spin", "kept"])
    def test_sector_h_has_the_full_h_bits(self, block, bias, n_b):
        # each sector, built on its own, is the gathered block of the full H
        # bit for bit, in its halves' (state, n) order, odd n_b (halves of
        # unequal size) included
        cfg = NrgConfig(Lambda=2.0, n_s=20, n_b=4, n_iter=4)
        blocks, coupling, op_sz, op_sx, labels, site_cfg, m, eps, hop = (
            self.site_step_args(block, bias, 0.37, cfg, n_b))
        scale = site_cfg.Lambda ** m
        on_site, hop = scale * eps, scale * hop
        h_block, full_coupling, _, _, label = self.assembled(
            blocks, coupling, op_sz, op_sx, labels)
        # the full H as the step once built it, in the (state, n) order
        k = h_block.shape[0]
        root = np.sqrt(np.arange(1.0, n_b))
        ref = np.zeros((k, n_b, k, n_b))
        np.einsum("iaja->aij", ref)[...] += h_block
        np.einsum("iaia->ia", ref)[...] += on_site * np.arange(n_b)
        up = hop * (full_coupling.T * root[:, None, None])
        np.einsum("iaja->aij", ref[:, :-1, :, 1:])[...] += up
        np.einsum("iaja->aij", ref[:, 1:, :, :-1])[...] += up.transpose(0, 2, 1)
        ref = ref.reshape(k * n_b, -1)
        pair = np.multiply.outer(label, (-1) ** np.arange(n_b)).ravel()
        first = np.cumsum([0] + [b.shape[0] for b in blocks])
        assert labels == ((0,) if bias else (-1, 1))
        for j, q in enumerate(labels):
            got, levels, _ = nrg._sector_h(blocks, coupling, j, n_b, on_site,
                                           hop)
            rows = np.concatenate([
                (n_b * np.arange(first[i], first[i + 1])[:, None] + lv).ravel()
                for i, lv in enumerate(levels)])
            npt.assert_array_equal(np.sort(rows), np.flatnonzero(pair == q))
            assert got.shape == (rows.size, rows.size)
            assert got.tobytes() == ref[np.ix_(rows, rows)].tobytes()

    def test_pooled_step_matches_serial_step(self):
        # the second sector solved on a worker thread gives the same bits
        from concurrent.futures import ThreadPoolExecutor

        cfg = NrgConfig(Lambda=2.0, n_s=40, n_b=6, n_iter=8)
        p = SpinBosonParams(delta=0.05, alpha=0.6)
        chain = chain_map(discretize(p, cfg.Lambda, cfg.chain_length))
        state = build_initial(p, chain, cfg)
        with ThreadPoolExecutor(max_workers=1) as pool:
            for _ in range(1, cfg.n_iter):
                pooled = iterate(state, chain, cfg, pool)
                serial = iterate(state, chain, cfg)
                assert serial.labels == (-1, 1)
                assert_same_state(pooled, serial)
                state = serial

    @settings(max_examples=15)
    @given(st.floats(0.0, 0.8), st.floats(1e-3, 0.2))
    def test_flow_invariants(self, alpha, delta):
        r = run(SpinBosonParams(delta=delta, alpha=alpha),
                NrgConfig(Lambda=2.5, n_s=20, n_b=3, n_iter=6, n_star=11))
        for rec in r.flow.records:
            assert rec.energies[0] == 0.0
            assert all(a <= b for a, b in zip(rec.energies, rec.energies[1:]))
            assert rec.kept_count <= 2 * 20
        assert 0.0 <= r.delta_p <= 0.5


class TestGroundObservable:
    @staticmethod
    def state(energies, sz, sx):
        """A state of one sector labelled 0."""
        e = np.asarray(energies, dtype=float)
        return NrgState(
            iteration=3,
            energies=e,
            labels=(0,),
            levels=(e,),
            op_b=(np.zeros((e.size, e.size)),),
            op_sz=(np.asarray(sz, dtype=float),),
            op_sx=(np.asarray(sx, dtype=float),),
            ground_energy=0.0,
        )

    @staticmethod
    def blocked(levels, sz, sx):
        """A state of the sectors (-1, 1): levels and sigma_x per sector,
        sigma_z from sector -1 to sector 1."""
        levels = tuple(np.asarray(x, dtype=float) for x in levels)
        sz = np.asarray(sz, dtype=float)
        return NrgState(
            iteration=3,
            energies=np.sort(np.concatenate(levels)),
            labels=(-1, 1),
            levels=levels,
            op_b=(np.zeros(sz.shape), np.zeros(sz.T.shape)),
            op_sz=(sz, sz.T),
            op_sx=tuple(np.asarray(x, dtype=float) for x in sx),
            ground_energy=0.0,
        )

    def test_unique_ground(self):
        st_ = self.state([0.0, 0.5], [[0.3, 0.1], [0.1, -0.3]],
                         [[0.9, 0.0], [0.0, 0.1]])
        assert ground_spin(st_) == (0.3, 0.9)

    def test_degenerate_doublet_polarizes(self, monkeypatch):
        # sigma_z couples the doublet off-diagonally; the extremal member
        # is the symmetric/antisymmetric combination with <sigma_z> = +-1,
        # and one solve of the doublet's sigma_z block serves both operators
        st_ = self.state([0.0, 0.0, 1.0],
                         [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]],
                         [[0.3, 0.0, 0.0], [0.0, -0.3, 0.0], [0.0, 0.0, 0.2]])
        solves = []
        sym_eig = numerics.sym_eig
        monkeypatch.setattr(numerics, "sym_eig",
                            lambda a: solves.append(a.shape) or sym_eig(a))
        sz, sx = ground_spin(st_)
        assert abs(sz) == pytest.approx(1.0, abs=1e-12)
        assert sx == pytest.approx(0.0, abs=1e-12)
        assert solves == [(2, 2)]

    def test_window_is_configurable(self):
        # a level 100 DEGENERACY_TOL above the ground state is no multiplet
        # member, however strongly sigma_z mixes it in
        st_ = self.state([0.0, 100 * nrg.DEGENERACY_TOL],
                         [[0.2, 0.5], [0.5, -0.2]], [[0.0, 0.0], [0.0, 0.0]])
        tight, _ = ground_spin(st_)
        assert tight == 0.2

    @pytest.mark.parametrize("partner,expected", [
        (1e-3, 0.8),  # far below the next level: the localized doublet
        (0.25, 0.0),  # half the next level: a unique ground state
    ])
    def test_cross_sector_doublet(self, partner, expected):
        # sigma_z only links the two parity sectors; the level above the
        # ground state pairs with it when it is split off from the rest of
        # the spectrum, however far beyond DEGENERACY_TOL it lies. Sector 1
        # holds the ground state and the level at 0.5, sector -1 the partner.
        st_ = self.blocked([[partner], [0.0, 0.5]], [[0.8, 0.5]],
                           [[[0.6]], [[0.4, 0.1], [0.1, 0.2]]])
        sz, sx = ground_spin(st_)
        assert abs(sz) == pytest.approx(expected, abs=1e-12)
        assert sx == pytest.approx(0.5 if expected else 0.4, abs=1e-12)

    def test_rounding_beyond_one_is_clipped(self):
        # within 1e-9 of +-1 an excess is rounding; beyond it, a fault
        st_ = self.state([0.0, 0.5], [[-1.0 - 1e-12, 0.0], [0.0, 0.0]],
                         [[1.0 + 1e-12, 0.0], [0.0, 0.0]])
        assert ground_spin(st_) == (-1.0, 1.0)
        st_ = self.state([0.0, 0.5], [[1.1, 0.0], [0.0, 0.0]],
                         [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(nrg.NrgError, match="exceeds 1"):
            ground_spin(st_)

    def test_unbiased_polaron_run_stays_within_one(self):
        # at delta = 0 the doublet branch once read -1.000000000000002
        res = run(SpinBosonParams(delta=0.0, alpha=0.3),
                  NrgConfig(n_s=20, n_b=4, n_iter=10))
        assert abs(res.sigma_z_gs) == 1.0
        assert abs(res.sigma_x_gs) <= 1.0


class TestDeltaP:
    def test_values(self):
        assert delta_p(0.0) == 0.0
        assert delta_p(-0.8) == 0.4
        assert delta_p(1.0) == 0.5

    def test_clamps_roundoff(self):
        assert delta_p(1.0 + 1e-10) == 0.5
        assert delta_p(-1.0 - 1e-10) == 0.5

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            delta_p(1.1)
