"""Acceptance gate: one test per stated criterion, at the stated tolerance.

Run with -v; each test name carries its criterion number, so the pass/fail
column is the criterion report. Slow fixtures (the production flow sweep
and the population table) are shared across criteria 4, 5 and 6.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sbnrg
from sbnrg.bath import StarBath, chain_map, discretize
from sbnrg.circuit import CircuitParams, SpinBosonParams, map_to_spin_boson
from sbnrg.criticality import extract_nstar, fit_alpha_c
from sbnrg.nrg import NrgConfig, run, run_on_chain
from sbnrg.numerics import FitError

from conftest import CRITICAL_PAYLOAD
from oracle import EdProblem, exact_diag

FIG3_ALPHAS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75)
POPULATION_ALPHAS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.85, 2.0, 2.2)
POPULATION_BIASES = (1e-7, 1e-6, 1e-5)


def banner(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def fig3_sweep():
    """Production flow sweep: Delta = 3e-5, alpha in 0.50..0.75, defaults."""
    t0 = time.monotonic()
    results = {}
    for alpha in FIG3_ALPHAS:
        results[alpha] = run(SpinBosonParams(delta=3e-5, alpha=alpha),
                             NrgConfig())
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def critical_fit(fig3_sweep):
    results, sweep_elapsed = fig3_sweep
    t0 = time.monotonic()
    points = [extract_nstar(results[a].flow) for a in FIG3_ALPHAS]
    try:
        fit = fit_alpha_c(points)
    except FitError:
        extra = []
        for alpha in (0.80, 0.85):
            res = run(SpinBosonParams(delta=3e-5, alpha=alpha), NrgConfig())
            extra.append(extract_nstar(res.flow))
        fit = fit_alpha_c(points + extra)
    return fit, sweep_elapsed + (time.monotonic() - t0)


@pytest.fixture(scope="module")
def population_table():
    """delta_p on the fixed (alpha, epsilon) grid at Delta = 1e-4."""
    t0 = time.monotonic()
    table = {}
    for alpha in POPULATION_ALPHAS:
        for eps in POPULATION_BIASES:
            res = run(SpinBosonParams(delta=1e-4, epsilon=eps, alpha=alpha),
                      NrgConfig(n_iter=40))
            table[(alpha, eps)] = res.delta_p
    return table, time.monotonic() - t0


def test_criterion_1_decoupled_limit_exactness():
    t0 = time.monotonic()
    worst_gap = 0.0
    worst_dp = 0.0
    for delta in (1e-5, 1e-4, 1e-3, 2.7e-3, 1e-2):
        n_iter = int(math.floor(math.log2(0.7 / delta)))
        res = run(SpinBosonParams(delta=delta, alpha=0.0),
                  NrgConfig(n_s=80, n_b=4, n_iter=n_iter))
        for rec in res.flow.records:
            unrescaled = np.array(rec.energies) / 2.0 ** rec.iteration
            err = np.abs(unrescaled - delta).min() / delta
            worst_gap = max(worst_gap, err)
        worst_dp = max(worst_dp, res.delta_p)
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-8 and worst_dp <= 1e-10 and elapsed < 10.0
    banner(1, ok, f"gap err {worst_gap:.2e} (<=1e-8), "
                  f"delta_p {worst_dp:.2e} (<=1e-10), {elapsed:.1f}s (<10s)")
    assert worst_gap <= 1e-8
    assert worst_dp <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    cases = [
        # (xi, gamma, delta, epsilon, n_b)
        ((0.6, 0.15), (0.05, 0.02), 0.2, 0.05, 12),
        ((0.7, 0.45, 0.3), (0.04, 0.02, 0.01), 0.15, 0.03, 6),
    ]
    worst_spec = 0.0
    worst_sz = 0.0
    for xi, gamma, delta, epsilon, n_b in cases:
        dim = 2 * n_b ** len(xi)
        star = StarBath(xi=np.array(xi), gamma=np.array(gamma))
        chain = chain_map(star)
        p = SpinBosonParams(delta=delta, epsilon=epsilon, alpha=0.1)
        # N_s >= full dimension: nothing is ever truncated. The recorded
        # final spectrum (default 12 levels) is what the run reports; the
        # product-basis cutoff is not invariant under the star-to-chain
        # rotation, so only levels well below the cutoff shell are
        # comparable (measured clean through index 26 and 19 here).
        cfg = NrgConfig(n_s=dim + 10, n_b=n_b, n_iter=len(xi))
        res = run_on_chain(p, chain, cfg)
        oracle = exact_diag(
            EdProblem(delta=delta, epsilon=epsilon,
                      modes=tuple(zip(xi, gamma)), n_max=n_b - 1),
            check_convergence=False,
        )
        last = res.flow.records[-1]
        scale = 2.0 ** last.iteration
        absolute = res.ground_energy + np.array(last.energies) / scale
        reference = np.linalg.eigvalsh(_dense_star(delta, epsilon, xi,
                                                   gamma, n_b))
        worst_spec = max(worst_spec,
                         float(np.abs(absolute - reference[: absolute.size]).max()),
                         abs(res.ground_energy - oracle.ground_energy),
                         abs(absolute[1] - absolute[0] - oracle.gap))
        worst_sz = max(worst_sz, abs(res.sigma_z_gs - oracle.sigma_z))
    elapsed = time.monotonic() - t0
    ok = worst_spec <= 1e-9 and worst_sz <= 1e-6 and elapsed < 30.0
    banner(2, ok, f"spectrum {worst_spec:.2e} (<=1e-9 abs), "
                  f"sigma_z {worst_sz:.2e} (<=1e-6), {elapsed:.1f}s (<30s)")
    assert worst_spec <= 1e-9
    assert worst_sz <= 1e-6
    assert elapsed < 30.0


def _dense_star(delta, epsilon, xi, gamma, n_b):
    lad = np.diag(np.sqrt(np.arange(1.0, n_b)), 1)
    nhat = np.diag(np.arange(n_b, dtype=float))
    eye_b = np.eye(n_b)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    dim_bos = n_b ** len(xi)
    h = (-0.5 * delta * np.kron(sx, np.eye(dim_bos))
         + 0.5 * epsilon * np.kron(sz, np.eye(dim_bos)))
    for site, (w, g) in enumerate(zip(xi, gamma)):
        op_n = np.eye(1)
        op_x = np.eye(1)
        for j in range(len(xi)):
            op_n = np.kron(op_n, nhat if j == site else eye_b)
            op_x = np.kron(op_x, (lad + lad.T) if j == site else eye_b)
        h += w * np.kron(np.eye(2), op_n) + 0.5 * g * np.kron(sz, op_x)
    return h


def test_criterion_3_chain_mapping_fidelity():
    t0 = time.monotonic()
    star = discretize(SpinBosonParams(delta=3e-5, alpha=0.5), 2.0, 40)
    chain = chain_map(star)
    tri = np.diag(chain.eps) + np.diag(chain.t, 1) + np.diag(chain.t, -1)
    eig_err = float(np.abs(
        (np.linalg.eigvalsh(tri) - np.sort(star.xi)) / np.sort(star.xi)
    ).max())
    c0_err = abs(chain.c0 ** 2 - float(np.sum(star.gamma ** 2))) / float(
        np.sum(star.gamma ** 2)
    )
    # pairwise decay rate ln(t_n / t_n+1) with both hoppings inside [10, 35]
    rates = np.log(chain.t[10:35] / chain.t[11:36]) / math.log(2.0)
    rate_err = float(np.abs(rates - 1.0).max())
    slope = np.polyfit(np.arange(10, 36), np.log(chain.t[10:36]), 1)[0]
    slope_err = abs(-slope / math.log(2.0) - 1.0)
    elapsed = time.monotonic() - t0
    ok = (eig_err <= 1e-9 and c0_err <= 1e-10 and rate_err <= 0.02
          and slope_err <= 0.02 and elapsed < 5.0)
    banner(3, ok, f"eigs {eig_err:.2e} (<=1e-9), c0^2 {c0_err:.2e} (<=1e-10), "
                  f"rate dev {rate_err:.2%}/{slope_err:.2%} (<=2%), "
                  f"{elapsed:.1f}s (<5s)")
    assert eig_err <= 1e-9
    assert c0_err <= 1e-10
    assert rate_err <= 0.02
    assert slope_err <= 0.02
    assert elapsed < 5.0


def test_criterion_4_flow_diagram_reproduction(fig3_sweep):
    results, elapsed = fig3_sweep
    n_stars = []
    crossing_ok = True
    for alpha in FIG3_ALPHAS:
        flow = results[alpha].flow
        _, vals = flow.level_series(1)
        up = sum(1 for i in range(len(vals) - 1)
                 if vals[i] < 0.3 <= vals[i + 1])
        down = sum(1 for i in range(len(vals) - 1)
                   if vals[i] >= 0.3 > vals[i + 1])
        crossing_ok = crossing_ok and up == 1 and down == 0
        n_stars.append(extract_nstar(flow).n_star)
    increasing = all(a < b for a, b in zip(n_stars, n_stars[1:]))
    anchor_err = abs(n_stars[2] - 32.14335204677513)
    ok = crossing_ok and increasing and anchor_err < 1e-6 and elapsed < 900.0
    banner(4, ok, f"N* {['%.3f' % n for n in n_stars]} strictly increasing: "
                  f"{increasing}, single upward crossings: {crossing_ok}, "
                  f"{elapsed:.0f}s (<900s)")
    assert crossing_ok
    assert increasing
    assert anchor_err < 1e-6
    assert elapsed < 900.0


def test_criterion_5_alpha_c_extrapolation(critical_fit):
    fit, elapsed = critical_fit
    ok = 0.95 <= fit.alpha_c <= 1.25 and elapsed < 1800.0
    banner(5, ok, f"alpha_c {fit.alpha_c:.4f} in [0.95, 1.25], "
                  f"rss {fit.rss:.2e}, {elapsed:.0f}s (<1800s)")
    assert 0.95 <= fit.alpha_c <= 1.25
    assert elapsed < 1800.0


def test_criterion_6a_population_low_band(population_table, critical_fit):
    """The spin stays unpolarized (delta_p < 0.05) under a small bias for
    every alpha of POPULATION_ALPHAS with alpha <= alpha_c / 2.

    "Small" is measured against the spin's own renormalized tunneling scale
    T*(alpha) = Delta (Delta / omega_c)^(alpha / (1 - alpha)), the README's
    formula taken as written (its O(1) prefactor is not fixed anywhere);
    in cutoff units T* = Delta^(1 / (1 - alpha)). Each alpha runs at
    epsilon(alpha) = T*(alpha) / 10, the bias at which a free spin of
    splitting T* reaches delta_p = epsilon / (2 T*) = 0.05 in linear
    response. The fixed POPULATION_BIASES cannot serve here: once
    T* < epsilon the bias pins the spin (delta_p -> 1/2) well inside the
    delocalized phase. Each bias must also sit a decade above the last
    shell Lambda^-n_iter the run resolves.
    """
    table_elapsed = population_table[1]
    fit, _ = critical_fit
    half = 0.5 * fit.alpha_c
    delta = 1e-4
    cfg = NrgConfig(n_iter=40)
    t0 = time.monotonic()
    rows = []
    for alpha in (a for a in POPULATION_ALPHAS if a <= half):
        t_star = delta ** (1.0 / (1.0 - alpha))
        eps = 0.1 * t_star
        assert eps >= 10.0 * cfg.Lambda ** -cfg.n_iter, (alpha, eps)
        res = run(SpinBosonParams(delta=delta, epsilon=eps, alpha=alpha), cfg)
        rows.append((alpha, eps, eps / t_star, res.delta_p))
    elapsed = table_elapsed + (time.monotonic() - t0)
    violations = [(a, e, dp) for a, e, _, dp in rows if not dp < 0.05]
    ok = rows and not violations and elapsed < 1200.0
    detail = (f"delta_p < 0.05 at eps = T*/10 for alpha <= {half:.3f}: "
              f"{len(rows) - len(violations)}/{len(rows)} points ("
              + ", ".join(f"a={a:g}: eps={e:.3g}, eps/T*={r:g}, dP={dp:.3g}"
                          for a, e, r, dp in rows)
              + ")")
    banner("6a", ok, detail + f", {elapsed:.0f}s (<1200s)")
    assert rows
    assert not violations, violations
    assert elapsed < 1200.0


def test_criterion_6b_population_high_band(population_table, critical_fit):
    table, elapsed = population_table
    fit, _ = critical_fit
    lo = 1.5 * fit.alpha_c
    rows = [(a, e, table[(a, e)])
            for a in POPULATION_ALPHAS if a >= lo
            for e in POPULATION_BIASES]
    violations = [(a, e, dp) for a, e, dp in rows if not dp > 0.45]
    ok = rows and not violations and elapsed < 1200.0
    banner("6b", ok, f"delta_p > 0.45 for alpha >= {lo:.3f}: "
                     f"{len(rows) - len(violations)}/{len(rows)} points, "
                     f"{elapsed:.0f}s (<1200s)")
    assert rows
    assert not violations
    assert elapsed < 1200.0


def test_criterion_6c_population_bias_monotonicity(population_table,
                                                  critical_fit):
    table, elapsed = population_table
    fit, _ = critical_fit
    checked = 0
    violations = []
    for alpha in POPULATION_ALPHAS:
        if alpha >= fit.alpha_c:
            continue
        series = [table[(alpha, e)] for e in POPULATION_BIASES]
        checked += 1
        if not all(a <= b + 1e-12 for a, b in zip(series, series[1:])):
            violations.append((alpha, series))
    ok = checked >= 3 and not violations and elapsed < 1200.0
    banner("6c", ok, f"delta_p non-decreasing in epsilon at {checked} "
                     f"alphas below alpha_c, {elapsed:.0f}s (<1200s)")
    assert checked >= 3
    assert not violations, violations
    assert elapsed < 1200.0


def test_criterion_7_circuit_mapping_properties():
    t0 = time.monotonic()

    def alpha_at(fraction):
        p = CircuitParams(c_j=0.85e-12, c_0=4.25e-12, i_0=2e-6,
                          i_b=fraction * 2e-6, l=4e-7, c=1.6e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return map_to_spin_boson(p, 1e14,
                                     delta_convention="half_omega_p").alpha

    # geometric spacing in 1 - I_b/I_0 keeps alpha steps small near I_0
    grid = 1.0 - np.geomspace(1.0, 1e-3, 400)
    alphas = np.array([alpha_at(f) for f in grid])
    decreasing = bool(np.all(np.diff(alphas) < 0))
    continuous = float(np.abs(np.diff(alphas)).max()) < 0.02
    vanishing = alpha_at(1.0 - 1e-12) < 2.5e-3
    anchor = alpha_at(0.9)
    elapsed = time.monotonic() - t0
    ok = (decreasing and continuous and vanishing and anchor > 0.2
          and abs(anchor - 0.6506049194980172) < 1e-12 * anchor
          and elapsed < 1.0)
    banner(7, ok, f"alpha(I_b) strictly decreasing: {decreasing}, "
                  f"max grid step {np.abs(np.diff(alphas)).max():.3f}, "
                  f"alpha(0.9 I_0) = {anchor:.4f} (>0.2), "
                  f"alpha(I_b->I_0) = {alpha_at(1.0 - 1e-12):.2e}, "
                  f"{elapsed:.2f}s (<1s)")
    assert decreasing
    assert continuous
    assert vanishing
    assert anchor > 0.2
    assert anchor == pytest.approx(0.6506049194980172, rel=1e-12)
    assert elapsed < 1.0


def _cli(args):
    # the child does not inherit pytest's pythonpath; put this sbnrg first
    env = dict(os.environ)
    src = str(Path(sbnrg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sbnrg", *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc


def _data_files(out_dir):
    return sorted(p for p in out_dir.iterdir() if p.name != "run_manifest.json")


def _manifest_sans_timestamps(out_dir):
    doc = json.loads((out_dir / "run_manifest.json").read_text())
    doc.pop("started_utc")
    doc.pop("finished_utc")
    doc["config"].pop("out_dir")
    doc["config"].pop("workers")
    return doc


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.monotonic()
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "model": {"delta": 3e-5, "alpha": 0.6},
        "nrg": {"n_iter": 50, "n_star": 55},
    }))
    for rep in ("a", "b"):
        _cli(["run", "--config", str(run_cfg),
              "--out", str(tmp_path / f"run_{rep}")])
    crit_cfg = tmp_path / "critical.json"
    crit_cfg.write_text(json.dumps(CRITICAL_PAYLOAD))
    for workers in ("1", "2"):
        _cli(["critical", "--config", str(crit_cfg), "--workers", workers,
              "--out", str(tmp_path / f"crit_{workers}")])

    mismatches = []
    for pair in (("run_a", "run_b"), ("crit_1", "crit_2")):
        left, right = (tmp_path / pair[0]), (tmp_path / pair[1])
        names_l = [p.name for p in _data_files(left)]
        names_r = [p.name for p in _data_files(right)]
        if names_l != names_r:
            mismatches.append(f"{pair}: file sets differ")
            continue
        for name in names_l:
            if (left / name).read_bytes() != (right / name).read_bytes():
                mismatches.append(f"{pair}: {name}")
        if _manifest_sans_timestamps(left) != _manifest_sans_timestamps(right):
            mismatches.append(f"{pair}: manifest")
    elapsed = time.monotonic() - t0
    ok = not mismatches
    banner(8, ok, "rerun and workers 1 vs 2 byte-identical"
           + ("" if ok else f"; mismatches: {mismatches}")
           + f", {elapsed:.0f}s")
    assert not mismatches, mismatches
