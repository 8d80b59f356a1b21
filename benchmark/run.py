"""Benchmark of the sbnrg command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed 0 [--record FILE]
    python3 benchmark/run.py --write-spec

Every pass is one fresh ``sbnrg`` CLI process (``benchmark/child.py``)
with one worker and BLAS at one thread, run one after another, because
that is what a command-line user pays: the chain cache lives per process.

``--trace 0`` repeats untraced passes for about ``--seconds`` seconds and
reports the end-to-end medians. ``--trace 1`` runs one untraced and two
traced passes and reports the per-layer metrics. Every pass is checked:
exit code, manifest digests, and the physics of its outputs. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload traced and prints both metric sets;
``--record`` also writes them, with the environment and the layer map, to
a JSON file. ``--write-spec`` rewrites ``BENCHMARK.json`` from the tables
below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

RUN_SECONDS = 30
# one invocation must end within 180 s; children still running are killed
PROCESS_BUDGET_S = 170.0
# fresh interpreters that only import sbnrg and parse the config
SETUP_PROBES = 9

# alpha_c of the critical_sweep config at seed 0 with BLAS at one thread.
# Two BLAS threads give 1.2489351878856727; the tolerance covers that drift.
ALPHA_C_SEED0 = 1.2486868009632401
ALPHA_C_TOL = 5e-3
# N* of the single_run config at seed 0, same drift allowance
NSTAR_SEED0 = 32.143
NSTAR_TOL = 0.05
FIT_WINDOW = 2.0
NSTAR_THRESHOLD = 0.3
DELOCALIZED_DP = 0.05


# ---------------------------------------------------------------- workloads

def _critical_config(seed: int) -> dict:
    alphas = [0.55, 0.65, 0.75, 0.85]
    if seed:
        # above 0.85 N* passes n_iter and there is no crossing
        rng = np.random.default_rng(seed)
        alphas = [a + float(rng.uniform(-0.03, 0.0)) for a in alphas]
    return {
        "model": {"delta": 3e-5},
        "nrg": {"n_s": 60, "n_b": 6, "n_iter": 60, "n_star": 65},
        "sweep": {"parameter": "alpha", "grid": {"values": alphas}},
        "critical": {"window": FIT_WINDOW},
    }


def _bias_config(seed: int) -> dict:
    eps = [1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5]
    if seed:
        rng = np.random.default_rng(seed)
        eps = [10.0 ** (math.log10(e) + float(rng.uniform(-0.1, 0.1)))
               for e in eps]
    return {
        "model": {"delta": 1e-4, "alpha": 0.4},
        "nrg": {"n_iter": 40},
        "sweep": {"parameter": "epsilon", "grid": {"values": eps}},
    }


def _single_config(seed: int) -> dict:
    alpha = float(np.random.default_rng(seed).uniform(0.55, 0.65)) if seed else 0.6
    return {"model": {"delta": 3e-5, "alpha": alpha}}


def _read_csv(path: Path) -> list[dict]:
    header, *rows = path.read_text().strip().split("\n")
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def _nstar(flow_csv: Path) -> float:
    """Where level 1 of the flow first reaches the threshold from below."""
    series = [(int(r["iteration"]), float(r["scaled_energy"]))
              for r in _read_csv(flow_csv) if r["level_index"] == "1"]
    if series and series[0][1] >= NSTAR_THRESHOLD:
        return 0.0
    for (i0, v0), (i1, v1) in zip(series, series[1:]):
        if v0 < NSTAR_THRESHOLD <= v1:
            return i0 + (NSTAR_THRESHOLD - v0) / (v1 - v0) * (i1 - i0)
    return math.nan


def _check_critical(out: Path, config: dict, seed: int) -> list[str]:
    alphas = config["sweep"]["grid"]["values"]
    points = _read_csv(out / "points.csv")
    nstars = [float(p["n_star"]) for p in points]
    errors = []
    if [float(p["alpha"]) for p in points] != alphas:
        errors.append("points.csv alphas differ from the grid")
    if len(nstars) != 4 or not all(math.isfinite(n) for n in nstars):
        errors.append(f"expected four finite N*, got {nstars}")
    elif any(b <= a for a, b in zip(nstars, nstars[1:])):
        errors.append(f"N* does not increase with alpha: {nstars}")
    alpha_c = json.loads((out / "fit.json").read_text())["alpha_c"]
    top = max(alphas)
    if not (math.isfinite(alpha_c) and top < alpha_c <= top + FIT_WINDOW):
        errors.append(f"alpha_c {alpha_c} outside ({top}, {top + FIT_WINDOW}]")
    if seed == 0 and abs(alpha_c - ALPHA_C_SEED0) > ALPHA_C_TOL:
        errors.append(f"alpha_c {alpha_c} differs from {ALPHA_C_SEED0}")
    return errors


def _check_bias(out: Path, config: dict, seed: int) -> list[str]:
    rows = _read_csv(out / "sweep.csv")
    dps = [float(r["delta_p"]) for r in rows]
    errors = []
    if [float(r["epsilon"]) for r in rows] != config["sweep"]["grid"]["values"]:
        errors.append("sweep.csv epsilons differ from the grid")
    if not all(0.0 <= d <= 0.5 for d in dps):
        errors.append(f"delta_p outside [0, 0.5]: {dps}")
    if any(b < a for a, b in zip(dps, dps[1:])):
        errors.append(f"delta_p decreases with epsilon: {dps}")
    return errors


def _check_single(out: Path, config: dict, seed: int) -> list[str]:
    dp = json.loads((out / "observables.json").read_text())["delta_p"]
    nstar = _nstar(out / "flow.csv")
    errors = []
    if not dp < DELOCALIZED_DP:
        errors.append(f"delta_p {dp} not below {DELOCALIZED_DP}")
    if not math.isfinite(nstar):
        errors.append("level 1 never crosses the N* threshold")
    elif seed == 0 and abs(nstar - NSTAR_SEED0) > NSTAR_TOL:
        errors.append(f"N* {nstar} differs from {NSTAR_SEED0}")
    return errors


_ALWAYS = ("cli.parse_config", "cli.execute", "nrg.run", "bath.discretize",
           "bath.chain_map", "nrg.build_initial", "nrg.iterate",
           "numerics.sym_eig")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    config: Callable[[int], dict]
    check: Callable[[Path, dict, int], list]
    must_call: tuple = _ALWAYS


WORKLOADS = {w.name: w for w in (
    Workload(
        "critical_sweep",
        "sbnrg critical, 4 alphas at eps=0: a cold chain map per point, the "
        "pole fit and four flow CSVs; the parity-symmetric case",
        "critical", _critical_config, _check_critical,
        _ALWAYS + ("criticality.extract_nstar", "criticality.fit_alpha_c",
                   "numerics.fit_divergence")),
    Workload(
        "bias_scan",
        "sbnrg sweep over 6 biases at dim 600: one cold chain map then five "
        "hits, iteration-bound, no parity symmetry (bypasses chain changes)",
        "sweep", _bias_config, _check_bias,
        _ALWAYS + ("criticality.extract_nstar",)),
    Workload(
        "single_run",
        "sbnrg run at production defaults: one 120-site chain map and no "
        "reuse within the process, so cross-point sharing must read zero",
        "run", _single_config, _check_single),
)}


# ------------------------------------------------------------------ metrics

# (name, unit, bound): bound is the share by which the median may worsen
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
)

# (name, unit, what it should move): all are better lower
PER_LAYER = (
    ("bath.discretize_s", "s", "negligible on every workload"),
    ("bath.chain_map_s", "s",
     "wall_s on single_run and critical_sweep; barely on bias_scan"),
    ("bath.chain_map_share", "frac", "share of traced wall in chain_map"),
    ("bath.chain_map_calls", "count", "one per NRG point"),
    ("bath.chain_map_cold_calls", "count",
     "calls on (xi, gamma) not seen earlier in the process; 4/1/1 at seed 0"),
    ("bath.chain_sites", "count", "chain sites returned, summed over calls"),
    ("nrg.run_s", "s", "wall_s on every workload"),
    ("nrg.build_initial_s", "s", "negligible"),
    ("nrg.iterate_s", "s", "wall_s on bias_scan most"),
    ("nrg.iterate_self_s", "s",
     "iterate minus nested sym_eig: H build, operator update, truncation; "
     "wall_s on bias_scan most"),
    ("nrg.iterate_calls", "count", "236/234/59 at seed 0"),
    ("nrg.iterate_ms_p50", "ms", "median iteration; wall_s on bias_scan"),
    ("nrg.kept_mean", "count", "states kept per iteration"),
    ("nrg.h_dim_max", "count", "largest matrix diagonalized"),
    ("nrg.sz_leak_max", "1",
     "max |<sigma_z>| over eps=0 delocalized points; exact value 0; health "
     "only"),
    ("numerics.sym_eig_s", "s", "wall_s on bias_scan most"),
    ("numerics.sym_eig_share", "frac", "share of traced wall in sym_eig"),
    ("numerics.sym_eig_calls", "count", "one per iteration plus a few"),
    ("numerics.sym_eig_n3", "count",
     "sum of dim^3; exact; parity blocks cut it ~4x at eps=0 only"),
    ("numerics.fit_divergence_calls", "count", "critical_sweep only"),
    ("numerics.fit_divergence_share", "frac", "critical_sweep only"),
    ("criticality.extract_nstar_calls", "count",
     "critical_sweep and bias_scan"),
    ("criticality.extract_nstar_share", "frac", "<1% of critical_sweep"),
    ("criticality.fit_alpha_c_calls", "count", "critical_sweep only"),
    ("criticality.fit_alpha_c_share", "frac", "<1% of critical_sweep"),
    ("cli.parse_config_s", "s", "setup_s"),
    ("cli.execute_s", "s", "wall_s on every workload"),
    ("cli.self_s", "s", "execute minus wrapped calls: CSV/JSON writing and "
     "hashing"),
    ("cli.bytes_written", "B", "sum of output sizes in the manifest"),
    ("trace.overhead_frac", "frac", "traced wall_s over untraced wall_s, "
     "minus 1"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# counts that must repeat exactly across traced passes of one config
EXACT_COUNTS = ("numerics.sym_eig_n3", "nrg.iterate_calls",
                "bath.chain_map_cold_calls", "bath.chain_map_calls",
                "numerics.sym_eig_calls")


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float,
                  bytes_written: int) -> dict:
    spans, counts = trace["spans"], trace["counts"]

    def total(name):
        return spans[name]["total_s"]

    def calls(name):
        return spans[name]["calls"]

    def share(name):
        return total(name) / traced_wall

    iterations = spans["nrg.iterate"]["durations_s"]
    return {
        "bath.discretize_s": total("bath.discretize"),
        "bath.chain_map_s": total("bath.chain_map"),
        "bath.chain_map_share": share("bath.chain_map"),
        "bath.chain_map_calls": calls("bath.chain_map"),
        "bath.chain_map_cold_calls": counts["chain_map_cold_calls"],
        "bath.chain_sites": counts["chain_sites"],
        "nrg.run_s": total("nrg.run"),
        "nrg.build_initial_s": total("nrg.build_initial"),
        "nrg.iterate_s": total("nrg.iterate"),
        "nrg.iterate_self_s": total("nrg.iterate") - spans["nrg.iterate"]["child_s"],
        "nrg.iterate_calls": calls("nrg.iterate"),
        "nrg.iterate_ms_p50": 1e3 * statistics.median(iterations) if iterations else 0.0,
        "nrg.kept_mean": counts["kept_sum"] / max(calls("nrg.iterate"), 1),
        "nrg.h_dim_max": counts["h_dim_max"],
        "nrg.sz_leak_max": trace["sz_leak_max"],
        "numerics.sym_eig_s": total("numerics.sym_eig"),
        "numerics.sym_eig_share": share("numerics.sym_eig"),
        "numerics.sym_eig_calls": calls("numerics.sym_eig"),
        "numerics.sym_eig_n3": counts["sym_eig_n3"],
        "numerics.fit_divergence_calls": calls("numerics.fit_divergence"),
        "numerics.fit_divergence_share": share("numerics.fit_divergence"),
        "criticality.extract_nstar_calls": calls("criticality.extract_nstar"),
        "criticality.extract_nstar_share": share("criticality.extract_nstar"),
        "criticality.fit_alpha_c_calls": calls("criticality.fit_alpha_c"),
        "criticality.fit_alpha_c_share": share("criticality.fit_alpha_c"),
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.execute_s": total("cli.execute"),
        "cli.self_s": total("cli.execute") - spans["cli.execute"]["child_s"],
        "cli.bytes_written": bytes_written,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }


# ------------------------------------------------------------------- passes

@dataclass
class Pass:
    wall_s: float
    setup_s: float | None
    rss_mb: float | None
    report: dict
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(workload: Workload, seed: int, config_path: Path, tag: str,
          deadline: float, traced: bool = False,
          setup_only: bool = False) -> Pass:
    """Run one child process; kill it at the deadline."""
    out = WORK / tag
    report_path = WORK / f"{tag}.report.json"
    cmd = [sys.executable, str(CHILD), "--report", str(report_path)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    cmd += ["--", workload.mode, "--config", str(config_path), "--out", str(out),
            "--workers", "1"]
    with open(WORK / f"{tag}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.monotonic() - start
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    result = Pass(
        wall_s=wall,
        setup_s=report["parsed_at"] - start if "parsed_at" in report else None,
        rss_mb=report["maxrss_kb"] / 1024.0 if "maxrss_kb" in report else None,
        report=report,
    )
    if code != 0:
        result.errors.append(f"exit code {code}; see {WORK.name}/{tag}.log")
    if setup_only or code != 0:
        return result
    try:
        manifest = json.loads((out / "run_manifest.json").read_text())
        if manifest["status"] != "ok":
            result.errors.append(f"manifest status {manifest['status']}")
        for entry in manifest["outputs"]:
            path = out / entry["path"]
            result.digests[entry["path"]] = digest = _sha256(path)
            result.bytes_written += path.stat().st_size
            if digest != entry["sha256"]:
                result.errors.append(f"sha256 mismatch on {entry['path']}")
        result.errors += workload.check(out, json.loads(config_path.read_text()),
                                        seed)
    except (OSError, KeyError, ValueError) as exc:
        result.errors.append(f"output check: {type(exc).__name__}: {exc}")
    return result


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            started: float) -> tuple[list, list, dict, dict | None]:
    """Set-up probes, then the passes. Returns (passes, probes, env, layers)."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    config_path = WORK / f"{workload.name}.json"
    config_path.write_text(json.dumps(workload.config(seed)))
    deadline = started + PROCESS_BUDGET_S

    probes = [spawn(workload, seed, config_path, f"setup{i}", deadline,
                    setup_only=True)
              for i in range(SETUP_PROBES)]
    env = probes[0].report.get("environment", {})

    passes = []
    t0 = time.monotonic()
    if traced:
        for i, flag in enumerate((False, True, True)):
            passes.append(spawn(workload, seed, config_path, f"pass{i}",
                                deadline, traced=flag))
    else:
        while True:
            passes.append(spawn(workload, seed, config_path,
                                f"pass{len(passes)}", deadline))
            typical = statistics.median(p.wall_s for p in passes)
            if time.monotonic() - t0 + typical > seconds:
                break

    # every pass of one config writes the same bytes
    ref = passes[0].digests
    for p in passes[1:]:
        if ref and p.digests and p.digests != ref:
            p.errors.append("output digests differ from the first pass")

    layers = None
    if traced:
        untraced, *tpasses = passes
        per_pass = []
        for p in tpasses:
            trace = p.report.get("trace")
            if trace is None:
                continue
            missing = [name for name in workload.must_call
                       if trace["spans"][name]["calls"] == 0]
            if missing:
                p.errors.append(f"trace error: no calls recorded to {missing}")
            per_pass.append(layer_metrics(trace, p.wall_s, untraced.wall_s,
                                          p.bytes_written))
        if len(per_pass) == 2:
            for name in EXACT_COUNTS:
                if per_pass[0][name] != per_pass[1][name]:
                    tpasses[1].errors.append(
                        f"trace count {name} differs between traced passes: "
                        f"{per_pass[0][name]} vs {per_pass[1][name]}")
        if per_pass:
            # counts are equal across passes; times are averaged
            layers = {name: value if isinstance(value, int)
                      else statistics.fmean(m[name] for m in per_pass)
                      for name, value in per_pass[0].items()}
    return passes, probes, env, layers


def end_to_end_metrics(passes: list, probes: list) -> dict:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in probes + passes
                                     if p.setup_s is not None),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes
                                         if p.rss_mb is not None),
    }


def _metric_block(values: dict) -> dict:
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 started: float) -> dict:
    workload = WORKLOADS[name]
    passes, probes, env, layers = measure(workload, seed, seconds, traced,
                                          started)
    failed = sum(1 for p in passes if p.errors)
    for i, p in enumerate(passes):
        for err in p.errors:
            print(f"{name} pass {i}: FAIL {err}")
    for i, p in enumerate(probes):
        for err in p.errors:
            print(f"{name} setup probe {i}: FAIL {err}")
    if not env.get("blas_single_thread", False):
        print(f"{name}: WARNING BLAS is not pinned to 1 thread: "
              f"{env.get('thread_vars')}")
    print("environment: " + json.dumps(env, sort_keys=True))
    # end-to-end figures come from untraced passes only
    e2e = end_to_end_metrics(passes[:1] if traced else passes, probes)
    print(f"{name} seed {seed}: {len(passes)} passes"
          f"{' (1 untraced, 2 traced)' if traced else ''}, {failed} failed, "
          f"fail_frac = {failed / len(passes):.3f}")
    print("  per-pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    for key, value in e2e.items():
        print(f"  {key:34s} {value:14.6g} {UNITS[key]}")
    if layers is not None:
        for key, value in layers.items():
            print(f"  {key:34s} {value:14.6g} {UNITS[key]}")
    shutil.rmtree(WORK, ignore_errors=True)
    return {
        "correct": failed == 0 and not any(p.errors for p in probes),
        "attempted": len(passes),
        "failed": failed,
        "environment": env,
        "end_to_end": e2e,
        "per_layer": layers,
    }


# --------------------------------------------------------------------- spec

def spec() -> dict:
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u, _ in PER_LAYER],
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="with --workload all: write the results here")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not (ROOT / "src" / "sbnrg" / "cli.py").is_file():
        print(f"error: no sbnrg sources under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), started)
        values = res["per_layer"] if args.trace else res["end_to_end"]
        if values is None:
            print("error: no traced pass produced a trace", file=sys.stderr)
            return 1
        print(json.dumps({"correct": res["correct"],
                          "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": _metric_block(values)}))
        return 0

    record = {"seed": args.seed, "layer_map": {n: m for n, _, m in PER_LAYER},
              "workloads": {}}
    for name in WORKLOADS:
        res = run_workload(name, args.seed, args.seconds, True, time.monotonic())
        record["environment"] = res.pop("environment")
        record["workloads"][name] = res
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": all(w["correct"] for w in record["workloads"].values()),
                      "workloads": list(record["workloads"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
