"""Command line front end.

Subcommands: map-circuit, chain, run, sweep, critical, oracle. Each takes
a JSON config (--config), writes CSV/JSON outputs plus a manifest with
sha256 digests into --out, and exits 0 on success, 2 on config errors,
3 on numerical failures (a MemoryError counts as one), 4 on I/O errors.
A DegeneracyError (a boundary multiplet wider than 2 n_s at truncation)
exits 2: its remedy is a config change, raising n_s or shrinking
degeneracy_tol, and the class subclasses ValueError. Unknown config keys
are errors, and so is a top-level block the subcommand does not read;
with --no-strict each one is ignored with a RuntimeWarning naming its
path. --workers N runs up to N sweep points at once, each on its own
thread. Outputs are byte-identical across reruns and worker counts; only
manifest timestamps differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, bath, criticality, nrg, oracle
from .circuit import (
    CODATA,
    DELTA_CONVENTIONS,
    CircuitParams,
    SpinBosonParams,
    finite_line_modes,
    map_to_spin_boson,
    microwave_bias,
    qubit_spectrum,
)
from .numerics import FIT_MIN_POINTS, FitError

__all__ = ["ConfigError", "RunConfig", "parse_config", "execute", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

MODES = ("map-circuit", "chain", "run", "sweep", "critical", "oracle")

_MODEL_KEYS = {f.name: float for f in fields(SpinBosonParams)}
_NRG_KEYS = {"lambda": float, "n_s": int, "n_b": int, "n_iter": int,
             "degeneracy_tol": float, "flow_levels": int, "n_star": int}
_CIRCUIT_KEYS = {"c_j": float, "c_0": float, "i_0": float, "i_b": float,
                 "l": float, "c": float, "omega_c": float,
                 "delta_convention": str, "i_uw": float, "line_length": float,
                 "n_modes": int, "ej_ec_threshold": float}
_SWEEP_KEYS = {"parameter": str, "grid": dict}
_CRITICAL_KEYS = {"threshold": float, "window": float}
_ORACLE_KEYS = {"delta": float, "epsilon": float, "modes": list, "n_max": int}
# the top-level keys each subcommand reads; any other is an unknown key
_MODE_KEYS = {
    "map-circuit": {"mode", "circuit"},
    "chain": {"mode", "model", "nrg"},
    "run": {"mode", "model", "nrg"},
    "sweep": {"mode", "model", "nrg", "sweep", "critical"},
    "critical": {"mode", "model", "nrg", "sweep", "critical"},
    "oracle": {"mode", "oracle"},
}

_SWEEP_PARAMETERS = ("alpha", "delta", "epsilon")
MAX_GRID_POINTS = 10_000  # each point is a full NRG run
MAX_LINE_MODES = 10_000  # each mode is one entry of circuit.json


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """The swept parameter, its grid, and each grid point's model."""

    parameter: str
    values: tuple[float, ...]
    models: tuple[SpinBosonParams, ...]


@dataclass(frozen=True)
class CriticalSpec:
    threshold: float = criticality.DEFAULT_THRESHOLD
    window: float | None = None


@dataclass(frozen=True)
class RunConfig:
    mode: str
    out_dir: str
    workers: int
    model: SpinBosonParams | None = None
    nrg_config: nrg.NrgConfig | None = None
    circuit: CircuitParams | None = None
    circuit_block: dict | None = None
    sweep: SweepSpec | None = None
    critical: CriticalSpec = CriticalSpec()
    oracle_problem: oracle.EdProblem | None = None


def _unknown_key(name: str, strict: bool) -> None:
    if strict:
        raise ConfigError(f"unknown key {name}")
    warnings.warn(f"ignoring unknown key {name}", RuntimeWarning, stacklevel=3)


def _is_number(value) -> bool:
    """A JSON number that fits a finite float: int or float, never bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# the test of a value of each declared key type, and the noun its error names
_TYPE_CHECKS = {
    float: (_is_number, "a number"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    str: (lambda v: isinstance(v, str), "a string"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    list: (lambda v: isinstance(v, list), "a list"),
}


def _grid_numbers(values: list, what: str) -> tuple[float, ...]:
    """The values as floats; each must be a number."""
    if not all(_is_number(v) for v in values):
        raise ConfigError(f"{what} must be numbers")
    return tuple(float(v) for v in values)


def _typed(block: dict, allowed: dict, path: str, strict: bool) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    out = {}
    for key, value in block.items():
        if key not in allowed:
            _unknown_key(f"{path}.{key}", strict)
            continue
        check, noun = _TYPE_CHECKS[allowed[key]]
        if not check(value):
            raise ConfigError(f"{path}.{key} must be {noun}")
        out[key] = float(value) if allowed[key] is float else value
    return out


def _resolve_grid(grid: dict, path: str) -> tuple[float, ...]:
    keys = set(grid)
    if keys == {"values"}:
        vals = grid["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"{path}.values must be a non-empty list")
        if len(vals) > MAX_GRID_POINTS:
            raise ConfigError(f"{path} has more than {MAX_GRID_POINTS} points")
        out = _grid_numbers(vals, f"{path}.values")
    elif keys == {"from", "to", "step"}:
        lo, hi, step = _grid_numbers(
            [grid["from"], grid["to"], grid["step"]], f"{path} bounds")
        if step == 0:
            raise ConfigError(f"{path}.step must be non-zero")
        span = (hi - lo) / step
        if not math.isfinite(span):
            raise ConfigError(f"{path}: span over step overflows a float")
        count = int(round(span)) + 1
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"{path} has more than {MAX_GRID_POINTS} points")
        if count < 1 or abs(lo + (count - 1) * step - hi) > 1e-9 * abs(step):
            raise ConfigError(f"{path}: step does not divide the span")
        out = tuple(lo + i * step for i in range(count))
    else:
        raise ConfigError(
            f"{path} needs either 'values' or 'from'/'to'/'step'"
        )
    diffs = [out[i + 1] - out[i] for i in range(len(out) - 1)]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ConfigError(f"{path} must be strictly monotone")
    return out


def _build_model(block: dict) -> SpinBosonParams:
    if "delta" not in block:
        raise ConfigError("model.delta is required")
    try:
        return SpinBosonParams(**block)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def _build_circuit(block: dict) -> CircuitParams:
    names = [f.name for f in fields(CircuitParams)]
    for name in names:
        if name not in block:
            raise ConfigError(f"circuit.{name} is required")
    try:
        return CircuitParams(**{name: block[name] for name in names})
    except ValueError as exc:
        raise ConfigError(f"circuit: {exc}") from None


def _build_nrg(block: dict) -> nrg.NrgConfig:
    kwargs = dict(block)
    if "lambda" in kwargs:
        kwargs["Lambda"] = kwargs.pop("lambda")
    try:
        return nrg.NrgConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"nrg: {exc}") from None


def _build_oracle(block: dict) -> oracle.EdProblem:
    for key in ("delta", "modes"):
        if key not in block:
            raise ConfigError(f"oracle.{key} is required")
    modes = []
    for i, pair in enumerate(block["modes"]):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(_is_number(x) for x in pair)):
            raise ConfigError(f"oracle.modes[{i}] must be a [frequency, coupling] pair")
        modes.append((float(pair[0]), float(pair[1])))
    try:
        return oracle.EdProblem(
            delta=block["delta"],
            epsilon=block.get("epsilon", 0.0),
            modes=tuple(modes),
            n_max=block.get("n_max", 20),
        )
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from None


def parse_config(text: str, mode: str, strict: bool = True,
                 out_dir: str = "./out", workers: int = 1) -> RunConfig:
    """Validate the JSON config text against the chosen subcommand."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    for key in raw:
        if key not in _MODE_KEYS[mode]:
            _unknown_key(key, strict)
    raw = {key: value for key, value in raw.items() if key in _MODE_KEYS[mode]}
    if "mode" in raw:
        if not isinstance(raw["mode"], str):
            raise ConfigError("mode must be a string")
        if raw["mode"] != mode:
            raise ConfigError(
                f"config mode {raw['mode']!r} conflicts with subcommand {mode!r}"
            )

    model = None
    nrg_config = None
    circuit = None
    circuit_block = None
    sweep = None
    critical = CriticalSpec()
    oracle_problem = None

    if mode == "map-circuit":
        if "circuit" not in raw:
            raise ConfigError("map-circuit requires a circuit block")
        circuit_block = _typed(raw["circuit"], _CIRCUIT_KEYS, "circuit", strict)
        circuit = _build_circuit(circuit_block)
        conv = circuit_block.get("delta_convention", "omega10")
        if conv not in DELTA_CONVENTIONS:
            raise ConfigError(f"circuit.delta_convention must be one of {DELTA_CONVENTIONS}")
        if circuit_block.get("line_length", 1.0) <= 0:
            raise ConfigError("circuit.line_length must be positive")
        if circuit_block.get("n_modes", 10) < 1:
            raise ConfigError("circuit.n_modes must be at least 1")
        if circuit_block.get("n_modes", 10) > MAX_LINE_MODES:
            raise ConfigError(f"circuit.n_modes must be at most {MAX_LINE_MODES}")
        if "omega_c" in circuit_block:  # the mapping execute runs, checked now
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # execute warns once
                    map_to_spin_boson(circuit, circuit_block["omega_c"],
                                      delta_convention=conv)
            except ValueError as exc:
                raise ConfigError(f"circuit: {exc}") from None
    elif mode == "oracle":
        if "oracle" not in raw:
            raise ConfigError("oracle mode requires an oracle block")
        oracle_problem = _build_oracle(
            _typed(raw["oracle"], _ORACLE_KEYS, "oracle", strict)
        )
    else:
        if "model" not in raw:
            raise ConfigError(f"{mode} requires a model block")
        model = _build_model(_typed(raw["model"], _MODEL_KEYS, "model", strict))
        nrg_config = _build_nrg(_typed(raw.get("nrg", {}), _NRG_KEYS, "nrg", strict))
        if mode in ("sweep", "critical"):
            if "sweep" not in raw:
                raise ConfigError(f"{mode} requires a sweep block")
            sblock = _typed(raw["sweep"], _SWEEP_KEYS, "sweep", strict)
            if "parameter" not in sblock or "grid" not in sblock:
                raise ConfigError("sweep needs 'parameter' and 'grid'")
            if sblock["parameter"] not in _SWEEP_PARAMETERS:
                raise ConfigError(
                    f"sweep.parameter must be one of {_SWEEP_PARAMETERS}"
                )
            if mode == "critical" and sblock["parameter"] != "alpha":
                raise ConfigError("critical mode sweeps alpha only")
            values = _resolve_grid(sblock["grid"], "sweep.grid")
            try:
                models = tuple(replace(model, **{sblock["parameter"]: value})
                               for value in values)
            except ValueError as exc:
                raise ConfigError(f"sweep.grid: {exc}") from None
            sweep = SweepSpec(sblock["parameter"], values, models)
            if mode == "critical" and len(values) < FIT_MIN_POINTS:
                raise ConfigError(
                    f"sweep.grid: critical needs at least {FIT_MIN_POINTS} "
                    "alpha values to fit the divergence"
                )
        if "critical" in raw:
            cblock = _typed(raw["critical"], _CRITICAL_KEYS, "critical", strict)
            for key, value in cblock.items():
                if value <= 0:
                    raise ConfigError(f"critical.{key} must be positive")
            critical = CriticalSpec(
                threshold=cblock.get("threshold", criticality.DEFAULT_THRESHOLD),
                window=cblock.get("window"),
            )

    return RunConfig(
        mode=mode,
        out_dir=out_dir,
        workers=workers,
        model=model,
        nrg_config=nrg_config,
        circuit=circuit,
        circuit_block=circuit_block,
        sweep=sweep,
        critical=critical,
        oracle_problem=oracle_problem,
    )


def _fmt(x: float) -> str:
    # 17 significant digits: exact round-trip for binary64
    return f"{x:.16e}"


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_sweep_points(cfg: RunConfig) -> list[nrg.NrgResult]:
    models = cfg.sweep.models
    configs = [cfg.nrg_config] * len(models)
    threads = min(cfg.workers, len(models), nrg.usable_cpus())
    if threads == 1:  # on this thread, where each run may start its sector thread
        return list(map(nrg.run, models, configs))
    from concurrent.futures import ThreadPoolExecutor  # 7-11 ms to import

    # map yields in grid order, and a point's error cancels the points not started
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(nrg.run, models, configs))


def _flow_rows(result: nrg.NrgResult):
    for rec in result.flow.records:
        for idx, energy in enumerate(rec.energies):
            yield (str(rec.iteration), str(idx), _fmt(energy))


def _emit(out: Path, name: str, writer, outputs: list) -> Path:
    path = out / name
    writer(path)
    outputs.append({"path": name, "sha256": _digest(path)})
    return path


def _do_map_circuit(cfg: RunConfig, out: Path, outputs: list) -> None:
    params, block = cfg.circuit, cfg.circuit_block
    conv = block.get("delta_convention", "omega10")
    threshold = block.get("ej_ec_threshold", 100.0)
    spec = qubit_spectrum(params, ej_ec_threshold=threshold)
    payload = {
        "qubit": {
            "omega_p": spec.omega_p,
            "omega_10": spec.omega_10,
            "barrier_height_j": spec.barrier_height,
            "delta_j": spec.delta,
            "e_j": spec.e_j,
            "e_c": spec.e_c,
            "barrier_ratio": spec.barrier_ratio,
            "ej_ec_ratio": spec.ej_ec_ratio,
            "is_valid": spec.is_valid,
        }
    }
    if "omega_c" in block:
        sb = map_to_spin_boson(params, block["omega_c"], delta_convention=conv)
        payload["spin_boson"] = {
            "delta": sb.delta, "epsilon": sb.epsilon, "alpha": sb.alpha,
            "s": sb.s, "omega_c": sb.omega_c,
            "delta_convention": conv,
        }
    if "i_uw" in block:
        bias = microwave_bias(params, block["i_uw"])
        payload["bias_j"] = bias
        if "omega_c" in block:
            payload["bias"] = bias / (CODATA.h_bar * block["omega_c"])
    if "line_length" in block:
        lm = finite_line_modes(
            params, block["line_length"], block.get("n_modes", 10),
            delta_convention=conv,
        )
        payload["line_modes"] = [
            {"n": i + 1, "omega": w, "lambda_j": lam}
            for i, (w, lam) in enumerate(lm.modes)
        ]
        payload["mode_spacing"] = lm.spacing
    _emit(out, "circuit.json", lambda p: _write_json(p, payload), outputs)


def _do_chain(cfg: RunConfig, out: Path, outputs: list) -> None:
    ncfg = cfg.nrg_config
    star = bath.discretize(cfg.model, ncfg.Lambda, ncfg.chain_length)
    chain = bath.chain_map(star)

    def rows():
        for n in range(star.n_modes):
            yield (
                str(n),
                _fmt(float(star.xi[n])),
                _fmt(float(star.gamma[n])),
                _fmt(float(chain.eps[n])) if n < chain.n_sites else "",
                _fmt(float(chain.t[n])) if n < chain.n_sites - 1 else "",
            )

    _emit(out, "chain.csv",
          lambda p: _write_csv(p, "n,xi,gamma,eps,t", rows()), outputs)
    meta = {"c0": chain.c0, "n_sites": chain.n_sites, "digest": chain.digest()}
    _emit(out, "chain.json", lambda p: _write_json(p, meta), outputs)


def _do_run(cfg: RunConfig, out: Path, outputs: list) -> None:
    result = nrg.run(cfg.model, cfg.nrg_config)
    _emit(out, "flow.csv",
          lambda p: _write_csv(p, "iteration,level_index,scaled_energy",
                               _flow_rows(result)), outputs)
    payload = {
        "sigma_z": result.sigma_z_gs,
        "sigma_x": result.sigma_x_gs,
        "delta_p": result.delta_p,
        "ground_energy": result.ground_energy,
        "chain_digest": result.chain_digest,
    }
    _emit(out, "observables.json", lambda p: _write_json(p, payload), outputs)


def _nstar_or_nan(result: nrg.NrgResult, threshold: float) -> float:
    try:
        return criticality.extract_nstar(result.flow, threshold).n_star
    except criticality.NoCrossingError:
        return float("nan")


def _do_sweep(cfg: RunConfig, out: Path, outputs: list) -> None:
    results = _run_sweep_points(cfg)

    def rows():
        for res in results:
            p = res.params
            yield (
                _fmt(p.alpha), _fmt(p.delta), _fmt(p.epsilon),
                _fmt(_nstar_or_nan(res, cfg.critical.threshold)),
                _fmt(res.delta_p),
                criticality.classify_phase(res.delta_p).label,
            )

    _emit(out, "sweep.csv",
          lambda p: _write_csv(
              p, "alpha,delta,epsilon,n_star,delta_p,phase", rows()), outputs)


def _do_critical(cfg: RunConfig, out: Path, outputs: list) -> None:
    results = _run_sweep_points(cfg)
    for i, res in enumerate(results):
        _emit(out, f"flow_{i:03d}.csv",
              lambda p, r=res: _write_csv(
                  p, "iteration,level_index,scaled_energy", _flow_rows(r)),
              outputs)
    points = [
        criticality.extract_nstar(res.flow, cfg.critical.threshold)
        for res in results
    ]
    _emit(out, "points.csv",
          lambda p: _write_csv(
              p, "alpha,n_star",
              ((_fmt(pt.alpha), _fmt(pt.n_star)) for pt in points)), outputs)
    fit = criticality.fit_alpha_c(points, window=cfg.critical.window)
    payload = {
        "a": fit.a, "b": fit.b, "alpha_c": fit.alpha_c, "rss": fit.rss,
        "threshold": cfg.critical.threshold, "n_points": len(points),
    }
    _emit(out, "fit.json", lambda p: _write_json(p, payload), outputs)


def _do_oracle(cfg: RunConfig, out: Path, outputs: list) -> None:
    res = oracle.exact_diag(cfg.oracle_problem)
    payload = {
        "ground_energy": res.ground_energy,
        "gap": res.gap,
        "sigma_z": res.sigma_z,
        "sigma_x": res.sigma_x,
        "converged": res.converged,
    }
    _emit(out, "oracle.json", lambda p: _write_json(p, payload), outputs)


_HANDLERS = {
    "map-circuit": _do_map_circuit,
    "chain": _do_chain,
    "run": _do_run,
    "sweep": _do_sweep,
    "critical": _do_critical,
    "oracle": _do_oracle,
}


def config_echo(cfg: RunConfig) -> dict:
    echo: dict = {"mode": cfg.mode, "out_dir": cfg.out_dir, "workers": cfg.workers}
    if cfg.model is not None:
        echo["model"] = asdict(cfg.model)
    if cfg.nrg_config is not None:
        d = asdict(cfg.nrg_config)
        d["lambda"] = d.pop("Lambda")
        echo["nrg"] = d
    if cfg.circuit_block is not None:
        echo["circuit"] = dict(cfg.circuit_block)
    if cfg.sweep is not None:
        echo["sweep"] = {"parameter": cfg.sweep.parameter,
                         "values": list(cfg.sweep.values)}
    if cfg.mode in ("sweep", "critical"):
        echo["critical"] = {"threshold": cfg.critical.threshold,
                            "window": cfg.critical.window}
    if cfg.oracle_problem is not None:
        echo["oracle"] = {
            "delta": cfg.oracle_problem.delta,
            "epsilon": cfg.oracle_problem.epsilon,
            "modes": [list(m) for m in cfg.oracle_problem.modes],
            "n_max": cfg.oracle_problem.n_max,
        }
    return echo


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def execute(cfg: RunConfig) -> dict:
    """Dispatch to the mode handler and write the manifest.

    On failure the partial outputs stay on disk and the manifest records
    the failure point before the exception propagates.
    """
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:
        raise OSError(f"output path is not a directory: {exc}") from None
    started = _utc_now()
    outputs: list = []
    manifest = {
        "tool": "sbnrg",
        "version": __version__,
        "mode": cfg.mode,
        "config": config_echo(cfg),
        "started_utc": started,
        "outputs": outputs,
    }
    try:
        _HANDLERS[cfg.mode](cfg, out, outputs)
    except Exception as exc:
        manifest["finished_utc"] = _utc_now()
        manifest["status"] = "failed"
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        _write_json(out / "run_manifest.json", manifest)
        raise
    manifest["finished_utc"] = _utc_now()
    manifest["status"] = "ok"
    _write_json(out / "run_manifest.json", manifest)
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbnrg",
        description="Spin-boson NRG pipelines: circuit mapping, chains, "
                    "flows, sweeps, criticality, exact-diagonalization checks.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    helps = {
        "map-circuit": "convert SI circuit parameters to spin-boson parameters",
        "chain": "emit the discretized star and Wilson chain as CSV",
        "run": "single NRG run: flow CSV plus ground-state observables",
        "sweep": "NRG runs over a parameter grid, one CSV row per point",
        "critical": "alpha sweep, N* extraction and alpha_c extrapolation",
        "oracle": "dense exact diagonalization of a few-mode instance",
    }
    for name in MODES:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="./out", help="output directory")
        sp.add_argument("--workers", type=int, default=1,
                        help="sweep points run at once, each on its own thread, "
                             "at most one per CPU")
        sp.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=True, help="reject unknown config keys")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(text, mode=args.mode, strict=args.strict,
                           out_dir=args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest = execute(cfg)
    except (FitError, criticality.NoCrossingError,
            nrg.NrgError, np.linalg.LinAlgError, FloatingPointError,
            MemoryError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for entry in manifest["outputs"]:
        print(f"wrote {Path(cfg.out_dir) / entry['path']}")
    print(f"wrote {Path(cfg.out_dir) / 'run_manifest.json'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
