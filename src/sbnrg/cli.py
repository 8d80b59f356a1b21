"""Command line front end.

Subcommands: map-circuit, chain, run, sweep, critical, oracle. Each takes
a JSON config (--config), writes CSV/JSON outputs plus a manifest with
sha256 digests into --out, and exits 0 on success, 2 on config errors,
3 on numerical failures (a MemoryError counts as one), 4 on I/O errors.
A DegeneracyError (a boundary multiplet wider than 2 n_s at truncation)
exits 2: its remedy is a config change, raising n_s or shrinking
degeneracy_tol, and the class subclasses ValueError. A config block's
keys are the fields of the dataclass it builds, in lower case. Unknown
config keys are errors, and so is a top-level block the subcommand does
not read; with --no-strict each one is ignored with a RuntimeWarning
naming its path. --workers N runs up to N sweep points at once, each on
its own thread; a failed point or an interrupt ends the running points
before their next iteration. Outputs are byte-identical across reruns and
worker counts; only manifest timestamps differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import threading
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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

_SWEEP_KEYS = {"parameter": str, "grid": dict}
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
    """The N* threshold, and the window of the pole fit."""

    threshold: float = criticality.DEFAULT_THRESHOLD
    window: float | None = None

    def __post_init__(self):
        for name in ("threshold", "window"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"critical.{name} must be positive")


@dataclass(frozen=True)
class CircuitSpec:
    """The circuit, and what map-circuit derives from it: omega_c (rad/s)
    adds the spin-boson model, i_uw (A) the microwave bias, line_length (m)
    the first n_modes modes of a line that long; ej_ec_threshold is the
    E_J/E_C ratio the qubit spectrum must exceed to count as valid."""

    params: CircuitParams
    omega_c: float | None = None
    delta_convention: str = "omega10"
    i_uw: float | None = None
    line_length: float | None = None
    n_modes: int = 10
    ej_ec_threshold: float = 100.0

    def __post_init__(self):
        if self.delta_convention not in DELTA_CONVENTIONS:
            raise ConfigError(
                f"circuit.delta_convention must be one of {DELTA_CONVENTIONS}")
        if self.line_length is not None and self.line_length <= 0:
            raise ConfigError("circuit.line_length must be positive")
        if self.n_modes < 1:
            raise ConfigError("circuit.n_modes must be at least 1")
        if self.n_modes > MAX_LINE_MODES:
            raise ConfigError(f"circuit.n_modes must be at most {MAX_LINE_MODES}")
        if self.omega_c is not None:  # the mapping execute runs, checked now
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # execute warns once
                map_to_spin_boson(self.params, self.omega_c,
                                  delta_convention=self.delta_convention)


@dataclass(frozen=True)
class RunConfig:
    mode: str
    out_dir: str
    workers: int
    model: SpinBosonParams | None = None
    nrg_config: nrg.NrgConfig | None = None
    circuit: CircuitSpec | None = None
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
}


def _grid_numbers(values: list, what: str) -> tuple[float, ...]:
    """The values as floats; each must be a number."""
    if not all(_is_number(v) for v in values):
        raise ConfigError(f"{what} must be numbers")
    return tuple(float(v) for v in values)


def _fields(cls):
    """(field, key, type) for each field of a config block's dataclass: the
    key is the field's name in lower case, the type X of X | None."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        tp = hints[f.name]
        if type(None) in get_args(tp):
            (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
        yield f, f.name.lower(), tp


def _keys(cls) -> dict:
    """The keys of cls's config block, each with its value's type; a field
    that is itself a dataclass adds that class's keys to the block."""
    keys = {}
    for _, key, tp in _fields(cls):
        keys.update(_keys(tp) if is_dataclass(tp) else {key: tp})
    return keys


def _value(value, tp, path: str):
    """The JSON value at path as the type tp. A tuple[X, ...] takes a list
    of X, and a tuple of n X a list of n X."""
    if get_origin(tp) is tuple:
        item, *rest = get_args(tp)
        size = None if rest == [Ellipsis] else 1 + len(rest)
        if not isinstance(value, list) or size not in (None, len(value)):
            raise ConfigError(f"{path} must be a list"
                              + (f" of {size}" if size else ""))
        return tuple(_value(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    check, noun = _TYPE_CHECKS[tp]
    if not check(value):
        raise ConfigError(f"{path} must be {noun}")
    return float(value) if tp is float else value


def _typed(block: dict, keys: dict, path: str, strict: bool) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    out = {}
    for key, value in block.items():
        if key not in keys:
            _unknown_key(f"{path}.{key}", strict)
            continue
        out[key] = _value(value, keys[key], f"{path}.{key}")
    return out


def _build(cls, block: dict, path: str):
    """cls from the typed config block at path. A dataclass field is built
    from the same block; any other takes its key, required if it has no
    default. cls's ValueError becomes a ConfigError that names path; its
    ConfigError, which names the key, passes unchanged."""
    kwargs = {}
    for f, key, tp in _fields(cls):
        if is_dataclass(tp):
            kwargs[f.name] = _build(tp, block, path)
        elif key in block:
            kwargs[f.name] = block[key]
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{key} is required")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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

    model = nrg_config = circuit = sweep = oracle_problem = None
    critical = CriticalSpec()

    def read(cls, name: str, keys: dict | None = None):
        block = _typed(raw.get(name, {}), keys or _keys(cls), name, strict)
        return _build(cls, block, name)

    if mode == "map-circuit":
        if "circuit" not in raw:
            raise ConfigError("map-circuit requires a circuit block")
        circuit = read(CircuitSpec, "circuit")
    elif mode == "oracle":
        if "oracle" not in raw:
            raise ConfigError("oracle mode requires an oracle block")
        oracle_problem = read(oracle.EdProblem, "oracle")
    else:
        if "model" not in raw:
            raise ConfigError(f"{mode} requires a model block")
        model = read(SpinBosonParams, "model")
        nrg_config = read(nrg.NrgConfig, "nrg")
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
            keys = _keys(CriticalSpec)
            if mode == "sweep":  # only critical fits the pole that a window bounds
                del keys["window"]
            critical = read(CriticalSpec, "critical", keys)

    return RunConfig(
        mode=mode,
        out_dir=out_dir,
        workers=workers,
        model=model,
        nrg_config=nrg_config,
        circuit=circuit,
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
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait  # 7-11 ms

    # the first error or an interrupt cancels the points not started, and
    # stop ends the running ones before their next iteration
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(nrg.run, model, cfg.nrg_config, stop=stop)
                   for model in models]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            stop.set()
            for future in futures:
                future.cancel()
    # the first failed point in grid order raises its own error, not a stopped one's
    for error in [f.exception() for f in futures if not f.cancelled()]:
        if error is not None and not isinstance(error, nrg.RunStopped):
            raise error
    return [f.result() for f in futures]


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
    circuit = cfg.circuit
    params, conv = circuit.params, circuit.delta_convention
    spec = qubit_spectrum(params, ej_ec_threshold=circuit.ej_ec_threshold)
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
    if circuit.omega_c is not None:
        sb = map_to_spin_boson(params, circuit.omega_c, delta_convention=conv)
        payload["spin_boson"] = {
            "delta": sb.delta, "epsilon": sb.epsilon, "alpha": sb.alpha,
            "s": sb.s, "omega_c": sb.omega_c,
            "delta_convention": conv,
        }
    if circuit.i_uw is not None:
        bias = microwave_bias(params, circuit.i_uw)
        payload["bias_j"] = bias
        if circuit.omega_c is not None:
            payload["bias"] = bias / (CODATA.h_bar * circuit.omega_c)
    if circuit.line_length is not None:
        lm = finite_line_modes(params, circuit.line_length, circuit.n_modes,
                               delta_convention=conv)
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


def _echo(obj) -> dict:
    """A config block's keys and the values its dataclass holds."""
    echo = {}
    for name, value in asdict(obj).items():
        if isinstance(value, dict):  # a nested dataclass: its keys are the block's
            echo.update(value)
        else:
            echo[name.lower()] = value
    return echo


def config_echo(cfg: RunConfig) -> dict:
    echo: dict = {"mode": cfg.mode, "out_dir": cfg.out_dir, "workers": cfg.workers}
    for name, block in (("model", cfg.model), ("nrg", cfg.nrg_config),
                        ("circuit", cfg.circuit), ("oracle", cfg.oracle_problem)):
        if block is not None:
            echo[name] = _echo(block)
    if cfg.sweep is not None:
        echo["sweep"] = {"parameter": cfg.sweep.parameter,
                         "values": list(cfg.sweep.values)}
    if cfg.mode in ("sweep", "critical"):
        echo["critical"] = _echo(cfg.critical)
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
