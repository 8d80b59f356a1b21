"""Command line front end.

Subcommands, each declared once in SUBCOMMANDS: map-circuit, chain, run,
sweep, critical, oracle. Each takes a JSON config (--config), writes
CSV/JSON outputs plus a manifest with sha256 digests into --out, and
exits 0 on success. FAILURES is the one place that maps a failure to its
exit code: 3 for a numerical failure (an ArithmeticError or a
MemoryError counts as one), 2 for a config error (any other ValueError),
4 for an I/O error; a config that cannot be read prints "i/o error:". A
config that is not UTF-8, is nested too deeply to parse, or derives a
value out of float range, circuit.json's included, is a config error
caught before --out exists. A JSON output that would hold inf or nan is
not written: it is a config error that names the file. A DegeneracyError (a
boundary multiplet wider than 2 n_s at truncation) exits 2: its remedy is
a config change, raising n_s, and the class subclasses ValueError. A
config block's keys are the fields of the flat dataclass it builds, in
lower case. An unknown config key is an error that names its path, and
so is a top-level block the subcommand does not read. --workers N
runs up to N sweep points at once, each on its own thread; a failed point
or an interrupt ends the running points before their next iteration. Data
files are byte-identical across reruns and worker counts; in the manifest
only the timestamps and the echoed out_dir and workers differ. The
manifest's config echo, without those two, is a config the same
subcommand accepts; a null reads as an unset optional field. map-circuit
builds circuit.json once, while the config is parsed, and warns then
of an alpha outside its window.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import threading
from dataclasses import MISSING, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, bath, criticality, nrg, oracle
from .circuit import (
    DELTA_CONVENTIONS,
    H_BAR,
    CircuitParams,
    SpinBosonParams,
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

# (exception types, exit code, message prefix) of each failure main reports;
# the first row that matches wins, and any other exception raises. The
# numerical row comes first, since a LinAlgError is a ValueError.
FAILURES = (
    ((FitError, criticality.NoCrossingError, nrg.NrgError, np.linalg.LinAlgError,
      ArithmeticError, MemoryError), EXIT_NUMERICAL, "numerical failure"),
    ((ValueError,), EXIT_CONFIG, "config error"),
    ((OSError,), EXIT_IO, "i/o error"),
)

_SWEEP_PARAMETERS = ("alpha", "delta", "epsilon")
MAX_GRID_POINTS = 10_000  # each point is a full NRG run


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """The swept model parameter and its grid, stored as {"values": [...]}."""

    parameter: str
    grid: dict

    def __post_init__(self):
        if self.parameter not in _SWEEP_PARAMETERS:
            raise ConfigError(f"sweep.parameter must be one of {_SWEEP_PARAMETERS}")
        values = _resolve_grid(self.grid, "sweep.grid")
        object.__setattr__(self, "grid", {"values": list(values)})

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.grid["values"])


@dataclass(frozen=True)
class CriticalSpec:
    """The window of the pole fit."""

    window: float | None = None

    def __post_init__(self):
        if self.window is not None and self.window <= 0:
            raise ConfigError("critical.window must be positive")


@dataclass(frozen=True)
class CircuitSpec(CircuitParams):
    """The circuit, and what map-circuit derives from it: omega_c (rad/s)
    adds the spin-boson model of the semi-infinite line, i_uw (A) the
    microwave bias. circuit_json, the file map-circuit writes, is built
    once, while the config is parsed."""

    omega_c: float | None = None
    delta_convention: str = "omega10"
    i_uw: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.delta_convention not in DELTA_CONVENTIONS:
            raise ConfigError(
                f"circuit.delta_convention must be one of {DELTA_CONVENTIONS}")
        self.circuit_json  # a value out of float range fails here

    @functools.cached_property
    def circuit_json(self) -> tuple[str, str]:
        return _json_file("circuit.json", _circuit_payload(self))


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
    points: tuple[SpinBosonParams, ...] = ()  # each sweep point's model


# each config block: the RunConfig field it sets, and the dataclass whose
# fields are its keys
BLOCKS = {
    "model": ("model", SpinBosonParams),
    "nrg": ("nrg_config", nrg.NrgConfig),
    "circuit": ("circuit", CircuitSpec),
    "sweep": ("sweep", SweepSpec),
    "critical": ("critical", CriticalSpec),
    "oracle": ("oracle_problem", oracle.EdProblem),
}


@dataclass(frozen=True)
class Subcommand:
    """A subcommand's help, the top-level blocks its config reads (any other
    is an unknown key) and those it requires, and its handler, which yields
    each output file as a (name, text) pair."""

    help: str
    reads: tuple[str, ...]
    requires: tuple[str, ...]
    handler: Callable[[RunConfig], Iterator[tuple[str, str]]]


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
    """(field, key, type, optional) for each field of a config block's
    dataclass: the key is the field's name in lower case, the type X of
    X | None, and optional whether the field is an X | None."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        tp = hints[f.name]
        optional = type(None) in get_args(tp)
        if optional:
            (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
        yield f, f.name.lower(), tp, optional


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


def _typed(block: dict, cls, path: str) -> dict:
    """The config block at path, each value checked against and converted to
    the type of cls's field its key names."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    keys = {key: (tp, optional) for _, key, tp, optional in _fields(cls)}
    out = {}
    for key, value in block.items():
        if key not in keys:
            raise ConfigError(f"unknown key {path}.{key}")
        tp, optional = keys[key]
        if value is None and optional:  # null reads as the key left out
            continue
        out[key] = _value(value, tp, f"{path}.{key}")
    return out


def _build(cls, block: dict, path: str):
    """cls from the typed config block at path: each field takes its key,
    required if it has no default. cls's ValueError or ArithmeticError
    becomes a ConfigError that names path; its ConfigError, which names the
    key, passes unchanged."""
    kwargs = {}
    for f, key, _, _ in _fields(cls):
        if key in block:
            kwargs[f.name] = block[key]
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{key} is required")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except ArithmeticError as exc:
        raise ConfigError(f"{path}: a value derived from it leaves the float "
                          f"range: {exc}") from None


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


def _sweep_points(mode: str, built: dict) -> tuple[SpinBosonParams, ...]:
    """Each sweep point's model, the model block with the swept parameter set
    to the point's value; the one place that checks rules joining blocks."""
    sweep = built.get("sweep")
    if sweep is None:
        return ()
    if mode == "critical" and sweep.parameter != "alpha":
        raise ConfigError("critical mode sweeps alpha only")
    try:
        points = tuple(replace(built["model"], **{sweep.parameter: value})
                       for value in sweep.values)
    except ValueError as exc:
        raise ConfigError(f"sweep.grid: {exc}") from None
    if mode == "critical" and len(points) < FIT_MIN_POINTS:
        raise ConfigError(
            f"sweep.grid: critical needs at least {FIT_MIN_POINTS} "
            "alpha values to fit the divergence"
        )
    if built["nrg_config"].n_iter < 2:
        raise ConfigError(f"nrg.n_iter must be at least 2 for {mode}: N* needs "
                          "two recorded iterations")
    return points


def parse_config(text: str, mode: str, out_dir: str = "./out",
                 workers: int = 1) -> RunConfig:
    """Validate the JSON config text against the chosen subcommand."""
    if mode not in SUBCOMMANDS:
        raise ConfigError(f"unknown mode {mode!r}")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    command = SUBCOMMANDS[mode]
    for key in raw:
        if key != "mode" and key not in command.reads:
            raise ConfigError(f"unknown key {key}")
    if "mode" in raw:
        if not isinstance(raw["mode"], str):
            raise ConfigError("mode must be a string")
        if raw["mode"] != mode:
            raise ConfigError(
                f"config mode {raw['mode']!r} conflicts with subcommand {mode!r}"
            )

    built = {}
    for name in command.reads:
        if name in command.requires and name not in raw:
            raise ConfigError(f"{mode} requires the {name} block")
        field, cls = BLOCKS[name]
        block = _typed(raw.get(name, {}), cls, name)
        built[field] = _build(cls, block, name)
    return RunConfig(mode=mode, out_dir=out_dir, workers=workers,
                     points=_sweep_points(mode, built), **built)


def _fmt(x: float) -> str:
    # 17 significant digits: exact round-trip for binary64
    return f"{x:.16e}"


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _json_file(name: str, obj) -> tuple[str, str]:
    """The file name with obj as its JSON text. JSON holds no inf or nan,
    so a non-finite float is a ConfigError that names the file."""
    try:
        return name, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigError(f"cannot write {name}: {exc}") from None


def _run_sweep_points(cfg: RunConfig) -> list[nrg.NrgResult]:
    models = cfg.points
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


def _flow_csv(result: nrg.NrgResult) -> str:
    rows = ((str(rec.iteration), str(idx), _fmt(energy))
            for rec in result.flow.records
            for idx, energy in enumerate(rec.energies))
    return _csv("iteration,level_index,scaled_energy", rows)


def _circuit_payload(circuit: CircuitSpec) -> dict:
    """circuit.json's contents: the qubit spectrum, and what omega_c and
    i_uw add."""
    conv = circuit.delta_convention
    spec = qubit_spectrum(circuit)
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
        sb = map_to_spin_boson(circuit, circuit.omega_c, delta_convention=conv)
        payload["spin_boson"] = {
            "delta": sb.delta, "epsilon": sb.epsilon, "alpha": sb.alpha,
            "s": sb.s, "omega_c": circuit.omega_c,
            "delta_convention": conv,
        }
    if circuit.i_uw is not None:
        bias = microwave_bias(circuit, circuit.i_uw)
        payload["bias_j"] = bias
        if circuit.omega_c is not None:
            payload["bias"] = bias / (H_BAR * circuit.omega_c)
    return payload


def _do_map_circuit(cfg: RunConfig):
    yield cfg.circuit.circuit_json


def _do_chain(cfg: RunConfig):
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

    yield "chain.csv", _csv("n,xi,gamma,eps,t", rows())
    meta = {"c0": chain.c0, "n_sites": chain.n_sites, "digest": chain.digest()}
    yield _json_file("chain.json", meta)


def _do_run(cfg: RunConfig):
    result = nrg.run(cfg.model, cfg.nrg_config)
    yield "flow.csv", _flow_csv(result)
    payload = {
        "sigma_z": result.sigma_z_gs,
        "sigma_x": result.sigma_x_gs,
        "delta_p": result.delta_p,
        "ground_energy": result.ground_energy,
        "chain_digest": result.chain_digest,
    }
    yield _json_file("observables.json", payload)


def _nstar_or_nan(result: nrg.NrgResult) -> float:
    try:
        return criticality.extract_nstar(result.flow).n_star
    except criticality.NoCrossingError:
        return float("nan")


def _do_sweep(cfg: RunConfig):
    results = _run_sweep_points(cfg)

    def rows():
        for res in results:
            p = res.params
            yield (
                _fmt(p.alpha), _fmt(p.delta), _fmt(p.epsilon),
                _fmt(_nstar_or_nan(res)),
                _fmt(res.delta_p),
                criticality.classify_phase(res.delta_p),
            )

    yield "sweep.csv", _csv("alpha,delta,epsilon,n_star,delta_p,phase", rows())


def _do_critical(cfg: RunConfig):
    results = _run_sweep_points(cfg)
    for i, res in enumerate(results):
        yield f"flow_{i:03d}.csv", _flow_csv(res)
    points = [criticality.extract_nstar(res.flow) for res in results]
    yield "points.csv", _csv(
        "alpha,n_star", ((_fmt(pt.alpha), _fmt(pt.n_star)) for pt in points))
    fit = criticality.fit_alpha_c(points, window=cfg.critical.window)
    payload = {
        "a": fit.a, "b": fit.b, "alpha_c": fit.alpha_c, "rss": fit.rss,
        "threshold": criticality.THRESHOLD, "n_points": len(points),
    }
    yield _json_file("fit.json", payload)


def _do_oracle(cfg: RunConfig):
    res = oracle.exact_diag(cfg.oracle_problem)
    payload = {
        "ground_energy": res.ground_energy,
        "gap": res.gap,
        "sigma_z": res.sigma_z,
        "sigma_x": res.sigma_x,
        "converged": res.converged,
    }
    yield _json_file("oracle.json", payload)


SUBCOMMANDS = {
    "map-circuit": Subcommand(
        "convert SI circuit parameters to spin-boson parameters",
        ("circuit",), ("circuit",), _do_map_circuit),
    "chain": Subcommand(
        "emit the discretized star and Wilson chain as CSV",
        ("model", "nrg"), ("model",), _do_chain),
    "run": Subcommand(
        "single NRG run: flow CSV plus ground-state observables",
        ("model", "nrg"), ("model",), _do_run),
    "sweep": Subcommand(
        "NRG runs over a parameter grid, one CSV row per point",
        ("model", "nrg", "sweep"), ("model", "sweep"), _do_sweep),
    "critical": Subcommand(
        "alpha sweep, N* extraction and alpha_c extrapolation",
        ("model", "nrg", "sweep", "critical"), ("model", "sweep"), _do_critical),
    "oracle": Subcommand(
        "dense exact diagonalization of a few-mode instance",
        ("oracle",), ("oracle",), _do_oracle),
}


def _echo(obj) -> dict:
    """The keys of obj's config block, each with the value obj holds."""
    return {key: getattr(obj, f.name) for f, key, _, _ in _fields(type(obj))}


def config_echo(cfg: RunConfig) -> dict:
    """Each block the subcommand reads, with every key it reads; without
    out_dir and workers, a config that parses back to cfg."""
    echo: dict = {"mode": cfg.mode, "out_dir": cfg.out_dir, "workers": cfg.workers}
    for name in SUBCOMMANDS[cfg.mode].reads:
        echo[name] = _echo(getattr(cfg, BLOCKS[name][0]))
    return echo


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def execute(cfg: RunConfig) -> dict:
    """Run the subcommand's handler, write each file it yields into out_dir,
    then the manifest, which lists each file with its sha256.

    If the handler raises an Exception, the files written so far stay on
    disk and the manifest, listing them, records the failure before the
    exception propagates. An interrupt writes no manifest.
    """
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:
        raise OSError(f"output path is not a directory: {exc}") from None
    outputs: list = []
    manifest = {
        "tool": "sbnrg",
        "version": __version__,
        "mode": cfg.mode,
        "config": config_echo(cfg),
        "started_utc": _utc_now(),
        "outputs": outputs,
    }
    try:
        for name, text in SUBCOMMANDS[cfg.mode].handler(cfg):
            data = text.encode()
            (out / name).write_bytes(data)
            outputs.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
        manifest["status"] = "ok"
    except Exception as exc:
        manifest["status"] = "failed"
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if "status" in manifest:  # not set by an interrupt
            manifest["finished_utc"] = _utc_now()
            name, text = _json_file("run_manifest.json", manifest)
            (out / name).write_text(text)
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbnrg",
        description="Spin-boson NRG pipelines: circuit mapping, chains, "
                    "flows, sweeps, criticality, exact-diagonalization checks.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, command in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="./out", help="output directory")
        sp.add_argument("--workers", type=int, default=1,
                        help="sweep points run at once, each on its own thread, "
                             "at most one per CPU")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")  # JSON is UTF-8
        cfg = parse_config(text, mode=args.mode, out_dir=args.out,
                           workers=args.workers)
        manifest = execute(cfg)
    except Exception as exc:
        for types, code, prefix in FAILURES:
            if isinstance(exc, types):
                print(f"{prefix}: {str(exc) or type(exc).__name__}",
                      file=sys.stderr)
                return code
        raise
    for entry in manifest["outputs"]:
        print(f"wrote {Path(cfg.out_dir) / entry['path']}")
    print(f"wrote {Path(cfg.out_dir) / 'run_manifest.json'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
