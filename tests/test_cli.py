import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from sbnrg import cli
from sbnrg.bath import chain_map, discretize
from sbnrg.circuit import (
    DELTA_CONVENTIONS,
    CircuitParams,
    SpinBosonParams,
    qubit_spectrum,
)
from sbnrg.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    CircuitSpec,
    ConfigError,
    CriticalSpec,
    SweepSpec,
    config_echo,
    execute,
    main,
    parse_config,
)
from sbnrg.nrg import DegeneracyError, NrgConfig, NrgError, run
from sbnrg.oracle import EdProblem, exact_diag

from conftest import CRITICAL_PAYLOAD


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# Runs sbnrg critical serially, then with --workers 2, in one process, and
# prints the thread count of every thread pool built, in order. A pool
# built on a sweep thread fails that thread's point, and with it the run.
SERIAL_THEN_WORKERS = """
import concurrent.futures, sys, threading
from pathlib import Path


class MainThreadPool(concurrent.futures.ThreadPoolExecutor):
    built = []

    def __init__(self, max_workers):
        if threading.current_thread() is not threading.main_thread():
            raise AssertionError("a sweep thread built a sector pool")
        MainThreadPool.built.append(max_workers)
        super().__init__(max_workers)


concurrent.futures.ThreadPoolExecutor = MainThreadPool
from sbnrg.cli import main

config, out = sys.argv[1], Path(sys.argv[2])
assert main(["critical", "--config", config, "--out", str(out / "serial")]) == 0
assert main(["critical", "--config", config, "--out", str(out / "workers"),
             "--workers", "2"]) == 0
print(*MainThreadPool.built)
"""


# Runs a 4-point sbnrg sweep on 2 threads, each iteration slowed to 0.1 s,
# sends SIGINT to the main thread once the two running points have made 4
# iterations between them, and prints how many they made in all.
INTERRUPTED_SWEEP = """
import itertools, os, signal, sys, threading, time
from sbnrg import cli, nrg

real_iterate, calls, count = nrg.iterate, [], itertools.count(1)


def slow_iterate(*args, **kwargs):
    calls.append(threading.get_ident())
    if next(count) == 4:  # one C call: exactly one thread sees 4
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    time.sleep(0.1)
    return real_iterate(*args, **kwargs)


nrg.iterate = slow_iterate
os.sched_getaffinity = lambda pid: {0, 1}
try:
    cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2],
              "--workers", "2"])
except KeyboardInterrupt:
    print("interrupted", len(calls), len(set(calls)))
"""


def src_env() -> dict:
    """The environment with this checkout's sbnrg first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


RUN_PAYLOAD = {
    "model": {"delta": 0.05, "alpha": 0.3},
    "nrg": {"n_s": 40, "n_b": 4, "n_iter": 8},
}

# Each config block with every key it reads, and a value off the default
# where the field has one: (mode, the other blocks that mode needs, the
# block, its required keys, names that are no key of it, the RunConfig
# field it builds, the value built).
BLOCKS = {
    "model": ("run", {}, {"delta": 0.05, "epsilon": 0.01, "alpha": 0.3, "s": 0.9},
              ["delta"], ["omega_c"], "model",
              SpinBosonParams(delta=0.05, epsilon=0.01, alpha=0.3, s=0.9)),
    "nrg": ("run", {"model": {"delta": 0.05}},
            {"lambda": 2.5, "n_s": 40, "n_b": 4, "n_iter": 8, "n_star": 20},
            [], ["Lambda", "degeneracy_tol", "flow_levels"], "nrg_config",
            NrgConfig(Lambda=2.5, n_s=40, n_b=4, n_iter=8, n_star=20)),
    "circuit": ("map-circuit", {},
                {"c_j": 0.85e-12, "c_0": 4.25e-12, "i_0": 2e-6, "i_b": 1.96e-6,
                 "l": 4e-7, "c": 1.6e-10, "omega_c": 1e14,
                 "delta_convention": "half_omega_p", "i_uw": 1e-9},
                ["c_j", "c_0", "i_0", "i_b", "l", "c"],
                ["params", "ej_ec_threshold", "line_length", "n_modes"],
                "circuit",
                CircuitSpec(c_j=0.85e-12, c_0=4.25e-12, i_0=2e-6, i_b=1.96e-6,
                            l=4e-7, c=1.6e-10, omega_c=1e14,
                            delta_convention="half_omega_p", i_uw=1e-9)),
    "sweep": ("sweep", {"model": {"delta": 0.05}},
              {"parameter": "epsilon",
               "grid": {"from": 0.0, "to": 0.02, "step": 0.01}},
              ["parameter", "grid"], ["values", "models"], "sweep",
              SweepSpec(parameter="epsilon",
                        grid={"values": [0.0, 0.01, 0.02]})),
    "critical": ("critical",
                 {"model": {"delta": 0.05},
                  "sweep": {"parameter": "alpha",
                            "grid": {"values": [0.1, 0.2, 0.3, 0.4]}}},
                 {"window": 4.0}, [], ["threshold"], "critical",
                 CriticalSpec(window=4.0)),
    "oracle": ("oracle", {},
               {"delta": 0.3, "epsilon": 0.1, "modes": [[0.5, 0.2]], "n_max": 8},
               ["delta", "modes"], [], "oracle_problem",
               EdProblem(delta=0.3, epsilon=0.1, modes=((0.5, 0.2),), n_max=8)),
}


class TestParseConfig:
    def test_minimal_run(self):
        cfg = parse_config(json.dumps(RUN_PAYLOAD), mode="run")
        assert cfg.model.delta == 0.05
        assert cfg.model.alpha == 0.3
        assert cfg.nrg_config.n_s == 40
        assert cfg.workers == 1

    def test_nrg_defaults_applied(self):
        cfg = parse_config(json.dumps({"model": {"delta": 0.1}}), mode="run")
        assert cfg.nrg_config == NrgConfig()

    @pytest.mark.parametrize("name", BLOCKS)
    def test_block_keys_are_the_fields(self, tmp_path, capsys, name):
        mode, others, block, required, unread, field, built = BLOCKS[name]

        def parse(value):
            return parse_config(json.dumps({**others, name: value}), mode=mode)

        # every field set off its default, so a key that misses its field shows
        assert all(getattr(built, f.name) != f.default for f in fields(built)
                   if f.default is not MISSING)
        assert getattr(parse(block), field) == built
        for key in required:
            with pytest.raises(ConfigError, match=f"^{name}.{key} is required$"):
                parse({k: v for k, v in block.items() if k != key})
        # an unknown key exits 2 before --out exists, whatever its value
        out = tmp_path / "out"
        for key in ("bogus", *unread):
            config = write_config(tmp_path, {**others, name: {**block, key: 1.0}})
            assert main([mode, "--config", config, "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: unknown key {name}.{key}\n")
            assert not out.exists()

    def test_every_block_read_is_a_block(self):
        reads = {name for command in cli.SUBCOMMANDS.values()
                 for name in command.reads}
        assert reads <= set(cli.BLOCKS)

    def test_lambda_key_maps_to_ratio(self):
        payload = {"model": {"delta": 0.1}, "nrg": {"lambda": 3.0}}
        cfg = parse_config(json.dumps(payload), mode="run")
        assert cfg.nrg_config.Lambda == 3.0

    def test_mode_echo_must_match(self):
        payload = dict(RUN_PAYLOAD, mode="sweep")
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(json.dumps(payload), mode="run")
        ok = parse_config(json.dumps(dict(RUN_PAYLOAD, mode="run")), mode="run")
        assert ok.mode == "run"

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key extras"):
            parse_config(json.dumps(dict(RUN_PAYLOAD, extras={})), mode="run")

    def test_unknown_nested_key_has_path(self):
        payload = {"model": {"delta": 0.1, "beta": 1.0}}
        with pytest.raises(ConfigError, match="model.beta"):
            parse_config(json.dumps(payload), mode="run")

    def test_type_errors(self):
        bad_float = {"model": {"delta": "0.1"}}
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(json.dumps(bad_float), mode="run")
        bool_as_int = {"model": {"delta": 0.1}, "nrg": {"n_s": True}}
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config(json.dumps(bool_as_int), mode="run")
        float_as_int = {"model": {"delta": 0.1}, "nrg": {"n_iter": 6.5}}
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config(json.dumps(float_as_int), mode="run")

    @pytest.mark.parametrize("mode,payload,message", [
        ("run", {"model": {"delta": "0.1"}}, "model.delta must be a number"),
        ("run", {"model": {"delta": 0.1}, "nrg": {"n_iter": 6.5}},
         "nrg.n_iter must be an integer"),
        ("run", {"model": {"delta": 0.1}, "nrg": {"n_s": True}},
         "nrg.n_s must be an integer"),
        ("sweep", {"model": {"delta": 0.1},
                   "sweep": {"parameter": 1, "grid": {"values": [0.1]}}},
         "sweep.parameter must be a string"),
        ("sweep", {"model": {"delta": 0.1},
                   "sweep": {"parameter": "alpha", "grid": [0.1]}},
         "sweep.grid must be an object"),
        ("oracle", {"oracle": {"delta": 0.2, "modes": {"0.5": 0.1}}},
         "oracle.modes must be a list"),
        ("run", {"model": {"delta": 0.1}, "nrg": [40]}, "nrg must be an object"),
    ], ids=["number", "integer", "bool-as-integer", "string", "object", "list",
            "block"])
    def test_type_error_messages(self, mode, payload, message):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(payload), mode=mode)
        assert str(err.value) == message

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json", mode="run")

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2]", mode="run")

    def test_model_required(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config("{}", mode="run")

    def test_invalid_model_value(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config(json.dumps({"model": {"delta": -1.0}}), mode="run")

    def test_invalid_nrg_value(self):
        payload = {"model": {"delta": 0.1}, "nrg": {"n_s": 1}}
        with pytest.raises(ConfigError, match="nrg"):
            parse_config(json.dumps(payload), mode="run")

    def test_workers_floor(self):
        with pytest.raises(ConfigError, match="workers"):
            parse_config(json.dumps(RUN_PAYLOAD), mode="run", workers=0)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(RUN_PAYLOAD), mode="anneal")

    def test_sweep_grid_values(self):
        payload = {
            "model": {"delta": 0.05},
            "sweep": {"parameter": "alpha",
                      "grid": {"values": [0.1, 0.2, 0.4]}},
        }
        cfg = parse_config(json.dumps(payload), mode="sweep")
        assert cfg.sweep.parameter == "alpha"
        assert cfg.sweep.values == (0.1, 0.2, 0.4)

    def test_sweep_grid_range(self):
        payload = {
            "model": {"delta": 0.05},
            "sweep": {"parameter": "epsilon",
                      "grid": {"from": 0.0, "to": 0.4, "step": 0.1}},
        }
        cfg = parse_config(json.dumps(payload), mode="sweep")
        assert len(cfg.sweep.values) == 5
        assert cfg.sweep.values[-1] == pytest.approx(0.4)

    def test_sweep_grid_errors(self):
        base = {"model": {"delta": 0.05}}

        def sweep(grid):
            return json.dumps(dict(base, sweep={"parameter": "alpha",
                                                "grid": grid}))

        with pytest.raises(ConfigError, match="does not divide"):
            parse_config(sweep({"from": 0.0, "to": 1.0, "step": 0.3}),
                         mode="sweep")
        with pytest.raises(ConfigError, match="monotone"):
            parse_config(sweep({"values": [0.1, 0.3, 0.2]}), mode="sweep")
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(sweep({"values": []}), mode="sweep")
        with pytest.raises(ConfigError, match="non-zero"):
            parse_config(sweep({"from": 0.0, "to": 1.0, "step": 0.0}),
                         mode="sweep")
        with pytest.raises(ConfigError, match="'values' or 'from'"):
            parse_config(sweep({"lo": 0.0}), mode="sweep")
        # JSON numbers only: no bools, no numeric strings, nothing infinite
        for values in ([True, 1.5], [0.1, "1.5"], [0.1, float("nan")],
                       [0.1, 10 ** 400]):
            with pytest.raises(ConfigError, match="values must be numbers"):
                parse_config(sweep({"values": values}), mode="sweep")
        overflow = sweep({"values": [0.1, 0.2]}).replace("0.2", "1e400")
        with pytest.raises(ConfigError, match="values must be numbers"):
            parse_config(overflow, mode="sweep")
        for bad in ("0.1", True, float("inf"), float("nan")):
            for key in ("from", "to", "step"):
                grid = dict({"from": 0.1, "to": 0.3, "step": 0.1}, **{key: bad})
                with pytest.raises(ConfigError, match="bounds must be numbers"):
                    parse_config(sweep(grid), mode="sweep")
        # the span over the step must fit a float, and the count is capped
        with pytest.raises(ConfigError, match="overflows a float"):
            parse_config(sweep({"from": -1e308, "to": 1e308, "step": 1e-300}),
                         mode="sweep")
        cap = cli.MAX_GRID_POINTS
        for grid in ({"from": 0.0, "to": 1.0, "step": 1e-300},
                     {"from": 0, "to": cap, "step": 1},
                     {"values": list(range(cap + 1))}):
            with pytest.raises(ConfigError, match=f"more than {cap} points"):
                parse_config(sweep(grid), mode="sweep")
        full = parse_config(sweep({"from": 0, "to": cap - 1, "step": 1}),
                            mode="sweep")
        assert len(full.sweep.values) == cap

    def test_sweep_parameter_whitelist(self):
        payload = {
            "model": {"delta": 0.05},
            "sweep": {"parameter": "s", "grid": {"values": [0.5, 0.9]}},
        }
        with pytest.raises(ConfigError, match="sweep.parameter"):
            parse_config(json.dumps(payload), mode="sweep")

    def test_critical_sweeps_alpha_only(self):
        payload = {
            "model": {"delta": 0.05},
            "sweep": {"parameter": "delta",
                      "grid": {"values": [0.01, 0.02, 0.04, 0.08]}},
        }
        with pytest.raises(ConfigError, match="alpha only"):
            parse_config(json.dumps(payload), mode="critical")

    def test_critical_block(self):
        payload = {
            "model": {"delta": 0.05},
            "sweep": {"parameter": "alpha",
                      "grid": {"values": [0.1, 0.2, 0.3, 0.4]}},
            "critical": {"window": 4.0},
        }
        cfg = parse_config(json.dumps(payload), mode="critical")
        assert cfg.critical == CriticalSpec(window=4.0)

    def test_map_circuit_required_fields(self):
        payload = {"circuit": {"c_j": 1e-12, "c_0": 1e-12, "i_0": 2e-6,
                               "i_b": 1e-6, "l": 4e-7}}
        with pytest.raises(ConfigError, match="circuit.c"):
            parse_config(json.dumps(payload), mode="map-circuit")

    def test_map_circuit_convention_check(self):
        payload = {"circuit": {"c_j": 1e-12, "c_0": 1e-12, "i_0": 2e-6,
                               "i_b": 1e-6, "l": 4e-7, "c": 1.6e-10,
                               "delta_convention": "zeeman"}}
        with pytest.raises(ConfigError, match="delta_convention"):
            parse_config(json.dumps(payload), mode="map-circuit")

    def test_oracle_modes_validation(self):
        payload = {"oracle": {"delta": 0.2, "modes": [[0.5, 0.1], [0.25]]}}
        with pytest.raises(ConfigError, match=r"oracle.modes\[1\]"):
            parse_config(json.dumps(payload), mode="oracle")

    def test_config_echo_roundtrip(self):
        payload = {
            "model": {"delta": 0.05},
            "nrg": {"lambda": 2.5, "n_iter": 10},
            "sweep": {"parameter": "alpha",
                      "grid": {"values": [0.1, 0.2, 0.3, 0.4]}},
        }
        cfg = parse_config(json.dumps(payload), mode="critical",
                           out_dir="/tmp/x", workers=3)
        echo = config_echo(cfg)
        assert echo["mode"] == "critical"
        assert echo["workers"] == 3
        assert echo["nrg"]["lambda"] == 2.5
        assert "Lambda" not in echo["nrg"]
        assert echo["sweep"] == {"parameter": "alpha",
                                 "grid": {"values": [0.1, 0.2, 0.3, 0.4]}}
        assert echo["critical"] == {"window": None}
        # map-circuit lists every option, with its default where none is given
        block = {"c_j": 1e-12, "c_0": 1e-12, "i_0": 2e-6, "i_b": 1e-6,
                 "l": 4e-7, "c": 1.6e-10}
        echo = config_echo(parse_config(json.dumps({"circuit": block}),
                                        mode="map-circuit"))
        assert echo["circuit"] == {
            **block, "omega_c": None, "delta_convention": "omega10",
            "i_uw": None}
        echo = config_echo(parse_config(
            json.dumps({"oracle": {"delta": 0.3, "modes": [[0.5, 0.2]]}}),
            mode="oracle"))
        assert json.loads(json.dumps(echo["oracle"])) == {
            "delta": 0.3, "epsilon": 0.0, "modes": [[0.5, 0.2]], "n_max": 20}


class TestRunMode:
    def run_cli(self, tmp_path, payload, sub="run", extra=()):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, payload)
        code = main([sub, "--config", cfg, "--out", str(out), *extra])
        return code, out

    def test_outputs_and_manifest(self, tmp_path):
        code, out = self.run_cli(tmp_path, RUN_PAYLOAD)
        assert code == EXIT_OK
        flow = (out / "flow.csv").read_text()
        lines = flow.strip().split("\n")
        assert lines[0] == "iteration,level_index,scaled_energy"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == 0.0
        obs = json.loads((out / "observables.json").read_text())
        ref = run(SpinBosonParams(delta=0.05, alpha=0.3),
                  NrgConfig(n_s=40, n_b=4, n_iter=8))
        assert obs["sigma_z"] == ref.sigma_z_gs
        assert obs["delta_p"] == ref.delta_p
        assert obs["chain_digest"] == ref.chain_digest
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["mode"] == "run"
        names = {entry["path"] for entry in manifest["outputs"]}
        assert names == {"flow.csv", "observables.json"}

    def test_manifest_digests_match_files(self, tmp_path):
        import hashlib
        code, out = self.run_cli(tmp_path, RUN_PAYLOAD)
        assert code == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_rerun_byte_identical(self, tmp_path):
        _, out1 = self.run_cli(tmp_path, RUN_PAYLOAD)
        cfg = write_config(tmp_path, RUN_PAYLOAD)
        out2 = tmp_path / "out2"
        main(["run", "--config", cfg, "--out", str(out2)])
        assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()
        assert (out1 / "observables.json").read_bytes() == \
            (out2 / "observables.json").read_bytes()

    def test_wrote_lines_printed(self, tmp_path, capsys):
        code, out = self.run_cli(tmp_path, RUN_PAYLOAD)
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert f"wrote {out / 'flow.csv'}" in printed
        assert f"wrote {out / 'run_manifest.json'}" in printed


class TestChainMode:
    def test_csv_matches_library(self, tmp_path):
        # alpha = 0 writes the decoupled chain that sbnrg run iterates
        for alpha in (0.5, 0.0):
            payload = {"model": {"delta": 0.01, "alpha": alpha},
                       "nrg": {"n_iter": 8}}
            out = tmp_path / f"out{alpha}"
            cfg = write_config(tmp_path, payload)
            assert main(["chain", "--config", cfg, "--out", str(out)]) == EXIT_OK
            star = discretize(SpinBosonParams(delta=0.01, alpha=alpha), 2.0, 16)
            chain = chain_map(star)
            lines = (out / "chain.csv").read_text().strip().split("\n")
            assert lines[0] == "n,xi,gamma,eps,t"
            assert len(lines) == 1 + 16
            row0 = lines[1].split(",")
            assert float(row0[1]) == float(star.xi[0])
            assert float(row0[2]) == float(star.gamma[0])
            assert float(row0[3]) == float(chain.eps[0])
            assert float(row0[4]) == float(chain.t[0])
            last = lines[-1].split(",")
            assert last[4] == ""  # no hopping out of the final site
            meta = json.loads((out / "chain.json").read_text())
            assert meta["digest"] == chain.digest()
            assert meta["n_sites"] == 16
            assert meta["c0"] == chain.c0


class TestMapCircuitMode:
    PAYLOAD = {"circuit": {
        "c_j": 0.85e-12, "c_0": 4.25e-12, "i_0": 2e-6, "i_b": 1.96e-6,
        "l": 4e-7, "c": 1.6e-10, "omega_c": 1e14,
        "delta_convention": "half_omega_p", "i_uw": 1e-9,
    }}

    def test_payload(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.PAYLOAD)
        assert main(["map-circuit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "circuit.json").read_text())
        assert doc["qubit"]["omega_p"] == pytest.approx(15437501819.022846,
                                                        rel=1e-12)
        assert doc["spin_boson"]["alpha"] == pytest.approx(
            0.4350857322842646, rel=1e-12
        )
        assert doc["spin_boson"]["delta_convention"] == "half_omega_p"
        assert doc["bias_j"] == pytest.approx(2.6551415630181494e-26,
                                              rel=1e-12)
        assert doc["bias"] == pytest.approx(
            doc["bias_j"] / (1.0545718176461565e-34 * 1e14), rel=1e-10
        )
        assert sorted(doc) == ["bias", "bias_j", "qubit", "spin_boson"]

    @pytest.mark.parametrize("convention", DELTA_CONVENTIONS)
    @pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9], ids=["above", "below"])
    def test_cutoff_bound_is_the_conventions_splitting(
            self, tmp_path, monkeypatch, capsys, convention, factor):
        # omega_c just above or below the splitting the convention names
        block = dict(self.PAYLOAD["circuit"], delta_convention=convention)
        spec = qubit_spectrum(CircuitParams(
            **{k: block[k] for k in ("c_j", "c_0", "i_0", "i_b", "l", "c")}))
        split = spec.omega_10 if convention == "omega10" else 0.5 * spec.omega_p
        block["omega_c"] = factor * split
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"circuit": block})
        if factor < 1:
            def started(cfg):
                raise AssertionError("execute ran on an invalid config")

            monkeypatch.setattr(cli, "execute", started)
        code = main(["map-circuit", "--config", cfg, "--out", str(out)])
        if factor > 1:
            assert code == EXIT_OK
            doc = json.loads((out / "circuit.json").read_text())
            assert doc["spin_boson"]["delta"] == pytest.approx(1 / factor, rel=1e-12)
        else:
            assert code == EXIT_CONFIG
            assert (f"circuit: cutoff omega_c must lie above the qubit splitting, "
                    f"{split:.6g} rad/s under {convention}") in capsys.readouterr().err
            assert not out.exists()

    def test_circuit_json_is_derived_once(self, tmp_path, monkeypatch):
        # parsing derives and serialises circuit.json; execute writes that text
        derive = cli._circuit_payload
        calls = []

        def counted(circuit):
            calls.append(circuit)
            return derive(circuit)

        monkeypatch.setattr(cli, "_circuit_payload", counted)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.PAYLOAD)
        assert main(["map-circuit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        assert hashlib.sha256((out / "circuit.json").read_bytes()).hexdigest() == (
            "7857d31370228dd1a6c7913a4b2b1b2e91def4e59929c1e40e682cf525d1bef8")
        # c_0 = 0.5 pF puts alpha at 0.084, below its window; with every
        # warning shown, a second derivation would print a second line
        block = dict(self.PAYLOAD["circuit"], c_0=0.5e-12, delta_convention="omega10")
        cfg = write_config(tmp_path, {"circuit": block})
        proc = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m", "sbnrg",
             "map-circuit", "--config", cfg, "--out", str(tmp_path / "low")],
            env=src_env(), capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stderr.count("outside the window") == 1

    def test_unphysical_circuit_is_config_error(self, tmp_path):
        bad = {"circuit": dict(self.PAYLOAD["circuit"], i_b=3e-6)}
        out = tmp_path / "out"
        cfg = write_config(tmp_path, bad)
        assert main(["map-circuit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize("field, value, message", [
        ("i_b", 2e-6, "bias current must stay below"),
        ("i_b", 3e-6, "bias current must stay below"),
        ("c_j", 0.0, "junction capacitance"),
        ("c_j", -1e-12, "junction capacitance"),
    ], ids=["i_b-at-i_0", "i_b-above-i_0", "c_j-zero", "c_j-negative"])
    def test_range_error_exits_before_execute(self, tmp_path, monkeypatch,
                                              capsys, field, value, message):
        # rejected while parsing: no output directory, no failed manifest
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"circuit": {**self.PAYLOAD["circuit"],
                                                  field: value}})
        assert main(["map-circuit", "--config", cfg,
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"circuit: {message}" in capsys.readouterr().err
        assert not out.exists()


ORACLE_PAYLOAD = {"oracle": {"delta": 0.3, "epsilon": 0.1,
                             "modes": [[0.5, 0.2]], "n_max": 8}}


class TestOracleMode:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, ORACLE_PAYLOAD)
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "oracle.json").read_text())
        ref = exact_diag(EdProblem(delta=0.3, epsilon=0.1,
                                   modes=((0.5, 0.2),), n_max=8))
        assert doc["ground_energy"] == ref.ground_energy
        assert doc["gap"] == ref.gap
        assert doc["sigma_z"] == ref.sigma_z
        assert doc["converged"] is True


class TestSweepMode:
    PAYLOAD = {
        "model": {"delta": 0.05},
        "nrg": {"n_s": 40, "n_b": 4, "n_iter": 10},
        "sweep": {"parameter": "alpha",
                  "grid": {"from": 0.2, "to": 0.4, "step": 0.1}},
    }

    def test_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.PAYLOAD)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,delta,epsilon,n_star,delta_p,phase"
        assert len(lines) == 4
        row = lines[2].split(",")
        assert float(row[0]) == pytest.approx(0.3)
        assert float(row[1]) == 0.05
        ref = run(SpinBosonParams(delta=0.05, alpha=0.30000000000000004),
                  NrgConfig(n_s=40, n_b=4, n_iter=10))
        assert float(row[4]) == ref.delta_p
        assert row[5] in ("delocalized", "localized", "undetermined")

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.PAYLOAD)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["sweep", "--config", cfg, "--out", str(out1),
                     "--workers", "1"]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out2),
                     "--workers", "2"]) == EXIT_OK
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_pool_is_capped_by_cpus(self, monkeypatch):
        # --workers 10000 on a 3-point grid with 2 usable CPUs starts 2
        # threads, also where the platform has no sched_getaffinity
        import concurrent.futures

        started = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        monkeypatch.setattr(cli.nrg, "run",
                            lambda params, config, stop=None: params.alpha)
        cfg = parse_config(json.dumps(self.PAYLOAD), mode="sweep",
                           workers=10000)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            assert cli._run_sweep_points(cfg) == list(cfg.sweep.values)
        with monkeypatch.context() as m:
            m.delattr(os, "sched_getaffinity", raising=False)
            m.setattr(os, "cpu_count", lambda: 2)
            assert cli._run_sweep_points(cfg) == list(cfg.sweep.values)
        assert started == [2, 2]

    def test_points_are_the_parsed_models(self, monkeypatch):
        # each point runs the model parse_config built and checked, in grid order
        seen = []
        monkeypatch.setattr(cli.nrg, "run",
                            lambda params, config: seen.append(params))
        cfg = parse_config(json.dumps(self.PAYLOAD), mode="sweep")
        cli._run_sweep_points(cfg)
        assert [p.alpha for p in cfg.points] == list(cfg.sweep.values)
        assert all(a is b for a, b in zip(seen, cfg.points, strict=True))

    @pytest.mark.parametrize("error,code", [
        (NrgError("iteration 3: eigh did not converge"), EXIT_NUMERICAL),
        (DegeneracyError("kept set 90 exceeds 2 n_s = 80"), EXIT_CONFIG),
    ], ids=["numerical", "degeneracy"])
    def test_failed_point_stops_the_threads(self, tmp_path, monkeypatch,
                                            error, code):
        # the first of 8 points fails at once and every other takes 0.2 s, so
        # with 2 threads at most 2 more start before the error cancels the rest
        calls = []

        def point(params, config, stop=None):
            calls.append(params.alpha)
            if params.alpha == 0.1:
                raise error
            time.sleep(0.2)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(cli.nrg, "run", point)
        payload = {**self.PAYLOAD, "sweep": {
            "parameter": "alpha", "grid": {"values": [0.1 * i for i in range(1, 9)]}}}
        out = tmp_path / "out"
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", "2"]) == code
        assert 0.1 in calls and len(calls) <= 3
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"] == f"{type(error).__name__}: {error}"

    @pytest.mark.parametrize("error,code", [
        (NrgError("iteration 3: eigh did not converge"), EXIT_NUMERICAL),
        (DegeneracyError("kept set 90 exceeds 2 n_s = 80"), EXIT_CONFIG),
    ], ids=["numerical", "degeneracy"])
    def test_failed_point_stops_the_running_one(self, tmp_path, monkeypatch,
                                                error, code):
        # point 0.2 fails while point 0.1, at 0.1 s per iteration, has 99 to
        # go: the running point must end within two more iterations, and
        # the sweep reports 0.2's error, not 0.1's stop, though 0.1 comes first
        real_run, real_iterate = cli.nrg.run, cli.nrg.iterate
        iterating, calls, failed_at = threading.Event(), [], []

        def slow_iterate(*args, **kwargs):
            calls.append(1)
            iterating.set()
            time.sleep(0.1)
            return real_iterate(*args, **kwargs)

        def point(params, config, stop=None):
            if params.alpha == 0.2:
                iterating.wait(60)
                failed_at.append(len(calls))
                raise error
            return real_run(params, config, stop=stop)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(cli.nrg, "run", point)
        monkeypatch.setattr(cli.nrg, "iterate", slow_iterate)
        payload = {"model": {"delta": 0.05},
                   "nrg": {"n_s": 20, "n_b": 4, "n_iter": 100},
                   "sweep": {"parameter": "alpha",
                             "grid": {"values": [0.1, 0.2]}}}
        out = tmp_path / "out"
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", "2"]) == code
        assert failed_at[0] >= 1 and len(calls) - failed_at[0] <= 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["failure"] == f"{type(error).__name__}: {error}"

    def test_interrupt_stops_the_running_points(self, tmp_path):
        # an interrupt cancels the points not started and ends the two
        # running ones within an iteration each, not their other 95
        payload = {"model": {"delta": 0.05},
                   "nrg": {"n_s": 20, "n_b": 4, "n_iter": 100},
                   "sweep": {"parameter": "alpha",
                             "grid": {"values": [0.1, 0.2, 0.3, 0.4]}}}
        cfg = write_config(tmp_path, payload)
        proc = subprocess.run(
            [sys.executable, "-c", INTERRUPTED_SWEEP, cfg, str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        word, count, threads = proc.stdout.split()
        assert word == "interrupted" and 4 <= int(count) <= 6
        assert int(threads) == 2

    def test_import_loads_no_pool(self):
        # the thread pool is imported only by a run that starts one
        probe = ("import sys, sbnrg.cli; print(*sorted(m for m in "
                 "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_no_crossing_writes_nan(self, tmp_path):
        payload = {
            "model": {"delta": 0.01},
            "nrg": {"n_s": 60, "n_b": 4, "n_iter": 20},
            "sweep": {"parameter": "alpha", "grid": {"values": [1.4]}},
        }
        out = tmp_path / "out"
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row = (out / "sweep.csv").read_text().strip().split("\n")[1].split(",")
        assert math.isnan(float(row[3]))


class TestCriticalMode:
    PAYLOAD = CRITICAL_PAYLOAD

    def test_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.PAYLOAD)
        assert main(["critical", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for i in range(4):
            assert (out / f"flow_{i:03d}.csv").exists()
        pts = (out / "points.csv").read_text().strip().split("\n")
        assert pts[0] == "alpha,n_star"
        assert len(pts) == 5
        nstars = [float(line.split(",")[1]) for line in pts[1:]]
        assert nstars == sorted(nstars)
        fit = json.loads((out / "fit.json").read_text())
        # A determinism and robustness check at (n_s, n_b) = (60, 6), not a
        # converged alpha_c: chain noise of 1e-15 and a second BLAS thread
        # each move this value by about 1e-9.
        assert fit["alpha_c"] == pytest.approx(1.2485799432068874, abs=1e-6)
        assert fit["n_points"] == 4
        assert fit["threshold"] == 0.3

    def test_workers_after_serial_run(self, tmp_path):
        # A serial run starts and stops its sector thread per point; a
        # --workers run in the same process then runs its points on sweep
        # threads, which must start no sector thread of their own. A fresh
        # interpreter under a timeout turns a hang into a failure.
        cfg = write_config(tmp_path, self.PAYLOAD)
        proc = subprocess.run(
            [sys.executable, "-c", SERIAL_THEN_WORKERS, cfg, str(tmp_path)],
            env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        # one 1-thread sector pool per serial point, then the 2-thread sweep
        # pool and nothing on its threads; with one CPU, no pool at all
        pools = "1 1 1 1 2" if cli.nrg.usable_cpus() >= 2 else ""
        assert proc.stdout.splitlines()[-1] == pools
        serial, workers = tmp_path / "serial", tmp_path / "workers"
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in workers.iterdir())
        for name in names:
            if name != "run_manifest.json":
                assert (serial / name).read_bytes() == (workers / name).read_bytes()

    def test_localized_grid_exits_numerical(self, tmp_path):
        payload = {
            "model": {"delta": 0.01},
            "nrg": {"n_s": 60, "n_b": 4, "n_iter": 20},
            "sweep": {"parameter": "alpha",
                      "grid": {"values": [1.4, 1.45, 1.5, 1.55]}},
        }
        out = tmp_path / "out"
        cfg = write_config(tmp_path, payload)
        code = main(["critical", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "failure" in manifest


class TestConfigEcho:
    # each subcommand's config with an optional field left unset (echoed as
    # null), and the sweeps with a from/to/step grid (echoed as its values)
    @pytest.mark.parametrize("mode,payload,nulls", [
        ("map-circuit", {"circuit": {
            **{k: v for k, v in TestMapCircuitMode.PAYLOAD["circuit"].items()
               if k != "i_uw"}}},
         ["circuit.i_uw"]),
        ("chain", RUN_PAYLOAD, ["nrg.n_star"]),
        ("run", {"model": {"delta": 0.05}}, ["nrg.n_star"]),
        ("sweep", TestSweepMode.PAYLOAD, ["nrg.n_star"]),
        ("critical", {**CRITICAL_PAYLOAD,
                      "sweep": {"parameter": "alpha",
                                "grid": {"from": 0.55, "to": 0.85,
                                         "step": 0.1}}},
         ["critical.window"]),
        ("oracle", {"oracle": {"delta": 0.3, "modes": [[0.5, 0.2], [1.5, 0.3]]}},
         []),
    ], ids=["map-circuit", "chain", "run", "sweep", "critical", "oracle"])
    def test_echo_parses_back(self, mode, payload, nulls):
        # once the echo held nulls the parser rejected, a sweep block that was
        # no grid, and in sweep configs a critical.window that sweep rejected
        cfg = parse_config(json.dumps(payload), mode=mode, out_dir="echo",
                           workers=2)
        echo = config_echo(cfg)
        assert (echo.pop("out_dir"), echo.pop("workers")) == ("echo", 2)
        for path in nulls:
            block, key = path.split(".")
            assert echo[block][key] is None
        if cfg.sweep is not None:
            assert echo["sweep"]["grid"] == {"values": list(cfg.sweep.values)}
        again = parse_config(json.dumps(echo), mode=mode, out_dir="echo",
                             workers=2)
        assert again == cfg


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_IO

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{broken")
        code = main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("mode,payload,block", [
        ("run", RUN_PAYLOAD, "sweep"),
        ("run", RUN_PAYLOAD, "critical"),
        ("run", RUN_PAYLOAD, "oracle"),
        ("run", RUN_PAYLOAD, "circuit"),
        ("chain", RUN_PAYLOAD, "sweep"),
        ("sweep", TestSweepMode.PAYLOAD, "oracle"),
        ("critical", CRITICAL_PAYLOAD, "circuit"),
        ("map-circuit", TestMapCircuitMode.PAYLOAD, "model"),
        ("oracle", ORACLE_PAYLOAD, "nrg"),
        # sweep fits no pole, so no critical value bears on it
        ("sweep", TestSweepMode.PAYLOAD, "critical"),
    ])
    def test_block_the_mode_does_not_read(self, tmp_path, monkeypatch, capsys,
                                          mode, payload, block):
        # once dropped in silence: `run` with a sweep block ran one point
        blocks = {"sweep": {"parameter": "alpha", "grid": {"values": [0.1]}},
                  "critical": {"window": 4.0},
                  "oracle": {"delta": 0.2, "modes": [[0.5, 0.1]]},
                  "circuit": {"c_j": 1e-12},
                  "model": {"delta": 0.1},
                  "nrg": {"n_s": 40}}

        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        config = {**payload, block: blocks[block]}
        out = tmp_path / "out"
        assert main([mode, "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"unknown key {block}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["sweep", "critical"])
    def test_one_iteration_sweep_exits_config(self, tmp_path, monkeypatch,
                                              capsys, mode):
        # once ran every point, then failed: N* needs two recorded iterations
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        payload = {"model": {"delta": 0.1},
                   "nrg": {"n_s": 20, "n_b": 4, "n_iter": 1},
                   "sweep": {"parameter": "alpha",
                             "grid": {"values": [0.1, 0.2, 0.3, 0.4]}}}
        cfg, out = write_config(tmp_path, payload), tmp_path / "out"
        assert main([mode, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "nrg.n_iter must be at least 2" in capsys.readouterr().err
        assert not out.exists()
        # run and chain extract no N*
        del payload["sweep"]
        for other in ("run", "chain"):
            assert parse_config(json.dumps(payload),
                                mode=other).nrg_config.n_iter == 1

    def test_unknown_key_strict_vs_lenient(self, tmp_path, capsys):
        # an unknown key is always an error, so there is no strictness
        # flag: argparse refuses --no-strict and --strict before --out exists
        payload = dict(RUN_PAYLOAD, extras={"note": 1})
        cfg, out = write_config(tmp_path, payload), tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        for flag in ("--no-strict", "--strict"):
            with pytest.raises(SystemExit) as exit_:
                main(["run", "--config", cfg, "--out", str(out), flag])
            assert exit_.value.code == EXIT_CONFIG
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode,payload,where", [
        ("run", {"model": {"delta": 10 ** 400}}, "model.delta"),
        ("oracle", {"oracle": {"delta": 0.2, "modes": [[0.5, 10 ** 400]]}},
         "oracle.modes[0]"),
        ("run", {"model": {"delta": 0.05},
                 "nrg": {"lambda": float("inf")}}, "nrg.lambda must be a number"),
        ("critical", {"model": {"delta": 0.05},
                      "sweep": {"parameter": "alpha",
                                "grid": {"values": [0.1, 0.2, 0.3, 0.4]}},
                      "critical": {"window": float("nan")}},
         "critical.window must be a number"),
        ("sweep", {"model": {"delta": 0.05},
                   "sweep": {"parameter": "alpha",
                             "grid": {"from": -1e308, "to": 1e308,
                                      "step": 1e-300}}}, "sweep.grid"),
    ], ids=["huge-int-delta", "huge-int-mode", "inf-lambda", "nan-window",
            "overflowing-grid"])
    def test_nonfinite_number_exits_config(self, tmp_path, monkeypatch, capsys,
                                           mode, payload, where):
        # rejected while parsing: the run must never start
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        cfg = write_config(tmp_path, payload)
        assert main([mode, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert where in capsys.readouterr().err

    def test_critical_with_three_alphas_exits_config(self, tmp_path,
                                                    monkeypatch, capsys):
        # the divergence fit needs 4 points: rejected before any NRG point runs
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        payload = {"model": {"delta": 0.05},
                   "nrg": {"n_s": 20, "n_b": 4, "n_iter": 10},
                   "sweep": {"parameter": "alpha",
                             "grid": {"values": [0.1, 0.2, 0.3]}}}
        cfg = write_config(tmp_path, payload)
        assert main(["critical", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "at least 4 alpha values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode,payload,message", [
        ("critical", {"model": {"delta": 0.05},
                      "sweep": {"parameter": "alpha",
                                "grid": {"values": [-0.1, 0.1, 0.2, 0.3]}}},
         "sweep.grid: alpha must be non-negative"),
        ("sweep", {"model": {"delta": 0.05, "alpha": 0.3},
                   "sweep": {"parameter": "delta",
                             "grid": {"values": [0.1, -0.1]}}},
         "sweep.grid: delta must be non-negative"),
        # the line is the semi-infinite continuum: its finite-line modes
        # are no option, so a length or mode count is an unknown key
        ("map-circuit", {"circuit": {**TestMapCircuitMode.PAYLOAD["circuit"],
                                     "line_length": -1}},
         "config error: unknown key circuit.line_length\n"),
        ("map-circuit", {"circuit": {**TestMapCircuitMode.PAYLOAD["circuit"],
                                     "n_modes": 0}},
         "config error: unknown key circuit.n_modes\n"),
        # once ran 14 s and wrote a 107 MB circuit.json of line modes
        ("map-circuit", {"circuit": {**TestMapCircuitMode.PAYLOAD["circuit"],
                                     "n_modes": 10**6}},
         "config error: unknown key circuit.n_modes\n"),
        ("map-circuit", {"circuit": {**TestMapCircuitMode.PAYLOAD["circuit"],
                                     "omega_c": 1e3}},
         "circuit: cutoff omega_c must lie above the qubit splitting"),
        # dimension 2 * 5^6 = 31250, a 7.8 GB matrix
        ("oracle", {"oracle": {"delta": 0.2, "modes": [[0.5, 0.1]] * 6,
                               "n_max": 4}},
         "exceeds the dense-matrix limit 8192"),
    ], ids=["negative-alpha-point", "negative-delta-point",
            "negative-line-length", "zero-line-modes", "too-many-line-modes",
            "cutoff-below-splitting", "oracle-over-budget"])
    def test_invalid_config_exits_before_execute(self, tmp_path, monkeypatch,
                                                 capsys, mode, payload,
                                                 message):
        # each once failed inside execute, leaving --out behind
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        cfg = write_config(tmp_path, payload)
        assert main([mode, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode,key", [("critical", "window")])
    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_critical_value_exits_config(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     mode, key, value):
        # once ran every grid point before failing, the window with exit 3
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        payload = {"model": {"delta": 0.05},
                   "nrg": {"n_s": 20, "n_b": 4, "n_iter": 10},
                   "sweep": {"parameter": "alpha",
                             "grid": {"values": [0.1, 0.2, 0.3, 0.4]}},
                   "critical": {key: value}}
        cfg = write_config(tmp_path, payload)
        assert main([mode, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"critical.{key} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_star", [200000, 10**23])
    def test_underflowing_chain_exits_config(self, tmp_path, monkeypatch,
                                             capsys, n_star):
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        payload = {**RUN_PAYLOAD, "nrg": {**RUN_PAYLOAD["nrg"], "n_star": n_star}}
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "n_star" in capsys.readouterr().err

    def test_oversized_dense_problem_is_config_error(self):
        payload = {"model": {"delta": 0.01, "alpha": 0.3},
                   "nrg": {"n_s": 10000, "n_b": 50}}
        with pytest.raises(ConfigError, match="8192"):
            parse_config(json.dumps(payload), mode="run")

    def test_memory_error_exits_numerical(self, tmp_path, monkeypatch,
                                          capsys):
        def exhausted(cfg):
            raise MemoryError()

        monkeypatch.setattr(cli, "execute", exhausted)
        cfg = write_config(tmp_path, RUN_PAYLOAD)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "MemoryError" in capsys.readouterr().err

    def test_degeneracy_error_exits_config(self, tmp_path, monkeypatch,
                                           capsys):
        # the remedy is a config change (raise n_s)
        def too_degenerate(cfg):
            raise DegeneracyError("kept set 90 exceeds 2 n_s = 80")

        monkeypatch.setattr(cli, "execute", too_degenerate)
        cfg = write_config(tmp_path, RUN_PAYLOAD)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: kept set 90")

    def test_out_path_is_file(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("x")
        cfg = write_config(tmp_path, RUN_PAYLOAD)
        code = main(["run", "--config", cfg, "--out", str(blocker)])
        assert code == EXIT_IO

    @pytest.mark.parametrize("mode,data,message", [
        ("run", b'{"model": {"delta": 0.1\xff}}', "can't decode byte 0xff"),
        ("run", b"[" * 100000 + b"]" * 100000, "maximum recursion depth"),
        ("run", b'{"model": {"delta": 1' + b"0" * 5000 + b"}}",
         "Exceeds the limit (4300 digits)"),
        ("map-circuit", json.dumps({"circuit": {
            **TestMapCircuitMode.PAYLOAD["circuit"], "c_0": 1e200}}).encode(),
         "circuit: a value derived from it leaves the float range: "
         "(34, 'Numerical result out of range')"),
    ], ids=["not-utf-8", "nested-too-deep", "integer-too-long",
            "overflowing-c_0"])
    def test_unparseable_config_exits_config(self, tmp_path, monkeypatch,
                                             capsys, mode, data, message):
        # each once raised out of main with a traceback and exit 1
        def started(cfg):
            raise AssertionError("execute ran on an invalid config")

        monkeypatch.setattr(cli, "execute", started)
        cfg, out = tmp_path / "config.json", tmp_path / "out"
        cfg.write_bytes(data)
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("circuit", [
        {"c_j": 1e-300, "c_0": 0.0, "i_0": 1e300, "i_b": 0.0,
         "l": 4e-7, "c": 1.6e-10},
    ], ids=["tiny-junction"])
    def test_non_finite_output_exits_config(self, tmp_path, capsys, circuit):
        # once wrote Infinity, which is not JSON, into circuit.json;
        # circuit.json is built while parsing, so --out is never made
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"circuit": circuit})
        assert main(["map-circuit", "--config", cfg,
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write circuit.json: "
                              "Out of range float") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("error", [
        np.linalg.LinAlgError("eigh did not converge"),  # also a ValueError
        ZeroDivisionError("float division by zero"),
    ], ids=["linalg", "zero-division"])
    def test_numerical_row_matches_first(self, tmp_path, monkeypatch, capsys,
                                         error):
        def failing(cfg):
            raise error
            yield

        monkeypatch.setitem(cli.SUBCOMMANDS, "run", replace(
            cli.SUBCOMMANDS["run"], handler=failing))
        cfg = write_config(tmp_path, RUN_PAYLOAD)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {error}\n"

    def test_unreadable_config_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not (tmp_path / "out").exists()


class TestExecuteFailurePath:
    def test_manifest_written_then_raises(self, tmp_path):
        payload = {
            "model": {"delta": 0.01},
            "nrg": {"n_s": 60, "n_b": 4, "n_iter": 20},
            "sweep": {"parameter": "alpha",
                      "grid": {"values": [1.4, 1.45, 1.5, 1.55]}},
        }
        cfg = parse_config(json.dumps(payload), mode="critical",
                           out_dir=str(tmp_path / "out"))
        with pytest.raises(Exception):
            execute(cfg)
        manifest = json.loads(
            (tmp_path / "out" / "run_manifest.json").read_text()
        )
        assert manifest["status"] == "failed"
        assert "NoCrossingError" in manifest["failure"]
        # the flows written before the failure are listed with their digests
        assert [e["path"] for e in manifest["outputs"]] == [
            f"flow_{i:03d}.csv" for i in range(4)]
        for entry in manifest["outputs"]:
            data = (tmp_path / "out" / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_interrupt_writes_no_manifest(self, tmp_path, monkeypatch):
        def interrupted(cfg):
            yield "flow.csv", "iteration\n"
            raise KeyboardInterrupt

        monkeypatch.setitem(cli.SUBCOMMANDS, "run", replace(
            cli.SUBCOMMANDS["run"], handler=interrupted))
        cfg = parse_config(json.dumps(RUN_PAYLOAD), mode="run",
                           out_dir=str(tmp_path / "out"))
        with pytest.raises(KeyboardInterrupt):
            execute(cfg)
        assert (tmp_path / "out" / "flow.csv").read_text() == "iteration\n"
        assert not (tmp_path / "out" / "run_manifest.json").exists()
