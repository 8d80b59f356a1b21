"""One benchmark pass: a fresh ``sbnrg`` CLI process, optionally traced.

Usage (run from the root of a checkout):

    python3 benchmark/child.py --report R.json [--trace] [--setup-only] -- MODE ARGS...

The arguments after ``--`` go to ``sbnrg.cli.main`` unchanged, so the pass
does exactly what ``sbnrg MODE ARGS...`` does. The report file receives the
monotonic time at which ``cli.parse_config`` returned (the end of set-up),
the process's peak RSS and, with ``--trace``, the per-layer trace.

With ``--trace`` the public functions that the layers call through module
attributes are replaced by timing wrappers inside this process only; no
file of the program changes. ``--setup-only`` stops after the config is
parsed and also records the numeric environment.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

# Functions wrapped in a traced pass, as (module, attribute). Each is called
# through its module attribute by the layer above, so replacing the
# attribute intercepts every call.
TRACED = (
    ("bath", "discretize"),
    ("bath", "chain_map"),
    ("nrg", "run"),
    ("nrg", "build_initial"),
    ("nrg", "iterate"),
    ("numerics", "sym_eig"),
    ("numerics", "fit_divergence"),
    ("criticality", "extract_nstar"),
    ("criticality", "fit_alpha_c"),
    ("cli", "parse_config"),
    ("cli", "execute"),
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class Tracer:
    """Span totals per wrapped function, with self time and a few counters.

    A stack of open spans charges each span's duration to its parent, so a
    function's self time is its total minus the wrapped calls inside it.
    """

    def __init__(self):
        self.spans = {}
        self.stack = []
        self.chain_keys = set()
        self.counts = {"chain_map_cold_calls": 0, "chain_sites": 0,
                       "sym_eig_n3": 0, "h_dim_max": 0, "kept_sum": 0}
        self.sz_leak_max = 0.0

    def wrap(self, name, fn):
        span = self.spans.setdefault(
            name, {"calls": 0, "total_s": 0.0, "child_s": 0.0, "durations_s": []})
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            inner = [0.0]
            self.stack.append(inner)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += elapsed
                span["calls"] += 1
                span["total_s"] += elapsed
                span["child_s"] += inner[0]
                span["durations_s"].append(elapsed)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_bath_chain_map(self, args, result):
        # cold: a star whose (xi, gamma) bytes this process has not mapped yet
        star = args[0]
        key = (star.xi.tobytes(), star.gamma.tobytes())
        if key not in self.chain_keys:
            self.chain_keys.add(key)
            self.counts["chain_map_cold_calls"] += 1
        self.counts["chain_sites"] += result.n_sites

    def _observe_numerics_sym_eig(self, _args, result):
        dim = int(result.eigenvalues.size)
        self.counts["sym_eig_n3"] += dim ** 3
        self.counts["h_dim_max"] = max(self.counts["h_dim_max"], dim)

    def _observe_nrg_iterate(self, _args, result):
        self.counts["kept_sum"] += result.kept

    def _observe_nrg_run(self, _args, result):
        # parity leakage: <sigma_z> must vanish at zero bias in the
        # delocalized phase
        if result.params.epsilon == 0.0 and result.delta_p < 0.05:
            self.sz_leak_max = max(self.sz_leak_max, abs(result.sigma_z_gs))

    def report(self):
        return {"spans": self.spans, "counts": self.counts,
                "sz_leak_max": self.sz_leak_max}


def environment():
    import platform
    import socket

    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    return {
        "host": socket.gethostname(),
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "thread_vars": threads,
        "blas_single_thread": all(threads[v] == "1" for v in THREAD_VARS[:3]),
    }


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path = Path(own[own.index("--report") + 1])
    traced = "--trace" in own
    setup_only = "--setup-only" in own

    from sbnrg import bath, cli, criticality, nrg, numerics

    modules = {"bath": bath, "cli": cli, "criticality": criticality,
               "nrg": nrg, "numerics": numerics}
    report = {}
    parse_config = cli.parse_config

    def timed_parse(*args, **kwargs):
        cfg = parse_config(*args, **kwargs)
        report["parsed_at"] = time.monotonic()
        return cfg

    cli.parse_config = timed_parse
    tracer = None
    if traced:
        tracer = Tracer()
        for module, attr in TRACED:
            mod = modules[module]
            setattr(mod, attr, tracer.wrap(f"{module}.{attr}", getattr(mod, attr)))

    if setup_only:
        mode, config = cli_args[0], cli_args[cli_args.index("--config") + 1]
        cli.parse_config(Path(config).read_text(), mode=mode)
        report["environment"] = environment()
        code = 0
    else:
        code = cli.main(cli_args)
    report["exit_code"] = code
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.report()
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
