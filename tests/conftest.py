import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

import sbnrg

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# The sbnrg critical config whose alpha_c tests/test_cli.py freezes; other
# tests rerun it at other thread counts or on perturbed chains.
CRITICAL_PAYLOAD = {
    "model": {"delta": 3e-5},
    "nrg": {"n_s": 60, "n_b": 6, "n_iter": 60, "n_star": 65},
    "sweep": {"parameter": "alpha",
              "grid": {"values": [0.55, 0.65, 0.75, 0.85]}},
}

# What the environment may set for the process pins of sbnrg/__init__.py:
# BLAS thread counts, the OpenBLAS kernel and glibc's malloc thresholds.
PROCESS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE",
                "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                "GLIBC_TUNABLES")


def fresh_python(args, **process_vars):
    """Run python with args in a fresh process that sees these vars.

    The PROCESS_VARS the caller's environment sets are dropped, so what is
    not passed here takes its default.
    """
    env = {k: v for k, v in os.environ.items() if k not in PROCESS_VARS}
    env.update(process_vars)
    src = str(Path(sbnrg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
