"""The one-thread BLAS pin holds whatever the import order.

OpenBLAS reads its thread variable once, when numpy loads it, so a pin set
only through the environment is lost whenever numpy is imported first.
Each check runs in a fresh interpreter that imports numpy before sbnrg.
A second BLAS thread may still move the last bits of a flow, but not the
critical coupling that the flows give.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import sbnrg

from conftest import CRITICAL_PAYLOAD

BLAS_NAME = (numpy.show_config(mode="dicts")
             .get("Build Dependencies", {}).get("blas", {}).get("name", ""))

pytestmark = pytest.mark.skipif(
    "openblas" not in BLAS_NAME.lower(),
    reason=f"numpy links {BLAS_NAME or 'an unknown BLAS'}, not OpenBLAS",
)

PROBE = """
import ctypes
import numpy
import sbnrg
lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
print(lib.scipy_openblas_get_num_threads64_())
"""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def fresh_python(args, **thread_vars):
    """Run python with args in a fresh process that sees these thread vars."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_vars)
    src = str(Path(sbnrg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def openblas_threads_after_numpy_first(**thread_vars):
    """Thread count OpenBLAS reports in a fresh numpy-then-sbnrg process."""
    return int(fresh_python(["-c", PROBE], **thread_vars))


def test_pin_holds_when_numpy_is_imported_first():
    # On a one-core host OpenBLAS starts at 1 thread anyway; on any other
    # host this reads its default (the core count) without the runtime pin.
    assert openblas_threads_after_numpy_first() == 1


def test_caller_set_thread_count_is_respected():
    assert openblas_threads_after_numpy_first(OPENBLAS_NUM_THREADS="2") == 2


def test_thread_count_does_not_move_alpha_c(tmp_path):
    config = tmp_path / "critical.json"
    config.write_text(json.dumps(CRITICAL_PAYLOAD))
    alpha_c = {}
    for threads in ("1", "2"):
        out = tmp_path / f"out_{threads}"
        fresh_python(["-m", "sbnrg", "critical", "--config", str(config),
                      "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
        alpha_c[threads] = json.loads((out / "fit.json").read_text())["alpha_c"]
    assert alpha_c["2"] == pytest.approx(alpha_c["1"], abs=1e-6)
