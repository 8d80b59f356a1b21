"""The one-thread BLAS pin holds whatever the import order.

OpenBLAS reads its thread variable once, when numpy loads it, so a pin set
only through the environment is lost whenever numpy is imported first.
Each check runs in a fresh interpreter that imports numpy before sbnrg.
A second BLAS thread or another BLAS kernel may still move the last bits
of a flow, but not the critical coupling that the flows give.
"""

import json
import platform

import numpy
import pytest

from conftest import CRITICAL_PAYLOAD, fresh_python

BLAS = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
BLAS_NAME = BLAS.get("name", "")

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

CORE_PROBE = """
import ctypes
import numpy
lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
lib.scipy_openblas_get_corename64_.argtypes = []
lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
print(lib.scipy_openblas_get_corename64_().decode())
"""

def openblas_threads_after_numpy_first(**thread_vars):
    """Thread count OpenBLAS reports in a fresh numpy-then-sbnrg process."""
    return int(fresh_python(["-c", PROBE], **thread_vars))


def test_pin_holds_when_numpy_is_imported_first():
    # On a one-core host OpenBLAS starts at 1 thread anyway; on any other
    # host this reads its default (the core count) without the runtime pin.
    assert openblas_threads_after_numpy_first() == 1


def test_caller_set_thread_count_is_respected():
    assert openblas_threads_after_numpy_first(OPENBLAS_NUM_THREADS="2") == 2


def critical_alpha_c(tmp_path, tag, **blas_vars):
    """alpha_c that sbnrg critical fits to CRITICAL_PAYLOAD in a fresh process."""
    config = tmp_path / "critical.json"
    config.write_text(json.dumps(CRITICAL_PAYLOAD))
    out = tmp_path / f"out_{tag}"
    fresh_python(["-m", "sbnrg", "critical", "--config", str(config),
                  "--out", str(out)], **blas_vars)
    return json.loads((out / "fit.json").read_text())["alpha_c"]


def test_thread_count_does_not_move_alpha_c(tmp_path):
    alpha_c = {threads: critical_alpha_c(tmp_path, threads,
                                         OPENBLAS_NUM_THREADS=threads)
               for threads in ("1", "2")}
    assert alpha_c["2"] == pytest.approx(alpha_c["1"], abs=1e-6)


@pytest.mark.skipif(
    "DYNAMIC_ARCH" not in BLAS.get("openblas configuration", "")
    or platform.machine() not in ("x86_64", "AMD64"),
    reason="the kernels named here need an x86 DYNAMIC_ARCH OpenBLAS",
)
def test_blas_kernel_does_not_move_alpha_c(tmp_path):
    # measured on an AVX-512 host: the four kernels spread alpha_c by 1.3e-9
    default = critical_alpha_c(tmp_path, "default")
    for kernel in ("Haswell", "Sandybridge", "Nehalem"):
        core = fresh_python(["-c", CORE_PROBE], OPENBLAS_CORETYPE=kernel)
        assert core.strip() == kernel
        assert critical_alpha_c(tmp_path, kernel, OPENBLAS_CORETYPE=kernel) == (
            pytest.approx(default, abs=1e-6)), kernel
