"""Spin-boson NRG toolkit.

Maps superconducting phase-qubit/transmission-line circuits to the Ohmic
spin-boson model, solves it with the bosonic numerical renormalization
group (logarithmic discretization, Wilson chain, iterative diagonalization
with truncation), and extracts Kosterlitz-Thouless transition diagnostics
(level flows, crossover scale N*, critical coupling alpha_c, population
difference delta_p).
"""

import os as _os

# Pin BLAS to one thread unless the user says otherwise. Runs must be
# bit-reproducible and a single NRG iteration is serial anyway.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from . import bath, circuit, criticality, numerics, nrg, oracle  # noqa: E402


def _pin_loaded_openblas():
    """Apply OPENBLAS_NUM_THREADS to the OpenBLAS numpy has already loaded.

    OpenBLAS reads the variable once, when numpy loads it, so the default
    set above only takes effect if this package is imported before numpy.
    Calling the library's own setter makes the pin hold in either order.
    The symbol is the one exported by the scipy-openblas build that numpy
    2.x wheels link; any other BLAS is left as it is.
    """
    import ctypes

    import numpy.linalg

    try:
        threads = int(_os.environ["OPENBLAS_NUM_THREADS"])
    except ValueError:
        threads = 0
    if threads < 1:
        return  # OpenBLAS ignores a value that is not a positive count too
    # dlsym on the extension's handle also searches the libraries it links.
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if setter is None:
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(threads)


_pin_loaded_openblas()


def _pin_heap_thresholds():
    """Keep each NRG step's eigh workspace and arrays on glibc's heap, not
    mapped, unmapped and faulted in again: the mmap threshold goes to 32 MiB,
    the most glibc takes on 64-bit, and the trim threshold to twice that,
    glibc's own rule. No bit moves. A threshold the caller sets wins.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    tunables = _os.environ.get("GLIBC_TUNABLES", "")
    for name in ("mmap_threshold", "trim_threshold"):
        if (f"MALLOC_{name.upper()}_" in _os.environ
                or f"glibc.malloc.{name}" in tunables):
            return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_heap_thresholds()

from .bath import StarBath, WilsonChain, chain_map, discretize  # noqa: E402
from .circuit import (  # noqa: E402
    CircuitParams,
    QubitSpectrum,
    SpinBosonParams,
    map_to_spin_boson,
    microwave_bias,
    qubit_spectrum,
)
from .criticality import (  # noqa: E402
    CrossoverPoint,
    classify_phase,
    extract_nstar,
    fit_alpha_c,
)
from .nrg import NrgConfig, NrgFlow, NrgResult, NrgState, run  # noqa: E402
from .oracle import EdProblem, EdResult, exact_diag  # noqa: E402

__all__ = [
    "__version__",
    "bath",
    "circuit",
    "criticality",
    "numerics",
    "nrg",
    "oracle",
    "CircuitParams",
    "CrossoverPoint",
    "EdProblem",
    "EdResult",
    "NrgConfig",
    "NrgFlow",
    "NrgResult",
    "NrgState",
    "QubitSpectrum",
    "SpinBosonParams",
    "StarBath",
    "WilsonChain",
    "chain_map",
    "classify_phase",
    "discretize",
    "exact_diag",
    "extract_nstar",
    "fit_alpha_c",
    "map_to_spin_boson",
    "microwave_bias",
    "qubit_spectrum",
    "run",
]
