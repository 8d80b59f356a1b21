"""The heap pin keeps the NRG step's buffers mapped between steps.

Without it glibc serves eigh's workspace from a fresh mapping on every
call and trims the heap it regrows, so each solve faults its pages in
again. Each check runs in a fresh interpreter, because the thresholds are
set once, when sbnrg is imported.
"""

import platform

import pytest

from conftest import fresh_python

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the heap pin sets glibc's malloc thresholds",
)

FAULT_PROBE = """
import resource
import numpy as np
import sbnrg
from sbnrg import numerics
a = np.random.default_rng(0).standard_normal((600, 600))
a = a + a.T
numerics.sym_eig(a)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    numerics.sym_eig(a)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

RUN_PROBE = """
import hashlib
import numpy as np
from sbnrg import NrgConfig, SpinBosonParams, run
for epsilon in (0.0, 1e-6):
    r = run(SpinBosonParams(delta=1e-4, alpha=0.4, epsilon=epsilon),
            NrgConfig(n_iter=20))
    flow = hashlib.sha256()
    for rec in r.flow.records:
        flow.update(np.array([rec.iteration, rec.kept_count]).tobytes())
        flow.update(np.array(rec.energies).tobytes())
    print(epsilon, flow.hexdigest(), r.sigma_z_gs.hex(), r.sigma_x_gs.hex(),
          r.ground_energy.hex())
"""

# glibc's smallest thresholds, set by the caller in place of the pin
CALLER_HEAP = {"MALLOC_MMAP_THRESHOLD_": "131072",
               "MALLOC_TRIM_THRESHOLD_": "131072"}


def sym_eig_faults(**heap_vars):
    """Minor faults of ten warm dimension-600 solves in a fresh process."""
    return int(fresh_python(["-c", FAULT_PROBE], **heap_vars))


def test_warm_solves_do_not_fault():
    # about 2600 faults a solve without the pin
    assert sym_eig_faults() < 100


def test_caller_set_threshold_is_respected():
    assert sym_eig_faults(MALLOC_TRIM_THRESHOLD_="131072") > 10_000


@pytest.mark.parametrize("tunable", ["mmap_threshold", "trim_threshold"])
def test_caller_set_tunable_is_respected(tunable):
    tunables = f"glibc.malloc.{tunable}=131072"
    assert sym_eig_faults(GLIBC_TUNABLES=tunables) > 10_000


def test_pin_moves_no_bit():
    lines = fresh_python(["-c", RUN_PROBE]).splitlines()
    assert len(lines) == 2
    assert fresh_python(["-c", RUN_PROBE], **CALLER_HEAP).splitlines() == lines
