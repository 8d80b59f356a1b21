"""Every name a module exports through __all__ must exist in it, and the
runtime needs numpy and nothing else."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sbnrg

MODULES = ["sbnrg"] + sorted(
    f"sbnrg.{info.name}" for info in pkgutil.iter_modules(sbnrg.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


def test_runtime_imports_numpy_only():
    # a fresh interpreter, whose own modules (a site .pth may import some
    # before any user code) are set aside: the test session may import more
    code = ("import sys; bare = set(sys.modules); import sbnrg, sbnrg.cli; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - bare}"
            " - set(sys.stdlib_module_names)))")
    src = str(Path(sbnrg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(out.split()) <= {"numpy", "sbnrg"}, out


def test_declared_dependencies_are_numpy_only():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # the [project] dependencies array; tomllib is not in Python 3.10
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject.read_text(),
                      re.MULTILINE | re.DOTALL).group(1)
    specs = re.findall(r'"([^"]+)"', block)
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in specs] == ["numpy"]
