"""Packaging constraints that no single module's tests can see."""

import subprocess
import sys
from pathlib import Path

import kurasim

# Imports every kurasim module, runs the Chebyshev route once, and reports
# whether scipy was loaded along the way: it is installed next to numpy on
# many hosts but is not a dependency of the package.
_PROBE = """
import importlib, pkgutil, sys
import numpy as np
import kurasim
for mod in pkgutil.iter_modules(kurasim.__path__):
    importlib.import_module("kurasim." + mod.name)
from kurasim.graphs import gen_watts_strogatz
from kurasim.spectral import Propagator, eigensystem_for
op = eigensystem_for(gen_watts_strogatz(200, 2, 0.3, 0))
prop = Propagator(op, 0.5, np.linspace(0.0, 1.0, 5))
states, _ = prop(np.ones(200, dtype=complex))
assert prop.system.source == "chebyshev" and np.all(np.isfinite(states))
print("scipy" in sys.modules)
"""


def test_no_module_imports_scipy():
    src = str(Path(kurasim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.strip() == "False"
