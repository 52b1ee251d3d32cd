"""Packaging constraints that no single module's tests can see."""

import argparse
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import kurasim
from kurasim import cli, experiments

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# Imports every kurasim module, runs every route of the closed form from the
# graph (the Lanczos basis, also over a long repulsive horizon, gamma*t = -30,
# the complete-graph form and the ring FFT), the eigh the tests' oracle takes
# and one figure-3 sweep row once, and reports whether scipy was loaded along the way: it is installed next to
# numpy on many hosts but is not a dependency of the package.
_PROBE = """
import importlib, pkgutil, sys
import numpy as np
import kurasim
for mod in pkgutil.iter_modules(kurasim.__path__):
    importlib.import_module("kurasim." + mod.name)
from kurasim.experiments import _sweep_task
from kurasim.graphs import gen_complete, gen_erdos_renyi, gen_ring, gen_watts_strogatz
from kurasim.spectral import Propagator, eigendecompose_symmetric
for graph, gamma_t, route in ((gen_watts_strogatz(200, 2, 0.3, 0), 0.5, "lanczos"),
                              (gen_complete(200), 0.5, "cdt"), (gen_ring(200, 5), 0.5, "cdt"),
                              (gen_erdos_renyi(200, 0.1, 0), -30.0, "lanczos")):
    prop = Propagator(graph, gamma_t, np.linspace(0.0, 1.0, 5))
    states, _ = prop(np.ones(200, dtype=complex))
    assert prop.route == route and np.all(np.isfinite(states))
es = eigendecompose_symmetric(graph)
assert np.all(np.isfinite(es.vectors))
assert gen_complete(200).is_complete
assert np.all(np.isfinite(_sweep_task((200, [1.0], [0, 1], 1e-3, 0.1))))
print("scipy" in sys.modules)
"""


def test_no_module_imports_scipy():
    src = str(Path(kurasim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_declared_numpy_floor_admits_no_numpy_1():
    # Propagator passes out= to np.fft.ifft, which numpy takes from 2.0 on
    pyproject = (ROOT / "pyproject.toml").read_text()
    (dependencies,) = re.findall(r"^dependencies = \[(.*)\]$", pyproject, re.M)
    (major,) = re.findall(r'"numpy>=(\d+)[^"]*"', dependencies)
    assert int(major) >= 2


def test_cli_import_loads_no_process_pool():
    # run_fig3 imports the pool only when it makes one; every command pays
    # for what importing kurasim.cli loads
    pool_modules = ("concurrent.futures", "multiprocessing", "logging", "socket", "subprocess")
    probe = ("import sys\nfrom kurasim.cli import build_parser\nbuild_parser()\n"
             f"print([m for m in {pool_modules!r} if m in sys.modules])")
    src = str(Path(kurasim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_hooks_resolve():
    # bench/tracing.py wraps these by module attribute, and bench/workloads.py
    # calls the second list; a refactor that moves one breaks only the benchmark
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib only
    called = [("dynamics", "read_trajectory_csv"), ("dynamics", "wrap_phase"),
              ("spectral", "read_spectrum_csv"), ("experiments", "read_sweep_csv"),
              ("experiments", "REPORT_HEADER"), ("graphs", "read_edge_list")]
    for module, name in [*tracing.LAYER_METRIC, *called]:
        assert hasattr(importlib.import_module(f"kurasim.{module}"), name), (module, name)


def test_every_exported_name_resolves():
    # a name left in an __all__ after its object is gone breaks `import *`
    modules = [kurasim] + [importlib.import_module(f"kurasim.{mod.name}")
                           for mod in pkgutil.iter_modules(kurasim.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_package_re_exports_every_module_all():
    # each module's __all__ is the one list of its public names
    assert len(kurasim.__all__) == len(set(kurasim.__all__))
    for short in ("graphs", "spectral", "dynamics", "experiments", "seeding"):
        module = importlib.import_module(f"kurasim.{short}")
        for name in module.__all__:
            assert name in kurasim.__all__ and getattr(kurasim, name) is getattr(module, name), \
                (short, name)


def test_figure_functions_take_exactly_their_flags():
    # each run_figN parameter but the seed, the pool size and the output target
    # is a flag of `figure N`, and each such flag is a parameter
    for figure, run in cli._FIGURES.items():
        assert run is getattr(experiments, f"run_fig{figure}")
        params = inspect.signature(run).parameters.keys() - {"seed", "jobs", "out_dir", "out_csv"}
        flags = {dest for dest, fig in cli._FIGURE_FLAGS.items() if fig == figure}
        assert params == flags, figure


def test_readme_command_line_names_exactly_the_parser_options():
    # every option a user can pass is documented, and no retired one lingers
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {option for p in (parser, *commands.choices.values()) for action in p._actions
               for option in action.option_strings}
    assert named == options - {"-h", "--help", "--version"}


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", library, re.S | re.M)
    src = str(Path(kurasim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
