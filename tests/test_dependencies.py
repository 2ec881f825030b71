"""The package runs on its declared dependencies alone (numpy, per pyproject)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the test runner loaded do not count;
    # importing also builds no occupation table or irrep level, which would
    # cost every process its start-up time.  tests/ is on the path, so a
    # package import of the test-side references would show in sys.modules.
    code = (
        "import importlib, pkgutil, sys, types\n"
        "import definetti, definetti.cli\n"
        "from definetti import operators, reductions, separability\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "caches = (operators._occupation_table, separability._irrep_blocks, reductions._occupation_pairs)\n"
        "print([f.cache_info().currsize for f in caches])\n"
        "print('reference' in sys.modules)\n"
        "mods = [importlib.import_module(f'definetti.{m.name}') for m in pkgutil.iter_modules(definetti.__path__)]\n"
        "print(sorted(f'{m.__name__}.{n}' for m in mods for n in getattr(m, '__all__', ()) if not hasattr(m, n)))\n"
        "public = {n for n, v in vars(definetti).items() if not n.startswith('_') and not isinstance(v, types.ModuleType)}\n"
        "print(sorted(public - set(operators.__all__)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:5] == ["[]", "[0, 0, 0]", "False", "[]", "[]"]
