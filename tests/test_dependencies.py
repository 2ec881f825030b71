"""The package runs on its declared dependencies alone (numpy, per pyproject)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the test runner loaded do not count;
    # importing also builds no occupation table or irrep level, which would
    # cost every process its start-up time
    code = (
        "import sys\n"
        "import definetti, definetti.cli\n"
        "from definetti import operators, reductions, separability\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "caches = (operators._occupation_table, separability._irrep_blocks, reductions._occupation_pairs)\n"
        "print([f.cache_info().currsize for f in caches])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[0, 0, 0]"]
