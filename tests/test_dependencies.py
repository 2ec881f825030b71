"""The package runs on its declared dependencies alone (numpy, per pyproject),
and every name it exports is reached by a program path or listed as a
library-only entry point."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# exported names that no code in the package, demos/ or bench/ reaches: the
# paper's lemmas, the framework's binary-test direction, two channels and the
# writer of the operator file format, kept as library entry points
LIBRARY_ONLY = {
    "operators.identity_channel",
    "operators.pauli_twirl_channel",
    "repetition.post_measurement_update",
    "repetition.cmi_chain_check",
    "repetition.scalar_recursion_bound",
    "repetition.framework_fidelity_from_decay",
    "serialize.dump_operator",
}


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


def test_every_export_is_reached_or_library_only():
    # a word-boundary mention counts as a reference, except the name's own
    # top-level def, class or assignment, its __all__ entry and the package's
    # re-exports; a new export that nothing reaches fails here
    pkg = ROOT / "src" / "definetti"
    paths = [*pkg.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    texts = [p.read_text(encoding="utf-8") for p in paths if p != pkg / "__init__.py"]
    unreached = set()
    for path in pkg.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                for name in ast.literal_eval(node.value):
                    own = re.compile(rf'^(?:def {name}\(|class {name}\b|{name} =|\s*"{name}",$)', re.M)
                    if not any(re.search(rf"\b{name}\b", own.sub("", text)) for text in texts):
                        unreached.add(f"{path.stem}.{name}")
    assert unreached == LIBRARY_ONLY
