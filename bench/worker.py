"""One benchmark process: set up a workload, then run one pass of it.

Started by ``run.py``, one fresh process per pass, so that the program's
caches and its global side cap start cold as they do for a command-line
user.  Modes:

* ``setup``: import and generate the inputs, report the set-up time, exit;
* ``timed``: set up, then run operations back to back for ``--seconds``,
  finishing the cycle of op kinds under way;
* ``fixed``: set up, then run a fixed number of operations, derived only
  from ``--seconds``, so that traced counts repeat exactly.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment(np, operators) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "side_cap": operators.max_side(),
    }


def run_pass(wl, lib, inputs, count, deadline, tracer):
    """Run ops ``0, 1, ...``: ``count`` of them, or whole cycles until ``deadline``.

    A timed pass ends at the first cycle boundary after the deadline, so
    every pass runs each op kind equally often.
    """
    from workloads import OracleError

    op_ms, kinds, summaries, failures = [], [], [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    cycle = len(wl.cycle)
    while i < count if count is not None else (i % cycle or clock() < deadline):
        kind = wl.kind_of(i)
        inp = inputs[i % len(inputs)]
        error = None
        if tracer is not None:
            tracer.begin_op(i)
        t = clock()
        try:
            result = kind.call(lib, inp)
        except Exception:
            error = traceback.format_exc()
        finally:
            elapsed = clock() - t
            if tracer is not None:
                tracer.exit()
        if error is None:
            try:
                summaries.append((kind.kind, kind.check(inp, result)))
            except OracleError as exc:
                error = f"oracle: {exc}"
        if error is not None:
            failures.append(f"op {i} ({kind.kind}): {error}")
            summaries.append((kind.kind, "failed"))
        op_ms.append(1e3 * elapsed)
        kinds.append(kind.kind)
        i += 1
    return {
        "pass_s": clock() - start,
        "op_ms": op_ms,
        "kinds": kinds,
        "attempted": len(op_ms),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": hashlib.sha256(repr(summaries).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace-out", default=None, help="where the traced pass writes its spans (.npz)")
    args = ap.parse_args(argv)

    import numpy as np

    from definetti import operators, reductions, repetition, separability, suites
    from workloads import WORKLOADS

    lib = types.SimpleNamespace(
        operators=operators, reductions=reductions, repetition=repetition, separability=separability, suites=suites
    )
    wl = WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed, lib)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "env": environment(np, operators)}
    if args.mode != "setup":
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if args.mode == "timed":
            res = run_pass(wl, lib, inputs, None, time.perf_counter() + args.seconds, tracer)
        else:
            res = run_pass(wl, lib, inputs, wl.fixed_ops(args.seconds), None, tracer)
        out.update(res)
        if tracer is not None:
            out["layers"] = tracer.metrics()
            if args.trace_out:
                tracer.save(args.trace_out)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
