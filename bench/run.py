"""definetti benchmark: closed-loop workloads measured end to end or by layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload {exact,seesaw,sampled} --seed N --seconds S --trace {0,1}

One client issues operations back to back (a closed loop), each workload in
a fresh process with BLAS/OpenMP pinned to one thread.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs a fixed-length pass
twice, untraced and traced, and reports the per-layer split from the
traced one.  Human-readable lines come first; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
BUDGET_S = 170  # a run, all its processes included, ends within this
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def worker(workload: str, seed: int, mode: str, seconds: float, trace: bool, trace_out=None, deadline=None) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON result.

    The process is killed, and :class:`BenchError` raised, if it is still
    running at ``deadline`` (a ``time.monotonic()`` value).
    """
    env = dict(os.environ, **PINNED_THREADS)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
    ]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    timeout = None if deadline is None else max(1.0, deadline - t0)
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} pass of {workload} printed no result:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def setup_samples(workload: str, seed: int, first: float, deadline: float) -> list:
    """``first`` plus more set-up-only processes, ``SETUP_SAMPLES`` in all."""
    return [first] + [
        worker(workload, seed, "setup", 0, False, deadline=deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]


def describe_env(env: dict) -> str:
    threads = ",".join(f"{k}={v}" for k, v in env["threads"].items())
    return (
        f"env: {threads} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} side_cap={env['side_cap']}"
    )


def per_kind(res: dict) -> list:
    by_kind: dict = {}
    for kind, ms in zip(res["kinds"], res["op_ms"]):
        by_kind.setdefault(kind, []).append(ms)
    return [f"  {k:28s} n={len(v):4d}  median {statistics.median(v):9.2f} ms" for k, v in sorted(by_kind.items())]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    res = worker(workload, seed, "timed", seconds, False, deadline=deadline)
    setups = setup_samples(workload, seed, res["setup_s"], deadline)
    n = res["attempted"]
    op_ms = res["op_ms"]
    metrics = {
        "ops_per_s": (n / (sum(op_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (percentile(op_ms, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    beyond = n - math.ceil(0.9 * n)
    lines = [
        describe_env(res["env"]),
        f"workload={workload} seed={seed} closed loop, 1 client, {n} ops in a {res['pass_s']:.2f} s pass",
        f"  ops_per_s    {metrics['ops_per_s'][0]:12.4f} 1/s  ({n} ops / {sum(op_ms) / 1e3:.3f} s of op time)",
        f"  op_p50_ms    {metrics['op_p50_ms'][0]:12.4f} ms   (n={n})",
        f"  op_p90_ms    {metrics['op_p90_ms'][0]:12.4f} ms   (n={n}, {beyond} beyond)",
        f"  setup_s      {metrics['setup_s'][0]:12.4f} s    (median of {len(setups)} processes: "
        + " ".join(f"{s:.3f}" for s in setups) + ")",
        f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:12.4f} MB",
        f"  error_rate   {res['failed'] / n:12.4f}      ({res['failed']} failed / {n} attempted)",
    ] + per_kind(res)
    return res, metrics, lines


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"trace-{workload}-seed{seed}.npz"
    plain = worker(workload, seed, "fixed", seconds, False, deadline=deadline)
    traced = worker(workload, seed, "fixed", seconds, True, trace_out, deadline)
    if plain["digest"] != traced["digest"]:
        traced["failed"] = max(traced["failed"], 1)
        traced["failures"].append("traced and untraced passes returned different results")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (traced["pass_s"] / plain["pass_s"] - 1.0, "ratio")
    lines = [
        describe_env(traced["env"]),
        f"workload={workload} seed={seed} traced fixed pass of {traced['attempted']} ops: "
        f"{traced['pass_s']:.2f} s traced, {plain['pass_s']:.2f} s untraced; spans in {trace_out.relative_to(ROOT)}",
    ] + [f"  {name:40s} {value:16.6f} {unit}" for name, (value, unit) in metrics.items()]
    return traced, metrics, lines


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "definetti" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'definetti'}; run from a definetti checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            res, metrics, lines = per_layer(args.workload, args.seed, args.seconds, deadline)
        else:
            res, metrics, lines = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for failure in res["failures"]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
