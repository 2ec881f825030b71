"""Command line front end running named verification suites and experiments.

Reports are deterministic given identical arguments and seed: records are
emitted in canonical order with sorted keys and repr-exact floats.  Exit
codes: 0 all checks passed, 1 at least one failed, 2 usage error, 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import suites
from .operators import ResourceCapError, max_side, set_max_side
from .separability import BipartiteCut, certificate_to_json, hsep_seesaw, recheck_certificate
from .serialize import load_operator

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _default_seed() -> int:
    env = os.environ.get("DEFINETTI_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"DEFINETTI_SEED must be an integer, got {env!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base seed (default: env DEFINETTI_SEED or 0)")
    parser.add_argument("--max-dim", type=int, default=4096, help="side-length cap for allocations")
    parser.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _parse_cut(spec: str | None, nfactors: int) -> BipartiteCut:
    if spec is None:
        return BipartiteCut.halves(nfactors)
    try:
        a_part, b_part = spec.split(":")
        a = tuple(int(x) for x in a_part.split(",") if x != "")
        b = tuple(int(x) for x in b_part.split(",") if x != "")
        return BipartiteCut(a, b)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad cut specification {spec!r}; expected e.g. 0,2:1,3") from exc


def _emit(records, args) -> None:
    records = sorted(records, key=lambda r: (str(r["suite"]), str(r["seed"]), str(r["anchor"])))
    if args.format == "json":
        text = json.dumps(records, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "anchor", "seed", "value", "gap", "bound", "tolerance", "pass", "params"])
        for r in records:
            writer.writerow(
                [
                    r["suite"],
                    r["anchor"],
                    r["seed"],
                    "" if r["value"] is None else repr(r["value"]),
                    "" if r["gap"] is None else repr(r["gap"]),
                    "" if r["bound"] is None else repr(r["bound"]),
                    "" if r["tolerance"] is None else repr(r["tolerance"]),
                    "" if r["pass"] is None else r["pass"],
                    json.dumps(r["params"], sort_keys=True),
                ]
            )
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(records, args) -> int:
    _emit(records, args)
    if suites.all_passed(records):
        return EXIT_OK
    sys.stderr.write("definetti: at least one check failed (records with pass=false)\n")
    return EXIT_FAILED_CHECKS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="definetti",
        description="verification suites for constrained de Finetti reductions and separability bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-pinching", help="random-instance pinching inequality checks")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--r-max", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("verify-definetti", help="pure/mixed constrained reduction checks")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--mixed", action="store_true", help="check the mixed-state reduction instead")
    _add_common(p)

    p = sub.add_parser("verify-classical", help="pointwise classical reduction checks")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("verify-truncated", help="truncated-ambient reduction checks")
    p.add_argument("--config", action="append", default=None, metavar="d,D,n,k",
                   help="repeatable; default 2,3,1,1 and 2,3,2,1")
    p.add_argument("--seeds", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("hsep", help="seesaw lower bound for one operator")
    p.add_argument("--op", required=True, help="operator JSON file")
    p.add_argument("--cut", default=None, help="A:B factor lists, e.g. 0,2:1,3")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--q-max", type=int, default=0, help="also bracket with extendible values up to q")
    p.add_argument("--certificate-out", default=None)
    _add_common(p)

    p = sub.add_parser("qext", help="exact q-extendible support value")
    p.add_argument("--op", required=True)
    p.add_argument("--cut", default=None)
    p.add_argument("--q", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("repetition-bounds", help="closed-form decay/concentration bounds")
    p.add_argument("--delta", default="0.5")
    p.add_argument("--r", default="1")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--alpha", default=None)
    p.add_argument("--qext-val", type=float, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--sweep-out", default=None,
                   help="write plot-ready bound curves over 0..n as CSV here")
    _add_common(p)

    p = sub.add_parser("conditioning-demo", help="measurement-conditioning trajectories")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--selection", choices=("greedy_min_mi", "uniform_random"), default="greedy_min_mi")
    p.add_argument("--trajectory-out", default=None, help="write per-step CSV here")
    _add_common(p)

    p = sub.add_parser("framework", help="generic convex-constraint framework checks")
    p.add_argument("--n-exhaustive", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("recheck-certificate", help="re-evaluate a separability certificate")
    p.add_argument("path")
    _add_common(p)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0

    previous_cap = max_side()
    try:
        set_max_side(args.max_dim)
        seed = args.seed if args.seed is not None else _default_seed()
        return _dispatch(args, seed)
    except ResourceCapError as exc:
        sys.stderr.write(f"definetti: {exc}\n")
        return EXIT_RESOURCE
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"definetti: {exc}\n")
        return EXIT_USAGE
    finally:
        set_max_side(previous_cap)


def _dispatch(args, seed: int) -> int:
    if args.command == "verify-pinching":
        recs = suites.pinching_suite(seeds=args.seeds, seed=seed, d_max=args.d_max, r_max=args.r_max)
        return _finish(recs, args)
    if args.command == "verify-definetti":
        recs = suites.definetti_suite(n=args.n, d=args.d, seeds=args.seeds, seed=seed, mixed=args.mixed)
        return _finish(recs, args)
    if args.command == "verify-classical":
        return _finish(suites.classical_suite(d=args.d, n=args.n, seed=seed), args)
    if args.command == "verify-truncated":
        configs = [tuple(int(x) for x in spec.split(",")) for spec in args.config or ()]
        if any(len(c) != 4 for c in configs):
            raise ValueError(f"--config takes four integers d,D,n,k, got {args.config}")
        recs = suites.truncated_suite(configs=configs or ((2, 3, 1, 1), (2, 3, 2, 1)), seeds=args.seeds, seed=seed)
        return _finish(recs, args)
    if args.command == "hsep":
        op = load_operator(args.op)
        cut = _parse_cut(args.cut, len(op.dims))
        recs, res = suites.hsep_records(op, cut, restarts=args.restarts, seed=seed, q_max=args.q_max)
        if args.certificate_out:
            cert = certificate_to_json("hsep_seesaw", op, cut, res)
            with open(args.certificate_out, "w", encoding="utf-8") as fh:
                json.dump(cert, fh, sort_keys=True)
        return _finish(recs, args)
    if args.command == "qext":
        op = load_operator(args.op)
        cut = _parse_cut(args.cut, len(op.dims))
        return _finish(suites.qext_records(op, cut, args.q, seed=seed), args)
    if args.command == "repetition-bounds":
        recs = suites.repetition_bounds_records(
            delta=args.delta,
            r=args.r,
            n=args.n,
            alpha=args.alpha,
            h_qext_val=args.qext_val,
            q=args.q,
            d=args.d,
            seed=seed,
        )
        if args.sweep_out:
            rows = suites.bound_sweep_rows(
                delta=float(args.delta),
                r=float(args.r),
                n_max=args.n,
                alpha=float(args.alpha) if args.alpha is not None else None,
                h_qext_val=args.qext_val,
                q=args.q,
                d=args.d,
            )
            with open(args.sweep_out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["n", "bound_name", "value", "experiment_value"])
                writer.writerows(rows)
        return _finish(recs, args)
    if args.command == "conditioning-demo":
        recs, trajectories = suites.conditioning_suite(
            n=args.n, q=args.q, instances=args.instances, selection=args.selection, seed=seed
        )
        if args.trajectory_out:
            with open(args.trajectory_out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                first = True
                for traj in trajectories:
                    for row in traj.csv_rows():
                        if row[0] == "k" and not first:
                            continue
                        writer.writerow(row)
                        first = False
        return _finish(recs, args)
    if args.command == "framework":
        return _finish(suites.framework_suite(seed=seed, n_exhaustive=args.n_exhaustive), args)
    if args.command == "recheck-certificate":
        try:
            with open(args.path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            claimed, recomputed, ok = recheck_certificate(obj)
        except (KeyError, ValueError, TypeError) as exc:
            sys.stderr.write(f"definetti: malformed certificate {args.path}: {exc!r}\n")
            return EXIT_USAGE
        recs = [
            suites.record(
                "recheck-certificate",
                "certificate-recheck",
                {"kind": obj.get("kind")},
                seed,
                value=recomputed,
                bound=claimed,
                tolerance=1e-8,
                passed=ok,
            )
        ]
        return _finish(recs, args)
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
