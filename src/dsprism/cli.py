"""Command-line entry points: solve, baseline, bench, verify."""

import argparse
import json
import math
import os
import sys

from .baselines import greedy, ssp
from .experiments import (CORPUS_MAX_N, FAMILIES, FsInstanceSpec, bench_to_csv,
                          load_instance, run_bench, verify_corpus)
from .setfn import CHECK_CAP, ENUM_CAP, as_table, is_submodular, set_of
from .solver import SolverConfig, solve


def _fail(reason):
    """Say on stderr why the command cannot run; returns the exit code 1."""
    print("dsprism: %s" % reason, file=sys.stderr)
    return 1


def _load(path):
    """The instance in the file at path, or None after saying on stderr why
    it cannot be loaded."""
    try:
        return load_instance(path)
    except KeyError as exc:
        reason = "missing key %s" % exc
    except (OSError, TypeError, ValueError) as exc:
        reason = str(exc)
    _fail("cannot load instance %s: %s" % (path, reason))
    return None


def _too_large(inst, command):
    """True, after saying why on stderr, when the instance has more elements
    than command can tabulate."""
    if inst.n <= ENUM_CAP:
        return False
    _fail("%s tabulates all 2^n subsets, so n <= %d; the instance has n = %d "
          "(baseline --method greedy takes any n)" % (command, ENUM_CAP, inst.n))
    return True


def _unwritable(*paths):
    """True, after saying why on stderr, when one of the output paths (None
    for an output not asked for) cannot be opened for writing.  A file the
    probe creates is removed again."""
    for path in filter(None, paths):
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            _fail("cannot write %s: %s" % (path, exc.strerror))
            return True
        if not existed:
            os.remove(path)
    return False


def _cmd_solve(args):
    try:
        cfg = SolverConfig(eps=args.eps, max_iters=args.max_iters)
    except ValueError as exc:
        return _fail(exc)
    inst = _load(args.instance)
    if (inst is None or _too_large(inst, "solve")
            or _unwritable(args.trace, args.report)):
        return 1
    # the cuts and bounds hold for submodular sides only; checked here, at
    # O(n^2 2^n) per side, and not in every solve, on the tables the solve
    # then takes, so each oracle is tabulated once
    ft, gt = as_table(inst.f), as_table(inst.g)
    for side, t in (("f", ft), ("g", gt)):
        if not is_submodular(t, tol=1e-8):
            return _fail("side %s of the instance is not submodular (is_submodular at "
                         "tol 1e-8); setfn.ds_decompose repairs the pair" % side)
    report = solve(ft, gt, cfg)
    payload = report.to_dict()
    trace = payload.pop("trace")
    if args.trace:
        with open(args.trace, "w") as fh:
            for row in trace:
                fh.write(json.dumps(row) + "\n")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
    print("optimal set %s  value %.10g  (%s, %d iterations, %d cuts)" %
          (payload["optimal_set"], payload["optimal_value"],
           payload["termination_reason"], payload["iterations"],
           payload["cuts_added"]))
    return 0 if payload["termination_reason"] == "optimal" else 2


def _cmd_baseline(args):
    inst = _load(args.instance)
    if inst is None:
        return 1
    if args.method == "ssp":
        if _too_large(inst, "baseline --method ssp"):
            return 1
        if not 0 <= args.init < 1 << inst.n:
            return _fail("--init must be a subset mask in 0..%d, got %d"
                         % ((1 << inst.n) - 1, args.init))
    if _unwritable(args.report):
        return 1
    if args.method == "ssp":
        out = ssp(inst.f, inst.g, init=args.init, seed=args.seed)
        payload = {"method": "ssp", "set": set_of(out.mask), "value": out.value,
                   "iterations": out.iterations, "seed": args.seed, "init": args.init}
    else:
        mask, value = greedy(inst.f, inst.g)
        payload = {"method": "greedy", "set": set_of(mask), "value": value}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
    print("%s: set %s  value %.10g" % (args.method, payload["set"], payload["value"]))
    return 0


def _cmd_bench(args):
    try:
        lambdas = [float(s) for s in args.lambdas.split(",")]
        if not all(math.isfinite(lam) and lam >= 0 for lam in lambdas):
            raise ValueError
    except ValueError:
        return _fail("--lambdas must be comma-separated finite nonnegative numbers, got %r"
                     % args.lambdas)
    if args.p > CHECK_CAP:
        return _fail("--p must be at most %d, got %d: the prism solve repairs each pair "
                     "through the exhaustive submodularity check" % (CHECK_CAP, args.p))
    try:
        FsInstanceSpec(p=args.p, n_samples=args.n, k=args.k, lam=1.0, seed=args.seed)
    except ValueError as exc:
        return _fail(exc)
    agg_path = args.out + ".agg.json"
    if _unwritable(args.out, agg_path):
        return 1
    rows, aggregates = run_bench(p=args.p, n_samples=args.n, k=args.k,
                                 lambdas=lambdas, reps=args.reps, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(bench_to_csv(rows))
    with open(agg_path, "w") as fh:
        json.dump(aggregates, fh, indent=2)
    print("wrote %d rows to %s (aggregates in %s)" % (len(rows), args.out, agg_path))
    return 0


def _cmd_verify(args):
    families = list(FAMILIES) if args.families == "all" else args.families.split(",")
    for family in families:
        if family not in FAMILIES:
            return _fail("unknown family %r (known: %s)" % (family, ", ".join(FAMILIES)))
    try:
        n_values = [int(s) for s in args.n.split(",")]
    except ValueError:
        return _fail("--n must be comma-separated integers, got %r" % args.n)
    for n in n_values:
        if not 1 <= n <= CORPUS_MAX_N:
            return _fail("--n values must lie in 1..%d, got %d" % (CORPUS_MAX_N, n))
    mismatches = verify_corpus(n_values, families, args.reps, args.seed)
    if mismatches:
        for m in mismatches:
            print("MISMATCH %s" % json.dumps(m))
        return 1
    print("verify: all instances exact (%d solves)" %
          (len(n_values) * len(families) * args.reps))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="dsprism")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="exact solve of an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--trace", default=None, help="JSONL trace output path")
    p.add_argument("--report", default=None, help="JSON report output path")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("baseline", help="run an approximate baseline")
    p.add_argument("--method", choices=["ssp", "greedy"], required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", type=int, default=0, help="initial subset mask for ssp")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("bench", help="feature-selection benchmark suite")
    p.add_argument("--p", type=int, default=10)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--lambdas", default="0.25,0.5,1.0,2.0")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("verify", help="corpus exactness gate vs brute force")
    p.add_argument("--n", default="8", help="comma-separated ground-set sizes")
    p.add_argument("--families", default="all")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    if args.cmd in ("bench", "verify"):
        if args.reps < 1:
            return _fail("--reps must be at least 1, got %d" % args.reps)
        if args.seed < 0:
            return _fail("--seed must be nonnegative, got %d" % args.seed)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
