"""Fingerprint the solver's output over a fixed grid of corpus solves.

    python3 tools/identity_hash.py [--src DIR] [--max-n N]

Solves every corpus instance for n = 1..N (N = 10 by default, at most 10,
the corpus generator's limit), the four families and seeds 0..6, with
max_iters at its default, 0 and 1, once anchored at the cube vertex 0 and
once at 2^n - 1.  For each anchor it prints two SHA-256 digests:

- ``full``: every report's ``to_dict()`` without ``wall_time_ms``, and every
  observer event in the order it was emitted;
- ``answers``: only each solve's optimal set and value, termination reason,
  counters and ``final_gap``.

These four lines come first.  Four ``paper-search`` lines follow: the same
digests over n = 1..min(N, 8) for the paper's search, where each bound
program hands on only the two points that decide it
(``cut_where_the_bound_is_decided``) instead of the root's sweep of the
cube.  That search re-bounds stale regions at selection, which the sweep
never does.

Arrays, and the arrays inside simplices, polyhedra and bound results, are
hashed by dtype, shape and bytes, and floats by their bits, so two digests
agree only when the runs agree bit for bit.  ``--src`` imports dsprism from
another checkout's ``src`` directory (default: this checkout's), so the
output of two checkouts can be compared line by line.  A smaller
``--max-n`` gives a quick check; its digests differ from the default's.
"""

import argparse
import dataclasses
import hashlib
import os
import struct
import sys
from pathlib import Path

MAX_N = 10
PAPER_MAX_N = 8  # the paper's search to n = 10 takes about nine times as long
GRID_SEEDS = range(7)
# None keeps SolverConfig's default
GRID_MAX_ITERS = (None, 0, 1)
ANSWER_FIELDS = ("optimal_set", "optimal_value", "termination_reason", "iterations",
                 "nodes_created", "nodes_explored", "deleted_dr1", "deleted_dr2",
                 "deleted_bound", "cuts_added", "final_gap")


def cut_where_the_bound_is_decided(solve_bound):
    """The paper's search in place of the root sweep: wraps solve_bound so
    each bound program hands the solver only its witness and the first
    argmin of t_lo - g among its binary points, the point that decides the
    direct bound.  The solver then feeds the incumbent and cuts only those
    two points."""
    import numpy as np

    def paper_bound(S, P, levels, g):
        res = solve_bound(S, P, levels, g)
        masks = res.feasible_points
        if len(masks) == 0:
            return res
        j = int(np.argmin(P.t_lo[masks] - g.values(masks)))
        at = np.searchsorted(masks, np.unique([res.witness_mask, masks[j]]))
        return dataclasses.replace(res, feasible_points=masks[at])

    return paper_bound


def feed(h, obj):
    """Update the hash h with a type-tagged, bit-exact encoding of obj."""
    import numpy as np

    if obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(b"o%r;" % (None if obj is None else bool(obj)))
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(obj, np.ndarray):
        h.update(b"a%s%r:" % (obj.dtype.str.encode(), obj.shape))
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d:" % len(obj))
        for item in obj:
            feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"d%d:" % len(obj))
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
    elif dataclasses.is_dataclass(obj):
        feed(h, type(obj).__name__)
        feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif hasattr(type(obj), "__slots__"):  # Simplex, Polyhedron
        feed(h, type(obj).__name__)
        feed(h, {name: getattr(obj, name) for name in type(obj).__slots__})
    else:
        raise TypeError("cannot hash %r" % type(obj))


def grid_digests(instances):
    """{anchor name: (full digest, answers digest)} over solving instances."""
    from dsprism.solver import SolverConfig, solve

    out = {}
    for anchor in ("0", "2^n-1"):
        full, answers = hashlib.sha256(), hashlib.sha256()

        def observer(event, data):
            feed(full, event)
            feed(full, data)

        for inst in instances:
            for max_iters in GRID_MAX_ITERS:
                kwargs = {"initial_vertex": 0 if anchor == "0" else (1 << inst.n) - 1}
                if max_iters is not None:
                    kwargs["max_iters"] = max_iters
                cfg = SolverConfig(**kwargs)
                report = solve(inst.f, inst.g, cfg, observer=observer).to_dict()
                del report["wall_time_ms"]
                feed(full, report)
                feed(answers, [report[k] for k in ANSWER_FIELDS])
        out[anchor] = (full.hexdigest(), answers.hexdigest())
    return out


def digests(max_n=MAX_N):
    """{(search, anchor name): (full digest, answers digest)}: the sweep
    over the grid of n = 1..max_n, then the paper's search over
    n = 1..min(max_n, PAPER_MAX_N)."""
    from dsprism import solver
    from dsprism.experiments import FAMILIES, gen_random_ds

    instances = [gen_random_ds(n, family, seed)
                 for n in range(1, max_n + 1) for family in FAMILIES for seed in GRID_SEEDS]
    out = {("sweep", anchor): d for anchor, d in grid_digests(instances).items()}
    sweep_bound = solver.solve_bound
    solver.solve_bound = cut_where_the_bound_is_decided(sweep_bound)
    try:
        paper = grid_digests([inst for inst in instances if inst.n <= PAPER_MAX_N])
    finally:
        solver.solve_bound = sweep_bound
    out.update((("paper-search", anchor), d) for anchor, d in paper.items())
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory that holds the dsprism package")
    ap.add_argument("--max-n", type=int, default=MAX_N,
                    help="largest ground set of the grid, 1..%d (default %d)" % (MAX_N, MAX_N))
    args = ap.parse_args(argv)
    if not 1 <= args.max_n <= MAX_N:
        ap.error("--max-n must lie in 1..%d, got %d" % (MAX_N, args.max_n))
    # one BLAS thread, as perfbench runs, before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, args.src)
    for (search, anchor), (full, answers) in digests(args.max_n).items():
        prefix = "" if search == "sweep" else search + " "
        print("%sanchor %-5s full %s" % (prefix, anchor, full))
        print("%sanchor %-5s answers %s" % (prefix, anchor, answers))


if __name__ == "__main__":
    main()
