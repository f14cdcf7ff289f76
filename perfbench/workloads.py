"""The benchmark's workloads: seeded instance pools, the operation a client
sends, and the brute-force reference that checks every answer.

An operation returns one record per ``solve`` call it made.  Each record
carries the answer, the deterministic counters and the solve's wall time;
``check`` then compares the answer with a vectorized argmin over the same
tables the solver was given.
"""

import time

import numpy as np

from dsprism import baselines, experiments, setfn, solver

FS_P, FS_SAMPLES, FS_K, FS_LAMBDAS = 10, 40, 3, (0.25, 0.5, 1.0, 2.0)


def counted(oracle, tally):
    """oracle behind a SetFunction with no table, counting evaluations."""

    def fn(mask):
        tally[0] += 1
        return oracle(mask)

    return setfn.SetFunction(oracle.n, fn, name="counted(%s)" % oracle.name,
                             submodular=oracle.submodular)


def timed_solve(f, g, probe):
    """Solve f - g through counting oracles; returns the answer record."""
    tally = [0]
    t0 = time.perf_counter()
    rep = solver.solve(counted(f, tally), counted(g, tally))
    wall = time.perf_counter() - t0
    feasible, cells = probe.take()
    mask = setfn.mask_of(rep.optimal_set)
    record = {
        "mask": mask, "value": rep.optimal_value,
        "termination": rep.termination_reason, "wall_s": wall,
        "counts": {"oracle_evals": tally[0], "iterations": rep.iterations,
                   "nodes_created": rep.nodes_created,
                   "nodes_explored": rep.nodes_explored,
                   "deleted_dr1": rep.deleted_dr1, "deleted_dr2": rep.deleted_dr2,
                   "deleted_bound": rep.deleted_bound, "cuts_added": rep.cuts_added,
                   "feasible_points": feasible, "cells_computed": cells},
    }
    return record


def exact(record, F, G):
    """True iff the solve was optimal and its set attains min(F - G)."""
    diff = F - G
    best = float(diff[int(np.argmin(diff))])
    tol = 1e-8 * max(1.0, abs(best))
    return (record["termination"] == "optimal"
            and abs(record["value"] - best) <= tol
            and abs(float(diff[record["mask"]]) - best) <= tol)


def brute_seconds(F, G, number=200):
    """Seconds per vectorized brute-force argmin of F - G over the tables."""
    t0 = time.perf_counter()
    for _ in range(number):
        np.argmin(F - G)
    return (time.perf_counter() - t0) / number


def relative_gap(value, best):
    """Gap of a heuristic's value to the optimum, relative to max(|best|, 1)
    so that an optimum of 0 (the empty set) stays finite."""
    return (value - best) / max(abs(best), 1.0)


class Workload:
    """A named, seeded instance pool; subclasses define the operation."""

    name = why = recipe = None
    pool_keys = ()

    def setup(self, seed, gen):
        """The instance pool for a seed; gen(make, key, seed) builds one."""
        return [gen(self.make, key, seed) for key in self.pool_keys]


class PairWorkload(Workload):
    """Pools of (f, g) pairs; one operation is one exact solve.

    The heuristics are run on the reference tables after the measured loop,
    once per pool instance, so that their gap to the optimum is known on
    every workload without counting toward the solve time.
    """

    def __init__(self, name, why, recipe, make, pool_keys):
        self.name, self.why, self.recipe = name, why, recipe
        self.make = make
        self.pool_keys = pool_keys

    def op(self, inst, probe):
        return [timed_solve(inst.f, inst.g, probe)]

    def check(self, pool, ops):
        """Fill failures and reference data into ops; returns per-instance
        reference results: brute-force time and heuristic outcomes."""
        refs = []
        for inst in pool:
            F = setfn.as_table(inst.f).table_values
            G = setfn.as_table(inst.g).table_values
            ft, gt = setfn.table(inst.n, F), setfn.table(inst.n, G)
            best = float(np.min(F - G))
            ssp = baselines.ssp(ft, gt, init=0, seed=inst.seed)
            _, greedy_val = baselines.greedy(ft, gt)
            refs.append({"F": F, "G": G, "brute_s": [brute_seconds(F, G)],
                         "ssp_gap": [relative_gap(ssp.value, best)],
                         "ssp_iterations": [ssp.iterations],
                         "greedy_gap": [relative_gap(greedy_val, best)]})
        for op in ops:
            if op["records"] is not None:
                ref = refs[op["instance"]]
                op["failed"] = not all(exact(r, ref["F"], ref["G"])
                                       for r in op["records"])
        return refs


def _corpus(key, seed):
    family, i = key
    return experiments.gen_random_ds(10, family, 100 * seed + i)


def _cut_n12(key, seed):
    # the corpus recipe for cut_minus_modular (gen_random_ds caps n at 10)
    n, i = 12, key
    rng = np.random.default_rng([seed, i])
    edges = [(u, v, float(rng.uniform(0.1, 1.0)))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    f = setfn.cut(n, edges or [(0, 1, 0.5)])
    g = setfn.modular(rng.normal(0.0, 0.7, size=n))
    return experiments.DsInstance(f=f, g=g, n=n, family="cut_minus_modular",
                                  seed=100 * seed + i)


class FsWorkload(Workload):
    """The paper's feature-selection experiment; one operation is one
    design matrix: bulk tabulation of both oracles, then per lambda the
    repaired exact solve and the SSP and greedy heuristics, as run_bench
    does them."""

    name = "fs-p10"
    why = ("the paper's experiment: expensive oracles tabulated in bulk "
           "through numerics outside solve, then four cheap table solves")
    recipe = ("experiments.gen_feature_selection(p=%d, n_samples=%d, k=%d, "
              "seed=100*seed+i), i < 12; lambda in %s; methods prism, ssp, greedy"
              % (FS_P, FS_SAMPLES, FS_K, list(FS_LAMBDAS)))
    pool_keys = tuple(range(12))

    @staticmethod
    def make(key, seed):
        return experiments.gen_feature_selection(experiments.FsInstanceSpec(
            p=FS_P, n_samples=FS_SAMPLES, k=FS_K, lam=1.0, seed=100 * seed + key))

    def op(self, inst, probe):
        nuc = setfn.as_table(setfn.nuclear(inst.X, scale=1.0))
        res = setfn.as_table(inst.g)
        records = []
        for lam in FS_LAMBDAS:
            f = setfn.table(FS_P, [lam * nuc(m) for m in range(1 << FS_P)])
            f2, g2, _ = setfn.ds_decompose(f, res)
            rec = timed_solve(f2, g2, probe)
            ssp = baselines.ssp(f, res, init=0, seed=inst.spec.seed)
            _, greedy_val = baselines.greedy(f, res)
            rec["tables"] = (f2.table_values, g2.table_values,
                             f.table_values, res.table_values)
            rec["heuristics"] = (ssp.value, ssp.iterations, greedy_val)
            records.append(rec)
        return records

    def check(self, pool, ops):
        """Each answer against the tables of its own operation: the repaired
        pair the solver saw and the original objective it reports."""
        refs = [{"brute_s": [], "ssp_gap": [], "ssp_iterations": [],
                 "greedy_gap": []} for _ in pool]
        for op in ops:
            if op["records"] is None:
                continue
            ref = refs[op["instance"]]
            first = not ref["brute_s"]
            op["failed"] = False
            for rec in op["records"]:
                F2, G2, F, G = rec.pop("tables")
                ssp_val, ssp_iters, greedy_val = rec.pop("heuristics")
                op["failed"] |= not (exact(rec, F2, G2) and exact(
                    dict(rec, value=float(F[rec["mask"]] - G[rec["mask"]])), F, G))
                if first:
                    best = float(np.min(F - G))
                    ref["brute_s"].append(brute_seconds(F2, G2))
                    ref["ssp_gap"].append(relative_gap(ssp_val, best))
                    ref["ssp_iterations"].append(ssp_iters)
                    ref["greedy_gap"].append(relative_gap(greedy_val, best))
        return refs


WORKLOADS = {
    "corpus-n10": PairWorkload(
        "corpus-n10",
        "the corpus gate's traffic at n=10: balanced over tabulation, the "
        "2^n-point root bound and ~1,023 cuts; nuclear generation in set-up",
        "experiments.gen_random_ds(10, family, 100*seed+i) for each of the "
        "four experiments.FAMILIES, i < 2, cycled family by family",
        _corpus,
        tuple((family, i) for i in range(2) for family in experiments.FAMILIES)),
    "cut-n12": PairWorkload(
        "cut-n12",
        "cheap oracles at n=12: the bound program and polyhedron growth do "
        "almost all the work; memory and with_row copies show here",
        "setfn.cut(12, edges with p=0.6, weight U(0.1,1)) - setfn.modular("
        "N(0,0.7)), rng = numpy default_rng([seed, i]), i < 24",
        _cut_n12, tuple(range(24))),
    "fs-p10": FsWorkload(),
}
