"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line (echoed in the summary via the -rA pytest option).

The heavyweight artifacts (the instrumented sub-corpus runs and the
benchmark) are computed once per module and shared across criteria.
"""

import time

import numpy as np
import pytest

from dsprism import setfn
from dsprism.bound import MEMBERSHIP_TOL, binary_points
from dsprism.experiments import FAMILIES, gen_random_ds, run_bench, verify_corpus
from dsprism.geometry import barycentric, bisect, initial_simplex
from dsprism.setfn import (as_table, brute_force_ds_min, indicator, lovasz,
                           lovasz_subgradient, mask_of)
from dsprism.solver import solve
from helpers import contains, cut_rows, equivalence_check, t_interval, volume_measure


def _report(num, name, ok, detail=""):
    line = "ACCEPTANCE %d %s: %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def instrumented_runs():
    """Observer-instrumented solves over a sub-corpus (n 3..6, all four
    families, two seeds) retaining every bound evaluation and every cut."""
    runs = []
    for n in range(3, 7):
        for family in FAMILIES:
            for seed in (0, 1):
                inst = gen_random_ds(n, family, seed)
                nodes, cuts = [], []

                def observer(event, data, nodes=nodes, cuts=cuts):
                    if event == "node_bound":
                        nodes.append(data)
                    elif event == "cut":
                        cuts.append(data)

                rep = solve(inst.f, inst.g, observer=observer)
                runs.append({"inst": inst, "ft": as_table(inst.f),
                             "gt": as_table(inst.g), "nodes": nodes,
                             "cuts": cuts, "report": rep})
    return runs


@pytest.fixture(scope="module")
def bench_rows():
    rows, agg = run_bench(p=10, n_samples=40, k=3,
                          lambdas=(0.25, 0.5, 1.0, 2.0), reps=10, seed=7)
    return rows, agg


def test_criterion_1_corpus_exactness():
    n_values = list(range(3, 11))
    reps = 7  # 8 sizes x 4 families x 7 seeds = 224 instances
    t0 = time.perf_counter()
    mismatches = verify_corpus(n_values, list(FAMILIES), reps=reps, seed=0)
    elapsed = time.perf_counter() - t0
    count = len(n_values) * len(FAMILIES) * reps
    ok = count >= 200 and mismatches == [] and elapsed < 300.0
    _report(1, "corpus exactness vs brute force", ok,
            "%d instances, %d mismatches, %.1fs" % (count, len(mismatches), elapsed))


def test_criterion_2_worked_trace():
    f = setfn.table(1, [0.0, 1.0])
    g = setfn.table(1, [0.0, 2.0])
    nodes, cuts = [], []

    def observer(event, data):
        if event == "node_bound":
            nodes.append(data)
        elif event == "cut":
            cuts.append(data)

    rep = solve(f, g, observer=observer)
    root = nodes[0]["bound"]
    checks = [
        root.c_star == pytest.approx(1.0, abs=1e-12),
        root.witness_mask == 1 and np.array_equal(root.feasible_points, [0, 1])
        and nodes[0]["polyhedron"].t_lo[1] == 0.0,
        len(cuts) == 1 and cuts[0]["z"] == (1, 0.0),
        np.array_equal(cuts[0]["row"][0], [1.0]),  # cut reads t >= x
        cuts[0]["row"][1] == 0.0,
        rep.deleted_dr2 == 2 and rep.iterations == 1,
        rep.optimal_set == [0] and rep.optimal_value == -1.0,
    ]
    a = solve(f, g).to_dict()
    b = solve(f, g).to_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    checks.append(a == b)
    _report(2, "worked n=1 trace, bit-deterministic", all(checks))


def test_criterion_3_bound_problem_invariants(instrumented_runs):
    feas_tol = 1e-9
    infeasible_ok = True
    level_ok = True
    equiv_ok = True
    solved_nodes = []
    for run in instrumented_runs:
        gt = run["gt"]
        n = gt.n
        grid = binary_points(n)
        s, d = cut_rows(run["cuts"])
        for data in run["nodes"]:
            S, P, levels, res = (data["simplex"], data["polyhedron"],
                                 data["levels"], data["bound"])
            k = P.num_rows - 1  # P's rows: the first k of the solve's cuts
            # (a) infeasibility iff exhaustive absence of binary feasible points
            lam = barycentric(S, grid)
            inside = np.min(lam, axis=1) >= -MEMBERSHIP_TOL
            any_feasible = False
            for m in np.nonzero(inside)[0]:
                iv = t_interval(P, s[:k], d[:k], grid[m], tol=feas_tol)
                if iv is not None and iv[0] <= iv[1] + feas_tol:
                    any_feasible = True
                    break
            if (res.status == "Infeasible") == any_feasible:
                infeasible_ok = False
            if res.status != "Solved":
                continue
            solved_nodes.append((S, P, levels, res, gt))
            # (b) the supporting shifted levels drop by exactly c* below ghat+mu
            if res.c_star > 0.0:
                for i, v in enumerate(S.vertices):
                    shifted = levels.t[i] - res.c_star
                    if abs((shifted - lovasz(gt, v)) - (levels.mu - res.c_star)) > 1e-9:
                        level_ok = False
    # objective equivalence with the hyperplane form on 50 sampled nodes
    step = max(1, len(solved_nodes) // 50)
    sampled = solved_nodes[::step][:50]
    for S, P, levels, res, gt in sampled:
        if not equivalence_check(S, P, levels, tol=1e-8):
            equiv_ok = False
    ok = infeasible_ok and level_ok and equiv_ok and len(sampled) >= 50
    _report(3, "bound-problem invariants on every node", ok,
            "%d nodes, %d sampled for equivalence" %
            (sum(len(r["nodes"]) for r in instrumented_runs), len(sampled)))


def test_criterion_4_cut_validity(instrumented_runs):
    ok = True
    total = 0
    for run in instrumented_runs:
        ft = run["ft"]
        n = ft.n
        for data in run["cuts"]:
            total += 1
            s, d = data["row"]
            z, t = data["z"]
            if float(s @ indicator(z, n)) - t + d <= 0.0:  # strict separation of (z, t)
                ok = False
            worst = max(float(s @ indicator(m, n)) - ft(m) + d
                        for m in range(1 << n))
            if worst > 1e-9:
                ok = False
    _report(4, "every cut strictly separates and underestimates", ok,
            "%d cuts checked" % total)


def test_criterion_5_bound_sandwich(instrumented_runs):
    ok = True
    for run in instrumented_runs:
        rep = run["report"]
        eps = rep.config["eps"] * max(1.0, abs(rep.optimal_value))
        alphas = [v for _, v in rep.alpha_history]
        if any(b > a + 1e-12 for a, b in zip(alphas, alphas[1:])):
            ok = False
        steps = [t for t in rep.trace if t["iter"] >= 1]
        betas = [t["beta"] for t in steps]
        if any(b < a - 1e-12 for a, b in zip(betas, betas[1:])):
            ok = False
        if any(t["beta"] > t["alpha"] + eps for t in steps):
            ok = False
        if rep.termination_reason != "optimal" or rep.final_gap > eps:
            ok = False
    _report(5, "beta nondecreasing, alpha nonincreasing, gap closes", ok,
            "%d solves" % len(instrumented_runs))


def _library_oracles(n, seed):
    """One submodular instance per library constructor.

    The residual design uses orthonormal columns so the fit decomposes
    additively (the raw term is not supermodular for generic designs); the
    explicit table holds a cut function, keeping the entries submodular.
    """
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n + 3, n)))
    y = Q @ rng.standard_normal(n) + 0.1 * rng.standard_normal(n + 3)
    B = rng.standard_normal((n, n))
    sigma = B @ B.T + n * np.eye(n)
    phi = np.concatenate([[0.0], np.cumsum(np.sort(rng.uniform(0, 1, n))[::-1])])
    covers = [[u for u in range(2 * n) if rng.random() < 0.4] for _ in range(n)]
    cut_fn = setfn.cut(n, [(u, v, float(rng.uniform(0.1, 1.0)))
                           for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.5] or [(0, 1, 0.5)])
    return [
        setfn.modular(rng.normal(size=n)),
        setfn.cardinality_concave(n, phi),
        cut_fn,
        setfn.coverage(n, rng.uniform(0.1, 1.0, 2 * n), covers),
        setfn.table(n, [cut_fn(m) + 0.3 for m in range(1 << n)]),
        setfn.nuclear(Q, scale=0.7),
        setfn.neg_residual(Q, y),
        setfn.gaussian_entropy(sigma),
    ]


def test_criterion_6_extension_layer():
    n = 10
    oracles = _library_oracles(n, seed=42)
    exact_ok = True
    for oracle in oracles:
        for m in range(1 << n):
            if lovasz(oracle, indicator(m, n)) != oracle(m):
                exact_ok = False
    sub_ok = True
    rng = np.random.default_rng(7)
    for oracle in oracles:
        t = as_table(oracle)
        X = rng.uniform(0.0, 1.0, size=(1000, n))
        Y = rng.uniform(0.0, 1.0, size=(1000, n))
        for x, y in zip(X, Y):
            s = lovasz_subgradient(t, x)
            lhs = lovasz(t, y)
            rhs = lovasz(t, x) + float(s @ (y - x))
            if lhs < rhs - 1e-9:
                sub_ok = False
    _report(6, "extension agrees on vertices; subgradient inequality",
            exact_ok and sub_ok,
            "%d oracles, 1000 pairs each" % len(oracles))


def test_criterion_7_geometry():
    split_ok = True
    frontier = [initial_simplex(3)]
    for _ in range(12):
        nxt = []
        for S in frontier:
            (_, A), (_, B) = bisect(S)
            parent = volume_measure(S)
            if abs(volume_measure(A) + volume_measure(B) - parent) > 1e-7 * parent:
                split_ok = False
            nxt.extend((A, B))
        frontier = nxt
    contain_ok = True
    for n in range(1, 7):
        for v_mask in range(1 << n):
            S = initial_simplex(n, v_mask)
            for m in range(1 << n):
                if not contains(S, indicator(m, n), tol=1e-9):
                    contain_ok = False
    _report(7, "bisection preserves volume; initial simplex covers cube",
            split_ok and contain_ok,
            "%d splits to depth 12" % (2 ** 12 - 1))


def test_criterion_8_benchmark_ordering(bench_rows):
    rows, agg = bench_rows
    by = {}
    for r in rows:
        by.setdefault((r["lambda"], r["seed"]), {})[r["method"]] = r
    total = len(by)
    wins = sum(1 for cell in by.values()
               if cell["prism"]["objective"] <= cell["ssp"]["objective"])
    mean_test = {m: float(np.mean([r["test_err"] for r in rows if r["method"] == m]))
                 for m in ("prism", "ssp", "greedy")}
    detail = ("objective prism<=ssp on %d/%d rows; mean test error "
              "prism %.4f vs ssp %.4f [reported, not gated]"
              % (wins, total, mean_test["prism"], mean_test["ssp"]))
    _report(8, "exact solutions never lose to SSP on the objective",
            wins == total, detail)


def test_criterion_9_performance_smoke():
    inst = gen_random_ds(10, "table_random_submodular_pair", 0)
    t0 = time.perf_counter()
    rep = solve(inst.f, inst.g)
    elapsed = time.perf_counter() - t0
    _, best = brute_force_ds_min(as_table(inst.f), as_table(inst.g))
    ok = (elapsed < 60.0 and rep.termination_reason == "optimal"
          and abs(rep.optimal_value - best) <= 1e-8 * max(1.0, abs(best)))
    _report(9, "single n=10 instance solves fast", ok, "%.2fs" % elapsed)
