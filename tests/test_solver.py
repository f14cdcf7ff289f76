"""Tests for the branch-and-bound driver."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dsprism import geometry, setfn, solver
from dsprism.experiments import FAMILIES, gen_random_ds
from dsprism.geometry import barycentric, binary_points
from dsprism.setfn import as_table, brute_force_ds_min, indicator, lovasz
from dsprism.solver import FEAS_TOL, SolverConfig, cutting_plane, solve


def worked_pair():
    return setfn.table(1, [0.0, 1.0]), setfn.table(1, [0.0, 2.0])


def test_worked_n1_trace():
    f, g = worked_pair()
    rep = solve(f, g)
    assert rep.optimal_set == [0]
    assert rep.optimal_value == -1.0
    assert rep.termination_reason == "optimal"
    assert rep.cuts_added == 1
    assert rep.deleted_dr2 == 2
    root = rep.trace[0]
    assert root["action"] == "root"
    assert root["children"][0]["c_star"] == pytest.approx(1.0)
    assert root["children"][0]["beta"] == pytest.approx(-2.0)
    step = rep.trace[1]
    assert step["action"] == "cut"
    assert [c["deleted_by"] for c in step["children"]] == ["dr2", "dr2"]
    assert rep.iterations == 1
    assert rep.final_gap == 0.0


def test_worked_n1_bit_deterministic():
    f, g = worked_pair()
    a = solve(f, g).to_dict()
    b = solve(f, g).to_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def test_equal_functions_give_zero_at_empty_set():
    for mk in (lambda: setfn.cut(4, [(0, 1, 1.0), (2, 3, 0.7)]),
               lambda: setfn.modular([0.3, -0.2, 0.1, 0.4])):
        f = mk()
        rep = solve(f, mk())
        assert rep.optimal_value == pytest.approx(0.0, abs=1e-12)
        assert rep.optimal_set == []


def test_n2_cut_minus_modular():
    f = setfn.cut(2, [(0, 1, 1.0)])
    g = setfn.modular([1.5, 0.0])
    rep = solve(f, g)
    assert rep.optimal_set == [0, 1]
    assert rep.optimal_value == pytest.approx(-1.5)


def test_ground_set_mismatch():
    with pytest.raises(setfn.GroundSetError):
        solve(setfn.modular([1.0]), setfn.modular([1.0, 2.0]))


@pytest.mark.parametrize("field", ["eps"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9])
def test_config_rejects_bad_tolerances(field, bad):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: bad})


@pytest.mark.parametrize("field", ["max_iters", "max_nodes"])
def test_config_rejects_negative_limits(field):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: -1})
    assert getattr(SolverConfig(**{field: 0}), field) == 0


@pytest.mark.parametrize("field", ["max_iters", "max_nodes"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, 3.0, True, False, "7", None])
def test_config_rejects_limits_that_are_not_integers(field, bad):
    with pytest.raises(ValueError, match="%s must be an integer, got %r" % (field, bad)):
        SolverConfig(**{field: bad})
    assert getattr(SolverConfig(**{field: np.int64(5)}), field) == 5


def test_config_cannot_change_after_its_checks():
    cfg = SolverConfig()
    for field, value in (("max_iters", float("nan")), ("eps", -5.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
    assert cfg == SolverConfig()
    with pytest.raises(ValueError, match="max_iters must be an integer, got nan"):
        dataclasses.replace(cfg, max_iters=float("nan"))


@pytest.mark.parametrize("v", [8, 2**40, -1, 1.5])
def test_solve_rejects_initial_vertex_outside_cube(v):
    f, g = setfn.cut(3, [(0, 1, 1.0)]), setfn.modular([0.5, -0.5, 0.25])
    with pytest.raises(ValueError, match="initial_vertex"):
        solve(f, g, SolverConfig(initial_vertex=v))
    assert solve(f, g, SolverConfig(initial_vertex=7)).config["initial_vertex"] == 7


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_oracle_values(bad):
    vals = [0.0, 1.0, 2.0, bad]
    f = setfn.SetFunction(2, lambda m: vals[m], name="bad")
    g = setfn.modular([0.5, 0.5])
    with pytest.raises(ValueError, match="mask 3 "):
        solve(f, g)
    with pytest.raises(ValueError, match="mask 3 "):
        solve(g, f)


def test_cutting_plane_worked_example():
    f = setfn.table(1, [0.0, 1.0])
    s, c, d = cutting_plane(f, np.array([1.0]), 0.0)
    assert np.allclose(s, [1.0]) and c == -1.0 and d == pytest.approx(0.0)
    # l(x, t) = x - t: zero at both epigraph points (0,0) and (1,1)
    assert float(s @ [0.0]) - 0.0 + d <= 1e-12
    assert float(s @ [1.0]) - 1.0 + d <= 1e-12


def test_cutting_plane_modular_reduces_to_epigraph_facet():
    w = np.array([0.5, -1.0, 2.0])
    f = setfn.modular(w)
    x_star = np.array([0.25, 0.75, 0.5])
    s, c, d = cutting_plane(f, x_star, float(w @ x_star) - 1.0)
    assert np.allclose(s, w)
    assert d == pytest.approx(0.0, abs=1e-12)


def test_cutting_plane_rejects_feasible_point():
    f = setfn.table(1, [0.0, 1.0])
    with pytest.raises(ValueError):
        cutting_plane(f, np.array([1.0]), 1.0)


def test_cut_validity_on_all_subsets():
    # Proposition-2 style check: l(z) > 0 and l(I_A, f(A)) <= 0 for all A
    rng = np.random.default_rng(0)
    f = as_table(setfn.coverage(4, rng.uniform(0.5, 1.0, 8),
                                [[0, 1], [1, 2, 3], [4, 5], [5, 6, 7]]))
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, size=4)
        t = lovasz(f, x) - rng.uniform(0.1, 1.0)
        s, c, d = cutting_plane(f, x, t)
        assert float(s @ x) + c * t + d > 0
        for m in range(16):
            assert float(s @ indicator(m, 4)) + c * f(m) + d <= 1e-9


def test_block_cutting_planes_match_single_point_cuts():
    rng = np.random.default_rng(1)
    n = 6
    for f in (as_table(setfn.coverage(n, rng.uniform(0.5, 1.0, 9),
                                      [[0, 1], [1, 2, 3], [4, 5], [5, 6, 7], [8], [0, 8]])),
              setfn.table(n, rng.normal(size=1 << n))):
        masks = rng.permutation(1 << n)[:40]
        for X in (binary_points(n)[masks], rng.uniform(0.0, 1.0, size=(40, n))):
            t = lovasz(f, X) - rng.uniform(0.1, 1.0, size=len(X))
            S, c, d = cutting_plane(f, X, t)
            assert S.shape == X.shape and c.shape == d.shape == (len(X),)
            for j in range(len(X)):
                s1, c1, d1 = cutting_plane(f, X[j], t[j])
                assert np.array_equal(S[j], s1) and c[j] == c1 == -1.0 and d[j] == d1
        # tight at its own binary point: l(I_A, f(A)) = 0
        X = binary_points(n)[masks]
        S, c, d = cutting_plane(f, X, f.table_values[masks] - 1.0)
        for j, m in enumerate(masks):
            assert abs(float(S[j] @ X[j]) + c[j] * f(int(m)) + d[j]) <= 1e-12
    with pytest.raises(ValueError, match="feasible"):
        cutting_plane(f, X[:2], f.table_values[masks[:2]])


def test_cut_minus_modular_n12_memory():
    # the bound program and the cuts touch every row at every binary point;
    # their temporaries are chunked, so the peak stays far below the
    # (2^n x rows) matrices an unchunked evaluation would build
    n = 12
    rng = np.random.default_rng([0, n])
    edges = [(u, v, float(rng.uniform(0.1, 1.0)))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    f = as_table(setfn.cut(n, edges))
    g = as_table(setfn.modular(rng.normal(0.0, 0.7, size=n)))
    tracemalloc.start()
    try:
        rep = solve(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.termination_reason == "optimal"
    assert rep.optimal_value == pytest.approx(float(np.min(f.table_values - g.table_values)),
                                              abs=1e-9)
    assert peak < 64 * 2 ** 20


def test_alpha_history_nonincreasing_and_gap():
    inst = gen_random_ds(6, "coverage_minus_coverage", 3)
    rep = solve(inst.f, inst.g)
    vals = [v for _, v in rep.alpha_history]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert rep.termination_reason == "optimal"
    assert rep.final_gap <= 1e-9 * max(1.0, abs(rep.optimal_value))


def test_trace_beta_nondecreasing():
    inst = gen_random_ds(5, "table_random_submodular_pair", 1)
    rep = solve(inst.f, inst.g)
    betas = [t["beta"] for t in rep.trace if t["iter"] >= 1]
    assert all(b >= a - 1e-12 for a, b in zip(betas, betas[1:]))


def test_never_deletes_the_optimum_prematurely():
    # while alpha exceeds the true optimum by more than eps, no deleted
    # region may contain the optimizer's characteristic vector
    for fam, seed in (("cut_minus_modular", 2), ("coverage_minus_coverage", 5),
                      ("table_random_submodular_pair", 4)):
        inst = gen_random_ds(5, fam, seed)
        opt_mask, opt_val = brute_force_ds_min(as_table(inst.f), as_table(inst.g))
        x_opt = indicator(opt_mask, inst.n)
        violations = []

        def observer(event, data):
            if event != "delete":
                return
            eps = 1e-9 * max(1.0, abs(opt_val))
            if data["alpha"] <= opt_val + eps:
                return
            lam = barycentric(data["simplex"], x_opt)
            if np.min(lam) >= -1e-9:
                violations.append(data["node_id"])

        rep = solve(inst.f, inst.g, observer=observer)
        assert rep.optimal_value == pytest.approx(opt_val, abs=1e-9)
        assert violations == []


def test_iteration_limit_reported():
    inst = gen_random_ds(6, "table_random_submodular_pair", 0)
    rep = solve(inst.f, inst.g, SolverConfig(max_iters=0))
    assert rep.termination_reason == "iteration_limit"
    assert rep.final_gap >= 0.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [4, 6, 8])
def test_final_gap_certifies_a_lower_bound_at_iteration_limits(family, n):
    # a solve stopped early still brackets the optimum:
    # optimal_value - final_gap <= min(f - g) <= optimal_value
    for seed in (0, 1):
        inst = gen_random_ds(n, family, seed)
        _, best = brute_force_ds_min(as_table(inst.f), as_table(inst.g))
        tol = 1e-9 * max(1.0, abs(best))
        for max_iters in (0, 1, 2):
            rep = solve(inst.f, inst.g, SolverConfig(max_iters=max_iters))
            assert rep.final_gap >= 0.0
            assert rep.optimal_value - rep.final_gap <= best + tol
            assert rep.optimal_value >= best - tol


def test_solver_matches_brute_force_spot():
    for n in (3, 4, 5):
        for fam in ("cut_minus_modular", "nuclear_minus_residual"):
            inst = gen_random_ds(n, fam, 11)
            rep = solve(inst.f, inst.g)
            _, best = brute_force_ds_min(as_table(inst.f), as_table(inst.g))
            assert rep.optimal_value == pytest.approx(best, abs=1e-8)


def test_initial_vertex_anchor_changes_search_not_answer():
    # every anchor finds the optimum, and each incumbent update, the seed's
    # included, is one alpha_history entry and one incumbent event
    for n in (3, 4):
        for family in FAMILIES:
            inst = gen_random_ds(n, family, 7)
            _, best = brute_force_ds_min(as_table(inst.f), as_table(inst.g))
            for v in range(1 << n):
                events = []
                rep = solve(inst.f, inst.g, SolverConfig(initial_vertex=v),
                            observer=lambda event, data: events.append((event, data)))
                assert rep.optimal_value == pytest.approx(best, abs=1e-9)
                assert rep.alpha_history == [(d["iteration"], d["value"])
                                             for e, d in events if e == "incumbent"]


def test_no_binary_point_is_cut_twice():
    # a selected node's bound is refreshed against the grown polyhedron, so a
    # point cut before has t_lo = f there and is never separated again
    for n in range(3, 9):
        weights = 1 << np.arange(n)
        for family in FAMILIES:
            inst = gen_random_ds(n, family, 0)
            for v in (0, (1 << n) - 1):
                for cfg in (SolverConfig(initial_vertex=v),
                            SolverConfig(initial_vertex=v, max_iters=1)):
                    cut_at = []

                    def observer(event, data, cut_at=cut_at):
                        if event == "cut":
                            cut_at.append(int(data["z"][0] @ weights))

                    rep = solve(inst.f, inst.g, cfg, observer=observer)
                    assert len(set(cut_at)) == len(cut_at) == rep.cuts_added
                    assert rep.cuts_added <= (1 << n) - 1


def cut_where_the_bound_is_decided(monkeypatch):
    """Run the paper's search instead of the root sweep: each bound program
    hands the solver only its witness and the first argmin of t_lo - g among
    its binary points, the point that decides the direct bound.  The solver
    then feeds the incumbent and cuts only those two points."""
    inner = solver.solve_bound

    def solve_bound(S, P, levels, g):
        res = inner(S, P, levels, g)
        masks, t_lo = res.feasible_points, res.feasible_t_lo
        if len(masks) == 0:
            return res
        j = int(np.argmin(t_lo - g.values(masks)))
        at = np.searchsorted(masks, np.unique([res.witness_mask, masks[j]]))
        return dataclasses.replace(res, feasible_points=masks[at], feasible_t_lo=t_lo[at])

    monkeypatch.setattr(solver, "solve_bound", solve_bound)


@pytest.mark.parametrize("paper_search", [False, True], ids=["sweep", "paper_search"])
def test_limits_certify_the_gap_and_no_point_is_cut_twice(paper_search, monkeypatch):
    # every solve, stopped on a limit or not, brackets the optimum with
    # optimal_value - final_gap <= min(f - g) <= optimal_value, is exact when
    # it ends optimal, and cuts each binary point at most once.  Without the
    # sweep the incumbent is not exact from the root on, so a wrong gap and a
    # stale bound at selection (a point cut twice) both show
    if paper_search:
        cut_where_the_bound_is_decided(monkeypatch)
    limits = ([{"max_iters": m} for m in (0, 1, 2)] + [{}]
              + [{"max_nodes": m} for m in (1, 2, 4, 8)])
    ends = {}
    for n in range(2, 7):
        weights = 1 << np.arange(n)
        for family in FAMILIES:
            for seed in range(7):
                inst = gen_random_ds(n, family, seed)
                f, g = as_table(inst.f), as_table(inst.g)
                _, best = brute_force_ds_min(f, g)
                tol = 1e-9 * max(1.0, abs(best))
                for limit in limits:
                    cut_at = []

                    def observer(event, data):
                        if event == "cut":
                            cut_at.append(int(data["z"][0] @ weights))

                    rep = solve(f, g, SolverConfig(**limit), observer=observer)
                    ends[rep.termination_reason] = ends.get(rep.termination_reason, 0) + 1
                    assert len(set(cut_at)) == len(cut_at) == rep.cuts_added
                    assert rep.final_gap >= 0.0
                    assert rep.optimal_value - rep.final_gap <= best + tol
                    assert rep.optimal_value >= best - tol
                    if rep.termination_reason == "optimal":
                        assert rep.optimal_value <= best + tol
    assert set(ends) == {"optimal", "iteration_limit", "node_limit"}


def test_binary_t_lo_of_solver_polyhedra():
    # at every binary point of every polyhedron a solve bounds against, t_lo
    # is Kelley's value to rounding, never above f, and at a cut point the
    # value of the cut taken there
    checked = 0
    for n in range(3, 9):
        X = binary_points(n)
        weights = 1 << np.arange(n)
        for family in FAMILIES:
            inst = gen_random_ds(n, family, 0)
            f = as_table(inst.f).table_values
            for v in (0, (1 << n) - 1):
                polyhedra, cuts = {}, []

                def observer(event, data, polyhedra=polyhedra, cuts=cuts):
                    if event == "node_bound":
                        polyhedra[id(data["polyhedron"])] = data["polyhedron"]
                    elif event == "cut":
                        s, _, d = data["row"]
                        z = data["z"][0]
                        own = np.matmul(s[None, None, :], z[None, :, None])[0, 0, 0] + d
                        cuts.append((int(z @ weights), own))

                solve(inst.f, inst.g, SolverConfig(initial_vertex=v), observer=observer)
                for P in polyhedra.values():
                    t_lo = P.t_lo
                    direct = np.maximum(P.t_tilde, np.max(P.s @ X.T + P.d[:, None], axis=0,
                                                          initial=-np.inf))
                    assert np.all(np.abs(t_lo - direct) <= 1e-12 * np.maximum(1.0, np.abs(f)))
                    assert np.all(t_lo <= f + FEAS_TOL)
                    for m, own in cuts[:len(P.d)]:
                        assert t_lo[m] == own
                        checked += 1
    assert checked > 1000


def test_cuts_are_folded_only_at_uncut_points(monkeypatch):
    # work guard: the cuts of a solve are evaluated at the binary points not
    # cut yet, not at all 2^n points (about 1,023 x 1,024 at n=10)
    n = 10
    work = [0]
    fold = geometry._fold_cuts

    def counted(s, d, X, t_lo):
        work[0] += len(d) * len(X)
        return fold(s, d, X, t_lo)

    monkeypatch.setattr(geometry, "_fold_cuts", counted)
    inst = gen_random_ds(n, "cut_minus_modular", 0)
    rep = solve(inst.f, inst.g)
    assert rep.termination_reason == "optimal" and rep.cuts_added > (1 << n) // 2
    assert work[0] <= 64 * (1 << n)


def test_node_levels_are_ghat_at_the_vertices_bitwise(monkeypatch):
    # a child inherits ghat at the vertices it shares with its parent and
    # evaluates only the split point; its levels equal ghat evaluated in full
    # at every vertex, children of bisection included
    bisections = []
    bisect = geometry.bisect
    monkeypatch.setattr(geometry, "bisect", lambda S: bisections.append(S) or bisect(S))
    events = 0
    for n in range(1, 7):
        for family in FAMILIES:
            for seed in range(3):
                inst = gen_random_ds(n, family, seed)
                for anchor in (0, (1 << n) - 1):
                    levels = []

                    def observer(event, data):
                        if event == "node_bound":
                            levels.append((data["simplex"], data["levels"]))

                    solve(inst.f, inst.g, SolverConfig(initial_vertex=anchor), observer=observer)
                    for S, lv in levels:
                        want = lovasz(inst.g, S.vertices) + lv.mu
                        assert lv.t.tobytes() == want.tobytes()
                    events += len(levels)
    assert bisections and events > 500
