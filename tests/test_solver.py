"""Tests for the branch-and-bound driver."""

import dataclasses
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from dsprism import geometry, setfn, solver
from dsprism.baselines import greedy, ssp
from dsprism.experiments import FAMILIES, gen_random_ds
from dsprism.geometry import barycentric, binary_points
from dsprism.setfn import as_table, brute_force_ds_min, indicator, lovasz
from dsprism.solver import FEAS_TOL, SolverConfig, cutting_plane, solve
from helpers import cut_rows, kelley


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


@pytest.mark.parametrize("entry", [solve, ssp, greedy, setfn.brute_force_ds_min,
                                   setfn.ds_decompose], ids=lambda entry: entry.__name__)
def test_ground_set_mismatch(entry):
    with pytest.raises(setfn.GroundSetError, match="oracles live on different ground sets"):
        entry(setfn.modular([1.0]), setfn.modular([1.0, 2.0]))


@pytest.mark.parametrize("field", ["eps"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9, True])
def test_config_rejects_bad_tolerances(field, bad):
    # a bool is an int to Python: eps = True ran as 1
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: bad})


@pytest.mark.parametrize("field", ["max_iters", "max_nodes"])
def test_config_rejects_negative_limits(field):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: -1})
    assert getattr(SolverConfig(**{field: 0}), field) == 0


@pytest.mark.parametrize("field", ["max_iters", "max_nodes", "initial_vertex"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, 3.0, True, False, "7", None])
def test_config_rejects_limits_that_are_not_integers(field, bad):
    # initial_vertex = True anchored the initial simplex at mask 1
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
    at, s, d = cutting_plane(f, np.array([1]), np.array([0.0]))
    assert np.array_equal(at, [0]) and np.allclose(s, [[1.0]]) and d == pytest.approx([0.0])
    # t >= x: tight at both epigraph points (0,0) and (1,1)
    assert float(s[0] @ [0.0]) + d[0] - 0.0 <= 1e-12
    assert float(s[0] @ [1.0]) + d[0] - 1.0 <= 1e-12


def test_cutting_plane_modular_reduces_to_epigraph_facet():
    w = np.array([0.5, -1.0, 2.0])
    f = setfn.modular(w)
    masks = np.arange(8)
    at, s, d = cutting_plane(f, masks, f.values(masks) - 1.0)
    assert np.array_equal(at, np.arange(8))
    assert np.allclose(s, w) and np.allclose(d, 0.0, rtol=0.0, atol=1e-12)


def test_cutting_plane_cuts_no_point_at_or_below_its_level():
    # a point whose f exceeds its level by FEAS_TOL or less gets no cut
    f = setfn.table(2, [0.0, 1.0, 2.0, 3.0])
    masks = np.array([3, 0, 1, 2])
    at, s, d = cutting_plane(f, masks, np.array([3.0, -1.0, 1.0 - FEAS_TOL / 2,
                                                 2.0 - 2 * FEAS_TOL]))
    assert np.array_equal(at, [1, 3]) and s.shape == (2, 2) and d.shape == (2,)
    # tight at the points cut
    assert np.allclose((s * binary_points(2)[masks[at]]).sum(axis=1) + d, [0.0, 2.0])
    at, s, d = cutting_plane(f, masks[:1], np.array([4.0]))
    assert at.size == 0 and s.shape == (0, 2) and d.shape == (0,)


def test_cut_validity_on_all_subsets():
    # Proposition-2 style check: each cut separates its point (z, t), with
    # s.z + d - t > 0, and s.I_A + d <= f(A) for all A
    rng = np.random.default_rng(0)
    f = as_table(setfn.coverage(4, rng.uniform(0.5, 1.0, 8),
                                [[0, 1], [1, 2, 3], [4, 5], [5, 6, 7]]))
    X = binary_points(4)
    masks = rng.permutation(16)
    t = f.values(masks) - rng.uniform(0.1, 1.0, size=16)
    at, s, d = cutting_plane(f, masks, t)
    assert np.array_equal(at, np.arange(16))
    for j, m in enumerate(masks):
        assert float(s[j] @ X[m]) + d[j] - t[j] > 0
        assert np.all(X @ s[j] + d[j] - f.table_values <= 1e-9)


def test_block_cutting_planes_match_single_point_cuts():
    rng = np.random.default_rng(1)
    n = 6
    for f in (as_table(setfn.coverage(n, rng.uniform(0.5, 1.0, 9),
                                      [[0, 1], [1, 2, 3], [4, 5], [5, 6, 7], [8], [0, 8]])),
              setfn.table(n, rng.normal(size=1 << n))):
        masks = rng.permutation(1 << n)[:40]
        t = f.values(masks) - rng.uniform(0.1, 1.0, size=len(masks))
        at, S, d = cutting_plane(f, masks, t)
        assert np.array_equal(at, np.arange(len(masks)))
        assert S.shape == (len(masks), n) and d.shape == (len(masks),)
        X = binary_points(n)[masks]
        for j, m in enumerate(masks):
            _, s1, d1 = cutting_plane(f, masks[j:j + 1], t[j:j + 1])
            assert np.array_equal(S[j], s1[0]) and d[j] == d1[0]
            # tight at its own binary point: s.I_A + d = f(A)
            assert abs(float(S[j] @ X[j]) + d[j] - f(int(m))) <= 1e-12
    assert cutting_plane(f, masks[:2], f.table_values[masks[:2]])[0].size == 0


@pytest.mark.parametrize("n", [13, 14])
def test_cuts_formed_in_blocks_equal_one_block_bitwise(n, monkeypatch):
    # a point's cut depends on that point alone, so cuts formed BLOCK points
    # at a time, or in blocks of any other size, are the bits of one block
    rng = np.random.default_rng(n)
    f = as_table(setfn.cut(n, [(u, v, float(rng.uniform(0.1, 1.0)))
                               for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]))
    masks = rng.permutation(1 << n)
    t_lo = f.values(masks) - rng.uniform(-0.5, 1.0, size=len(masks))  # a third not cut
    at, s, d = cutting_plane(f, masks, t_lo)
    assert setfn.BLOCK < len(at) < len(masks)  # more than one block
    for block in (1 << n, 7, 1000):
        monkeypatch.setattr(solver, "BLOCK", block)
        at1, s1, d1 = cutting_plane(f, masks, t_lo)
        assert at1.tobytes() == at.tobytes()
        assert s1.tobytes() == s.tobytes() and d1.tobytes() == d.tobytes()


def test_cutting_plane_peak_memory_is_bounded_by_its_output():
    # formed BLOCK points at a time, the cuts' temporaries stay below their
    # (2^n, n) output at n = 14; formed in one block they came to about five
    # times it (points, sort order, chain masks and values, differences)
    n = 14
    f = setfn.table(n, np.random.default_rng(0).normal(size=1 << n))
    masks = np.arange(1 << n)
    t_lo = np.full(1 << n, float(np.min(f.table_values)) - 1.0)
    binary_points(n)  # the cached grid is not the cut step's own
    tracemalloc.start()
    try:
        at, s, d = cutting_plane(f, masks, t_lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(at) == 1 << n and s.shape == (1 << n, n)
    assert peak <= 4 * s.nbytes


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
        for family in FAMILIES:
            inst = gen_random_ds(n, family, 0)
            for v in (0, (1 << n) - 1):
                for cfg in (SolverConfig(initial_vertex=v),
                            SolverConfig(initial_vertex=v, max_iters=1)):
                    cut_at = []

                    def observer(event, data, cut_at=cut_at):
                        if event == "cut":
                            cut_at.append(data["z"][0])

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
        masks = res.feasible_points
        if len(masks) == 0:
            return res
        j = int(np.argmin(P.t_lo[masks] - g.values(masks)))
        at = np.searchsorted(masks, np.unique([res.witness_mask, masks[j]]))
        return dataclasses.replace(res, feasible_points=masks[at])

    monkeypatch.setattr(solver, "solve_bound", solve_bound)


@pytest.mark.parametrize("paper_search", [False, True], ids=["sweep", "paper_search"])
def test_a_selection_reads_f_once_at_each_point_of_its_bound(paper_search, monkeypatch):
    # from a node's selection to its split, f is read once at the points its
    # bound program handed on: one read serves the separation test and the
    # cuts' d (the Lovasz chains of the cut points are read as a 2-d block)
    if paper_search:
        cut_where_the_bound_is_decided(monkeypatch)
    log = []

    class Logged(setfn.SetFunction):
        def values(self, masks):
            log.append(np.array(masks))
            return super().values(masks)

    handed = set()
    solve_bound, subdivide = solver.solve_bound, solver.subdivide

    def bound(*args):
        res = solve_bound(*args)
        handed.add(res.feasible_points.tobytes())
        return res

    def observer(event, data):
        if event in ("select", "cut"):
            log.append((event, data["z"][0] if event == "cut" else None))

    monkeypatch.setattr(solver, "solve_bound", bound)
    monkeypatch.setattr(solver, "subdivide",
                        lambda *args: log.append(("split", None)) or subdivide(*args))
    windows = uncut = 0
    for n in range(2, 7):
        for family, seed in itertools.product(FAMILIES, range(3)):
            inst = gen_random_ds(n, family, seed)
            vals = as_table(inst.f).table_values
            f = Logged(n, name="logged", table_values=vals, kernel=vals.__getitem__)
            for anchor in (0, (1 << n) - 1):
                log.clear()
                solve(f, as_table(inst.g), SolverConfig(initial_vertex=anchor), observer=observer)
                marks = [i for i, e in enumerate(log) if isinstance(e, tuple) and e[0] != "cut"]
                for a, b in zip(marks[::2], marks[1::2]):
                    assert (log[a][0], log[b][0]) == ("select", "split")
                    window = log[a + 1:b]
                    reads = [e for e in window if isinstance(e, np.ndarray) and e.ndim == 1]
                    cut = [e[1] for e in window if isinstance(e, tuple)]
                    assert len(reads) == 1
                    assert reads[0].tobytes() in handed
                    assert len(np.unique(reads[0])) == len(reads[0])
                    assert set(cut) <= set(reads[0].tolist())
                    windows += 1
                    uncut += len(reads[0]) - len(cut)
    # some points handed on are not cut: the read also decides where to cut
    assert windows > 100 and uncut > 30


@pytest.mark.parametrize("paper_search", [False, True], ids=["sweep", "paper_search"])
def test_limits_certify_the_gap_and_no_point_is_cut_twice(paper_search, monkeypatch):
    # every solve, stopped on a limit or not, brackets the optimum with
    # optimal_value - final_gap <= min(f - g) <= optimal_value, is exact when
    # it ends optimal, and cuts each binary point at most once.  Without the
    # sweep the incumbent is not exact from the root on, so a wrong gap and a
    # stale bound at selection (a point cut twice) both show.  A bound is
    # stale by the solve's own cut count: the polyhedron's rows are never
    # counted (num_rows counts 2^n cut flags)
    if paper_search:
        cut_where_the_bound_is_decided(monkeypatch)
    row_reads = []
    num_rows = geometry.Polyhedron.num_rows
    monkeypatch.setattr(geometry.Polyhedron, "num_rows",
                        property(lambda P: row_reads.append(P) or num_rows.fget(P)))
    limits = ([{"max_iters": m} for m in (0, 1, 2)] + [{}]
              + [{"max_nodes": m} for m in (1, 2, 4, 8)])
    ends = {}
    for n in range(2, 7):
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
                            cut_at.append(data["z"][0])

                    rep = solve(f, g, SolverConfig(**limit), observer=observer)
                    ends[rep.termination_reason] = ends.get(rep.termination_reason, 0) + 1
                    assert len(set(cut_at)) == len(cut_at) == rep.cuts_added
                    assert rep.final_gap >= 0.0
                    assert rep.optimal_value - rep.final_gap <= best + tol
                    assert rep.optimal_value >= best - tol
                    if rep.termination_reason == "optimal":
                        assert rep.optimal_value <= best + tol
    assert set(ends) == {"optimal", "iteration_limit", "node_limit"}
    assert row_reads == []


def test_the_cut_rows_are_dead_when_the_children_are_bounded(monkeypatch):
    # the arrays a cut step's cutting_plane returns (points cut, s, d) are
    # read by add_cut and then dropped, so no bound program after them runs
    # with the (points, n) rows held.  No observer: a cut event's row is a
    # view of s, which the observer may keep
    refs, checked = [], [0]
    cutting_plane, solve_bound = solver.cutting_plane, solver.solve_bound

    def cut(*args):
        out = cutting_plane(*args)
        refs.extend(weakref.ref(a) for a in out)
        return out

    def bound(*args):
        assert [r for r in refs if r() is not None] == []
        checked[0] += len(refs)
        return solve_bound(*args)

    monkeypatch.setattr(solver, "cutting_plane", cut)
    monkeypatch.setattr(solver, "solve_bound", bound)
    for family in FAMILIES:
        inst = gen_random_ds(8, family, 0)
        for anchor in (0, 255):
            solve(inst.f, inst.g, SolverConfig(initial_vertex=anchor))
    assert checked[0] > 0


def test_binary_t_lo_of_solver_polyhedra():
    # at every binary point of every polyhedron a solve bounds against, t_lo
    # is Kelley's value to rounding, never above f, and at a cut point the
    # value of the cut taken there
    checked = 0
    for n in range(3, 9):
        X = binary_points(n)
        for family in FAMILIES:
            inst = gen_random_ds(n, family, 0)
            f = as_table(inst.f).table_values
            for v in (0, (1 << n) - 1):
                polyhedra, events, cuts = {}, [], []

                def observer(event, data, polyhedra=polyhedra, events=events, cuts=cuts):
                    if event == "node_bound":
                        polyhedra[id(data["polyhedron"])] = data["polyhedron"]
                    elif event == "cut":
                        events.append(data)
                        s, d = data["row"]
                        m = data["z"][0]
                        own = np.matmul(s[None, None, :], X[m][None, :, None])[0, 0, 0] + d
                        cuts.append((m, own))

                solve(inst.f, inst.g, SolverConfig(initial_vertex=v), observer=observer)
                s, d = cut_rows(events)
                for P in polyhedra.values():
                    t_lo = P.t_lo
                    k = P.num_rows - 1  # P's rows: the first k of the solve's cuts
                    direct = kelley(P.t_tilde, s[:k], d[:k], X)
                    assert np.all(np.abs(t_lo - direct) <= 1e-12 * np.maximum(1.0, np.abs(f)))
                    assert np.all(t_lo <= f + FEAS_TOL)
                    for m, own in cuts[:k]:
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


def test_the_split_reuses_the_witness_lambda_bitwise(monkeypatch):
    # a radial split takes the witness's barycentric row of the bound
    # program's block product: a product at the point alone (gemv against
    # gemm) can differ from it in the last bits
    splits = []
    radial = geometry.radial_subdivide
    monkeypatch.setattr(geometry, "radial_subdivide",
                        lambda S, r, lam: splits.append((S, r, lam)) or radial(S, r, lam))
    for n in range(2, 9):
        for family in FAMILIES:
            for seed in range(3):
                inst = gen_random_ds(n, family, seed)
                for anchor in (0, (1 << n) - 1):
                    solve(inst.f, inst.g, SolverConfig(initial_vertex=anchor))
    moved = [(S.n, r) for S, r, lam in splits
             if lam.tobytes() != barycentric(S, binary_points(S.n))[
                 setfn.mask_of(np.flatnonzero(r).tolist())].tobytes()]
    assert len(splits) > 100 and moved == []
