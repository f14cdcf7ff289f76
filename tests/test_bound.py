"""Tests for the enumeration-based bound subproblem."""

import numpy as np
import pytest

from dsprism import geometry, setfn
from dsprism.bound import INFEASIBLE, SOLVED, binary_points, solve_bound, vertex_levels
from dsprism.geometry import (MEMBERSHIP_TOL, Polyhedron, Simplex, add_cut, barycentric,
                              bisect, initial_simplex, subdivide)
from dsprism.setfn import indicator, lovasz, lovasz_subgradient
from helpers import equivalence_check


def worked_instance():
    """n=1, f=(0,1), g=(0,2); the incumbent sweep gives alpha = -1."""
    f = setfn.table(1, [0.0, 1.0])
    g = setfn.table(1, [0.0, 2.0])
    S = initial_simplex(1)
    P = Polyhedron(S, t_tilde=0.0)
    return f, g, S, P


def levels_at(S, mu, g):
    """The levels at S's vertices, ghat in full at every vertex."""
    return vertex_levels(lovasz(g, S.vertices), mu)


def test_binary_points_grid():
    grid = binary_points(3)
    assert grid.shape == (8, 3)
    assert np.array_equal(grid[5], [1.0, 0.0, 1.0])  # mask-indexed rows
    # one cached read-only array backs the grid and its homogeneous form
    for n in (1, 3, 6):
        grid = binary_points(n)
        h = geometry._binary_grid_cache[n][1]
        assert binary_points(n) is grid and np.shares_memory(grid, h)
        assert not grid.flags.writeable and not h.flags.writeable
        assert np.array_equal(h[:, n], np.ones(1 << n))
        assert np.array_equal(grid, (np.arange(1 << n)[:, None] >> np.arange(n)) & 1)


def test_vertex_levels_worked_example():
    f, g, S, P = worked_instance()
    levels = levels_at(S, -1.0, g)
    assert levels.mu == -1.0
    assert np.allclose(levels.t, [-1.0, 1.0])  # ghat(v) + mu


def test_vertex_levels_match_per_vertex_lovasz():
    rng = np.random.default_rng(3)
    n = 4
    g = setfn.table(n, rng.normal(size=1 << n))
    S0 = initial_simplex(n, 5)  # a binary apex and n vertices off the cube
    r = np.full(n, 0.5)
    for S in (S0, *[C for _, C in bisect(S0)], subdivide(S0, r, barycentric(S0, r))[0][1]):
        levels = levels_at(S, -0.25, g)
        assert np.array_equal(levels.t, [lovasz(g, v) - 0.25 for v in S.vertices])


def test_solve_bound_worked_example():
    f, g, S, P = worked_instance()
    levels = levels_at(S, -1.0, g)
    res = solve_bound(S, P, levels, g)
    assert res.status == SOLVED
    assert res.c_star == pytest.approx(1.0)
    assert res.witness_mask == 1
    assert np.array_equal(res.witness_lam, [0.0, 1.0])  # x = 1 is S's second vertex
    # hyperplane bound mu - c* = -2 coincides with the direct bound here
    assert res.beta == pytest.approx(-2.0)
    assert res.feasible_points.dtype == np.int64
    assert np.array_equal(res.feasible_points, [0, 1])
    assert np.array_equal(P.t_lo[res.feasible_points], [0.0, 0.0])  # the floor at both points


def test_solve_bound_after_cut_closes():
    # the cut x - t <= 0 lifts t_lo(1) to f(1); c* drops to 0
    f, g, S, P = worked_instance()
    P = add_cut(P, np.array([1.0]), 0.0, 1)
    levels = levels_at(S, -1.0, g)
    res = solve_bound(S, P, levels, g)
    assert res.c_star == pytest.approx(0.0)
    assert res.beta == pytest.approx(-1.0)


def test_bound_monotone_in_polyhedron():
    rng = np.random.default_rng(0)
    n = 3
    f = setfn.as_table(setfn.cut(n, [(0, 1, 1.0), (1, 2, 0.5)]))
    g = setfn.as_table(setfn.modular(rng.normal(size=n)))
    S = initial_simplex(n)
    P = Polyhedron(S, t_tilde=0.0)
    levels = levels_at(S, 0.0, g)
    prev = solve_bound(S, P, levels, g).beta
    for mask in (1, 3, 5):
        x = indicator(mask, n)
        s = lovasz_subgradient(f, x)
        P = add_cut(P, s, lovasz(f, x) - float(s @ x), mask)
        cur = solve_bound(S, P, levels, g).beta
        assert cur >= prev - 1e-12
        prev = cur


def test_infeasible_when_no_binary_point():
    g = setfn.table(2, [0.0, 0.5, 0.5, 1.0])
    S = Simplex(np.array([[0.2, 0.2], [0.4, 0.2], [0.2, 0.4]]))
    P = Polyhedron(initial_simplex(2), t_tilde=0.0)
    levels = levels_at(S, 0.0, g)
    res = solve_bound(S, P, levels, g)
    assert res.status == INFEASIBLE
    assert res.beta == np.inf
    assert res.feasible_points.dtype == np.int64 and res.feasible_points.shape == (0,)


def test_smallest_mask_wins_objective_ties():
    # simplex excludes (1,1); the two singletons tie and mask 1 must win
    g = setfn.table(2, [0.0, 2.0, 2.0, 4.0])
    S = Simplex(np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]]))
    P = Polyhedron(initial_simplex(2), t_tilde=0.0)
    levels = levels_at(S, -1.0, g)
    res = solve_bound(S, P, levels, g)
    assert res.c_star == pytest.approx(1.0)
    assert res.witness_mask == 1


def test_equivalence_of_bilp_and_hyperplane_forms():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        vals_f = rng.normal(size=1 << n)
        vals_g = rng.normal(size=1 << n)
        g = setfn.table(n, vals_g)
        S = initial_simplex(n)
        P = Polyhedron(S, t_tilde=float(np.min(vals_f)))
        levels = levels_at(S, 0.0, g)
        assert equivalence_check(S, P, levels)


def test_determinism():
    f, g, S, P = worked_instance()
    levels = levels_at(S, -1.0, g)
    a = solve_bound(S, P, levels, g)
    b = solve_bound(S, P, levels, g)
    assert a.beta == b.beta and a.c_star == b.c_star
    assert a.witness_mask == b.witness_mask


def assert_same_bound(a, b, P, Q):
    """Bound results a against P and b against Q agree, and so do the levels
    P and Q hold at their points."""
    assert (a.status, a.beta, a.c_star, a.witness_mask) == (b.status, b.beta, b.c_star,
                                                            b.witness_mask)
    assert a.feasible_points.dtype == b.feasible_points.dtype == np.int64
    assert np.array_equal(a.feasible_points, b.feasible_points)
    assert np.array_equal(P.t_lo[a.feasible_points], Q.t_lo[b.feasible_points])


def fresh_copy(P, s, d, masks):
    """P rebuilt in one piece: the same floor and its cuts, the first
    P.num_rows - 1 rows of (s, d), taken at masks in cut order, added as
    one block."""
    k = P.num_rows - 1
    return add_cut(Polyhedron(P.domain, P.t_tilde), s[:k], d[:k],
                   np.array(masks[:k], dtype=np.int64))


def test_solve_bound_on_grown_polyhedron_matches_fresh():
    # t_lo folded cut by cut, against a polyhedron built in one piece; then
    # an older polyhedron of the chain and the newest again
    rng = np.random.default_rng(2)
    n = 4
    f = setfn.as_table(setfn.cut(n, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.8), (0, 3, 0.3)]))
    g = setfn.as_table(setfn.modular(rng.normal(size=n)))
    S = initial_simplex(n)
    sub = Simplex(np.array([[0.0] * n] + [list(2.0 * np.eye(n)[i]) for i in range(n)]))
    levels = {T: levels_at(T, 0.0, g) for T in (S, sub)}
    P = Polyhedron(S, t_tilde=-3.0)
    grown = [P]
    cut_at = [3, 5, 6, 9, 12, 15]
    X = [indicator(mask, n) for mask in cut_at]
    s = np.array([lovasz_subgradient(f, x) for x in X])
    d = np.array([lovasz(f, x) - float(r @ x) for x, r in zip(X, s)])
    for j, mask in enumerate(cut_at):
        P = add_cut(P, s[j], d[j], mask)
        grown.append(P)
        for T in (S, sub):
            F = fresh_copy(P, s, d, cut_at)
            assert_same_bound(solve_bound(T, P, levels[T], g),
                              solve_bound(T, F, levels[T], g), P, F)
    for Q in (grown[2], grown[-1], grown[0], grown[-1]):
        for T in (S, sub):
            F = fresh_copy(Q, s, d, cut_at)
            assert_same_bound(solve_bound(T, Q, levels[T], g),
                              solve_bound(T, F, levels[T], g), Q, F)


def test_solve_bound_matches_row_wise_reference_bitwise():
    # membership by np.min along rows and the objective over the gathered
    # rows, on a polyhedron grown by cuts and on simplices down a search
    rng = np.random.default_rng(4)
    for n in (3, 6, 9):
        f = setfn.table(n, rng.normal(size=1 << n))
        g = setfn.table(n, rng.normal(size=1 << n))
        P = Polyhedron(initial_simplex(n), t_tilde=-5.0)
        for masks in np.array_split(rng.permutation(1 << n)[:(1 << n) // 2], 4):
            X = binary_points(n)[masks]
            s = lovasz_subgradient(f, X)
            P = add_cut(P, s, f.values(masks) - np.sum(s * X, axis=1), masks)
        simplices = [initial_simplex(n)]
        for _ in range(12):
            S = simplices[int(rng.integers(len(simplices)))]
            r = rng.uniform(0.0, 1.0, size=n)
            simplices += [C for _, C in subdivide(S, r, barycentric(S, r))]
        for S in simplices:
            levels = levels_at(S, float(rng.normal()), g)
            res = solve_bound(S, P, levels, g)
            lam = barycentric(S, binary_points(n))
            masks = np.nonzero(np.min(lam, axis=1) >= -MEMBERSHIP_TOL)[0]
            assert np.array_equal(res.feasible_points, masks)
            if len(masks) == 0:
                assert res.status == INFEASIBLE
                continue
            t_lo = P.t_lo[masks]
            obj = lam[masks] @ levels.t - t_lo
            j = int(np.argmax(obj))
            beta = levels.mu if obj[j] <= 0.0 else levels.mu - float(obj[j])
            beta = max(beta, float(np.min(t_lo - g.values(masks))))
            assert res.c_star == float(obj[j]) and res.witness_mask == int(masks[j])
            assert res.beta == beta
