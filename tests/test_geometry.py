"""Tests for simplices, subdivision and the outer-approximation polyhedron."""

import numpy as np
import pytest

from dsprism.geometry import (DegenerateSimplexError, Simplex, add_cut,
                              barycentric, binary_points, bisect, hyperplane_through,
                              initial_polyhedron, initial_simplex, longest_edge,
                              radial_subdivide, subdivide)
from dsprism.setfn import indicator


def random_simplex(n, rng):
    while True:
        V = rng.standard_normal((n + 1, n))
        try:
            return Simplex(V)
        except DegenerateSimplexError:
            continue


def test_simplex_validation():
    with pytest.raises(ValueError):
        Simplex(np.zeros((3, 3)))
    with pytest.raises(DegenerateSimplexError):
        Simplex(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_barycentric_roundtrip():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 7):
        S = random_simplex(n, rng)
        for _ in range(10):
            lam = rng.dirichlet(np.ones(n + 1))
            x = lam @ S.vertices
            got = barycentric(S, x)
            assert np.allclose(got, lam, atol=1e-9)
            assert S.contains(x)


def test_barycentric_many_matches_single():
    rng = np.random.default_rng(1)
    S = random_simplex(5, rng)
    X = rng.standard_normal((20, 5))
    L = barycentric(S, X)
    assert L.shape == (20, 6)
    # a block is one matrix product and a point a matrix-vector product;
    # BLAS sums the two in different orders, so rows agree to rounding
    for i in range(20):
        assert np.allclose(L[i], barycentric(S, X[i]), rtol=0, atol=1e-12)


def test_initial_simplex_contains_cube():
    for n in range(1, 7):
        for v_mask in range(1 << n):
            S = initial_simplex(n, v_mask)
            for m in range(1 << n):
                assert S.contains(indicator(m, n), tol=1e-9)


def test_longest_edge_lexicographic_tie_break():
    S = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert longest_edge(S) == (1, 2)
    T = Simplex(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))  # 3 ties? no: edges 2,2,2.83
    assert longest_edge(T) == (1, 2)
    # equilateral-in-max-norm: all edges equal, first pair wins
    U = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
    assert longest_edge(U) == (0, 1)


def test_bisect_partitions_volume():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        S = random_simplex(n, rng)
        A, B = bisect(S)
        assert A.volume_measure() + B.volume_measure() == pytest.approx(
            S.volume_measure(), rel=1e-9)
        assert max(A.max_edge_length(), B.max_edge_length()) <= S.max_edge_length() + 1e-12


def test_bisection_shrinks_edges():
    # repeated longest-edge bisection is exhaustive: diameters go to zero
    S = initial_simplex(2)
    for _ in range(50):
        S, _ = bisect(S)
    assert S.max_edge_length() < 1e-6


def test_replace_vertex_matches_fresh_construction():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        S = random_simplex(n, rng)
        lam = rng.dirichlet(np.ones(n + 1) * 2.0)
        r = lam @ S.vertices
        child = S.replace_vertex(1, r, barycentric(S, r))
        V = S.vertices.copy()
        V[1] = r
        fresh = Simplex(V)
        assert np.array_equal(child.vertices, fresh.vertices)
        assert np.allclose(child._minv, fresh._minv, atol=1e-8)


def test_radial_subdivide_partitions_and_makes_vertex():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        S = random_simplex(n, rng)
        lam = rng.dirichlet(np.ones(n + 1))
        r = lam @ S.vertices
        parts = radial_subdivide(S, r, barycentric(S, r))
        assert len(parts) == n + 1
        total = sum(p.volume_measure() for p in parts)
        assert total == pytest.approx(S.volume_measure(), rel=1e-8)
        for p in parts:
            assert any(np.allclose(v, r, atol=1e-12) for v in p.vertices)


def _same_simplices(A, B):
    return len(A) == len(B) and all(
        np.array_equal(a.vertices, b.vertices) and np.array_equal(a._minv, b._minv)
        for a, b in zip(A, B))


def test_subdivide_bisects_at_a_vertex_and_splits_radially_elsewhere():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        for S in (random_simplex(n, rng), initial_simplex(n, 1)):
            # at every vertex: exactly the longest-edge bisection
            for v in S.vertices:
                assert _same_simplices(subdivide(S, v), bisect(S))
            # elsewhere in S, on a face or inside: radial children, each with
            # r as a vertex, covering S
            for _ in range(5):
                lam = rng.dirichlet(np.ones(n + 1))
                lam[rng.random(n + 1) < 0.3] = 0.0
                if np.count_nonzero(lam) < 2:
                    continue
                lam /= lam.sum()
                r = lam @ S.vertices
                parts = subdivide(S, r)
                assert len(parts) == np.count_nonzero(lam)
                assert not _same_simplices(parts, bisect(S))
                for p in parts:
                    assert any(np.allclose(v, r, atol=1e-12) for v in p.vertices)
                total = sum(p.volume_measure() for p in parts)
                assert total == pytest.approx(S.volume_measure(), rel=1e-8)


def test_hyperplane_through():
    S = initial_simplex(2)
    heights = np.array([1.0, -2.0, 0.5])
    p, gamma = hyperplane_through(S.vertices, heights)
    for v, t in zip(S.vertices, heights):
        assert float(p @ v) - t == pytest.approx(gamma, abs=1e-9)


def test_polyhedron_t_interval():
    # domain [0, 1] as a 1-simplex, floor t >= 0, cut t >= x0 - 0.25
    S = Simplex(np.array([[0.0], [1.0]]))
    P = add_cut(initial_polyhedron(S, t_tilde=0.0), (np.array([1.0]), -1.0, -0.25))
    assert P.t_interval(np.array([0.5])) == (pytest.approx(0.25), np.inf)
    assert P.t_interval(np.array([0.1])) == (0.0, np.inf)  # the floor binds
    assert P.t_interval(np.array([2.0])) is None


def test_initial_polyhedron_matches_simplex_membership():
    rng = np.random.default_rng(5)
    n = 3
    S = initial_simplex(n)
    P = initial_polyhedron(S, t_tilde=-1.0)
    for _ in range(50):
        x = rng.uniform(-0.5, 1.5, size=n)
        iv = P.t_interval(x, tol=1e-9)
        assert (iv is not None) == S.contains(x, tol=1e-9)
        if iv is not None:
            assert iv[0] == pytest.approx(-1.0)


def test_add_cut_appends_row():
    S = initial_simplex(2)
    P = initial_polyhedron(S, t_tilde=0.0)
    rows = P.num_rows
    P2 = add_cut(P, (np.array([1.0, 0.0]), -1.0, 0.25))
    assert P2.num_rows == rows + 1
    assert P.num_rows == rows  # original untouched
    assert P2.d[-1] == 0.25


@pytest.mark.parametrize("c", [0.0, 1.0, -2.0, [-1.0, 0.5]])
def test_add_cut_rejects_t_coefficient_other_than_minus_one(c):
    P = initial_polyhedron(initial_simplex(2), t_tilde=0.0)
    k = np.size(c)
    with pytest.raises(ValueError, match="c = -1"):
        add_cut(P, (np.ones((k, 2)), np.asarray(c), np.zeros(k)))
    assert P.num_rows == 1 and len(P.d) == 0


def random_cuts(n, k, rng):
    return rng.normal(size=(k, n)), -np.ones(k), rng.normal(size=k)


def test_add_cut_twice_on_same_polyhedron_is_independent():
    rng = np.random.default_rng(6)
    P = add_cut(initial_polyhedron(initial_simplex(3), t_tilde=-1.0), random_cuts(3, 3, rng))
    s, d = P.s.copy(), P.d.copy()
    S, c, dd = random_cuts(3, 2, rng)
    P1 = add_cut(P, (S[0], c[0], dd[0]))
    P2 = add_cut(P, (S[1], c[1], dd[1]))
    for Q, j in ((P1, 0), (P2, 1)):
        assert Q.num_rows == P.num_rows + 1
        assert np.array_equal(Q.s[:-1], s) and np.array_equal(Q.d[:-1], d)
        assert np.array_equal(Q.s[-1], S[j]) and Q.d[-1] == dd[j]
        assert Q.t_tilde == -1.0 and Q.domain is P.domain
    assert P.num_rows == len(d) + 1
    assert np.array_equal(P.s, s) and np.array_equal(P.d, d)
    for view in (P1.s[0], P1.d):
        with pytest.raises(ValueError):
            view[0] = 5.0  # cuts are read-only views


def test_branched_polyhedra_fold_only_their_own_cuts():
    rng = np.random.default_rng(9)
    n = 3
    P = add_cut(initial_polyhedron(initial_simplex(n), t_tilde=-1.0), random_cuts(n, 4, rng))
    P.binary_t_lo()
    P1 = add_cut(P, random_cuts(n, 2, rng))
    P2 = add_cut(add_cut(P, random_cuts(n, 1, rng)), random_cuts(n, 3, rng))
    X = binary_points(n)
    for Q in (P2, P1, P):  # the newest first: each folds from P's array
        direct = np.maximum(Q.t_tilde, np.max(Q.s @ X.T + Q.d[:, None], axis=0))
        assert np.allclose(Q.binary_t_lo(), direct, rtol=0.0, atol=1e-12)


def test_block_add_cut_equals_rows_one_at_a_time():
    rng = np.random.default_rng(7)
    P = initial_polyhedron(initial_simplex(4), t_tilde=0.0)
    S, c, d = random_cuts(4, 37, rng)
    one = P
    for j in range(len(d)):
        one = add_cut(one, (S[j], c[j], d[j]))
    block = add_cut(P, (S, c, d))
    assert block.num_rows == one.num_rows == P.num_rows + 37
    for name in ("s", "d"):
        assert np.array_equal(getattr(block, name), getattr(one, name))
    assert np.array_equal(block.binary_t_lo(), one.binary_t_lo())


def test_binary_bounds_match_t_interval():
    rng = np.random.default_rng(8)
    n = 3
    P = initial_polyhedron(initial_simplex(n, v_mask=5), t_tilde=-2.0)
    P = add_cut(P, random_cuts(n, 6, rng))
    t_lo = P.binary_t_lo()
    for m, x in enumerate(binary_points(n)):
        assert P.t_interval(x) == (pytest.approx(t_lo[m], abs=1e-12), np.inf)
    with pytest.raises(ValueError):
        t_lo[0] = 0.0  # the cached array is read-only
