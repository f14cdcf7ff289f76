"""Tests for simplices, subdivision and the outer-approximation polyhedron."""

import numpy as np
import pytest

from dsprism.geometry import (DegenerateSimplexError, Polyhedron, Simplex, add_cut,
                              barycentric, binary_points, bisect, hyperplane_through,
                              initial_polyhedron, initial_simplex, longest_edge,
                              radial_subdivide)
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
    L = S.barycentric_many(X)
    for i in range(20):
        assert np.allclose(L[i], barycentric(S, X[i]), atol=1e-12)


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
        child = S.replace_vertex(1, r)
        V = S.vertices.copy()
        V[1] = r
        fresh = Simplex(V)
        assert np.allclose(child._minv, fresh._minv, atol=1e-8)


def test_radial_subdivide_partitions_and_makes_vertex():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        S = random_simplex(n, rng)
        lam = rng.dirichlet(np.ones(n + 1))
        r = lam @ S.vertices
        parts = radial_subdivide(S, r)
        assert len(parts) == n + 1
        total = sum(p.volume_measure() for p in parts)
        assert total == pytest.approx(S.volume_measure(), rel=1e-8)
        for p in parts:
            assert any(np.allclose(v, r, atol=1e-12) for v in p.vertices)
    with pytest.raises(ValueError):
        radial_subdivide(S, S.vertices[0])


def test_hyperplane_through():
    S = initial_simplex(2)
    heights = np.array([1.0, -2.0, 0.5])
    p, gamma = hyperplane_through(S.vertices, heights)
    for v, t in zip(S.vertices, heights):
        assert float(p @ v) - t == pytest.approx(gamma, abs=1e-9)


def test_polyhedron_t_interval_and_satisfies():
    # x0 <= 1, -t <= 0, x0 + t <= 3
    P = Polyhedron(np.array([[1.0], [0.0], [1.0]]), np.array([0.0, -1.0, 1.0]),
                   np.array([1.0, 0.0, 3.0]))
    lo, hi = P.t_interval(np.array([0.5]))
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(2.5)
    assert P.t_interval(np.array([2.0])) is None
    assert P.satisfies(np.array([0.5]), 1.0)
    assert not P.satisfies(np.array([0.5]), 2.6)


def test_polyhedron_requires_lower_bound_row():
    P = Polyhedron(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        P.t_interval(np.array([0.5]))


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
    assert P2.b[-1] == -0.25


def random_cuts(n, k, rng):
    return rng.normal(size=(k, n)), -np.ones(k), rng.normal(size=k)


def test_add_cut_twice_on_same_polyhedron_is_independent():
    rng = np.random.default_rng(6)
    P = initial_polyhedron(initial_simplex(3), t_tilde=-1.0)
    A, a, b = P.A.copy(), P.a.copy(), P.b.copy()
    S, c, d = random_cuts(3, 2, rng)
    P1 = add_cut(P, (S[0], c[0], d[0]))
    P2 = add_cut(P, (S[1], c[1], d[1]))
    for Q, j in ((P1, 0), (P2, 1)):
        assert Q.num_rows == len(b) + 1
        assert np.array_equal(Q.A[:-1], A) and np.array_equal(Q.b[:-1], b)
        assert np.array_equal(Q.A[-1], S[j]) and Q.b[-1] == -d[j]
    assert P.num_rows == len(b)
    assert np.array_equal(P.A, A) and np.array_equal(P.a, a) and np.array_equal(P.b, b)
    with pytest.raises(ValueError):
        P1.A[0, 0] = 5.0  # rows are read-only views


def test_block_add_cut_equals_rows_one_at_a_time():
    rng = np.random.default_rng(7)
    P = initial_polyhedron(initial_simplex(4), t_tilde=0.0)
    S, c, d = random_cuts(4, 37, rng)  # enough rows to double the storage twice
    one = P
    for j in range(len(d)):
        one = add_cut(one, (S[j], c[j], d[j]))
    block = add_cut(P, (S, c, d))
    assert block.num_rows == one.num_rows == P.num_rows + 37
    for name in ("A", "a", "b"):
        assert np.array_equal(getattr(block, name), getattr(one, name))
    assert np.array_equal(block.head(P.num_rows + 5).b, one.b[:P.num_rows + 5])
    for u, v in zip(block.binary_bounds(), one.binary_bounds()):
        assert np.array_equal(u, v)


def test_binary_bounds_match_t_interval():
    rng = np.random.default_rng(8)
    n = 3
    P = initial_polyhedron(initial_simplex(n, v_mask=5), t_tilde=-2.0)
    P = add_cut(P, random_cuts(n, 6, rng))
    P = P.with_rows(rng.normal(size=(2, n)), np.ones(2), 5.0 + rng.uniform(size=2))
    viol, t_lo, t_hi = P.binary_bounds()
    for m, x in enumerate(binary_points(n)):
        assert viol[m] <= 1e-12  # the initial simplex holds the cube
        assert (t_lo[m], t_hi[m]) == pytest.approx(P.t_interval(x), abs=1e-12)
