"""Tests for simplices, subdivision and the outer-approximation polyhedron."""

import numpy as np
import pytest

from dsprism import geometry, setfn
from dsprism.geometry import (CutPointError, DegenerateSimplexError, Polyhedron, Simplex,
                              add_cut, barycentric, binary_points, bisect,
                              initial_simplex, longest_edge, radial_subdivide, subdivide)
from dsprism.numerics import lu_solve
from dsprism.setfn import indicator
from dsprism.solver import cutting_plane
from helpers import contains, hyperplane_through, t_interval


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
            assert contains(S, x)


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


def test_barycentric_of_the_binary_grid_uses_the_same_product():
    # the grid's cached homogeneous form gives the bits of a fresh copy
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        S = random_simplex(n, rng)
        grid = binary_points(n)
        assert np.array_equal(barycentric(S, grid), barycentric(S, grid.copy()))


def test_initial_simplex_contains_cube():
    for n in range(1, 7):
        for v_mask in range(1 << n):
            S = initial_simplex(n, v_mask)
            for m in range(1 << n):
                assert contains(S, indicator(m, n), tol=1e-9)


def test_longest_edge_lexicographic_tie_break():
    S = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert longest_edge(S) == (1, 2)
    T = Simplex(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))  # 3 ties? no: edges 2,2,2.83
    assert longest_edge(T) == (1, 2)
    # equilateral-in-max-norm: all edges equal, first pair wins
    U = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
    assert longest_edge(U) == (0, 1)


def edge_length(S):
    """Length of the edge longest_edge picks."""
    i, j = longest_edge(S)
    return float(np.linalg.norm(S.vertices[i] - S.vertices[j]))


def test_bisect_partitions_volume():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        S = random_simplex(n, rng)
        A, B = bisect(S)
        assert A.volume_measure() + B.volume_measure() == pytest.approx(
            S.volume_measure(), rel=1e-9)
        assert max(edge_length(A), edge_length(B)) <= edge_length(S) + 1e-12


def test_bisection_shrinks_edges():
    # repeated longest-edge bisection is exhaustive: diameters go to zero
    S = initial_simplex(2)
    for _ in range(50):
        S, _ = bisect(S)
    assert edge_length(S) < 1e-6


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


def assert_replaced(S, split, r):
    """Each (i, C) of a subdivision of S is S with vertex i replaced by r."""
    for i, C in split:
        V = S.vertices.copy()
        V[i] = r
        assert np.array_equal(C.vertices, V)


def test_subdivide_bisects_at_a_vertex_and_splits_radially_elsewhere():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        for S in (random_simplex(n, rng), initial_simplex(n, 1)):
            # at every vertex: exactly the longest-edge bisection
            for v in S.vertices:
                split = subdivide(S, v)
                assert _same_simplices([C for _, C in split], bisect(S))
                assert [i for i, _ in split] == list(longest_edge(S))
                assert_replaced(S, split, 0.5 * (S.vertices[split[0][0]]
                                                 + S.vertices[split[1][0]]))
            # elsewhere in S, on a face or inside: radial children, each with
            # r as a vertex, covering S
            for _ in range(5):
                lam = rng.dirichlet(np.ones(n + 1))
                lam[rng.random(n + 1) < 0.3] = 0.0
                if np.count_nonzero(lam) < 2:
                    continue
                lam /= lam.sum()
                r = lam @ S.vertices
                split = subdivide(S, r)
                assert_replaced(S, split, r)
                parts = [C for _, C in split]
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
    P = add_cut(Polyhedron(S, t_tilde=0.0), (np.array([1.0]), -1.0, -0.25))
    assert t_interval(P, np.array([0.5])) == (pytest.approx(0.25), np.inf)
    assert t_interval(P, np.array([0.1])) == (0.0, np.inf)  # the floor binds
    assert t_interval(P, np.array([2.0])) is None


def test_initial_polyhedron_matches_simplex_membership():
    rng = np.random.default_rng(5)
    n = 3
    S = initial_simplex(n)
    P = Polyhedron(S, t_tilde=-1.0)
    for _ in range(50):
        x = rng.uniform(-0.5, 1.5, size=n)
        iv = t_interval(P, x, tol=1e-9)
        assert (iv is not None) == contains(S, x, tol=1e-9)
        if iv is not None:
            assert iv[0] == pytest.approx(-1.0)


def test_add_cut_appends_row():
    S = initial_simplex(2)
    P = Polyhedron(S, t_tilde=0.0)
    rows = P.num_rows
    P2 = add_cut(P, (np.array([1.0, 0.0]), -1.0, 0.25))
    assert P2.num_rows == rows + 1
    assert P.num_rows == rows  # original untouched
    assert P2.d[-1] == 0.25


@pytest.mark.parametrize("c", [0.0, 1.0, -2.0, [-1.0, 0.5]])
def test_add_cut_rejects_t_coefficient_other_than_minus_one(c):
    P = Polyhedron(initial_simplex(2), t_tilde=0.0)
    k = np.size(c)
    with pytest.raises(ValueError, match="c = -1"):
        add_cut(P, (np.ones((k, 2)), np.asarray(c), np.zeros(k)))
    assert P.num_rows == 1 and len(P.d) == 0


def random_cuts(n, k, rng):
    return rng.normal(size=(k, n)), -np.ones(k), rng.normal(size=k)


def kelley(Q):
    """max(t_tilde, max_j s_j.x + d_j) at every binary point, directly."""
    X = binary_points(Q.domain.n)
    return np.maximum(Q.t_tilde, np.max(Q.s @ X.T + Q.d[:, None], axis=0, initial=-np.inf))


def test_add_cut_twice_on_same_polyhedron_is_independent():
    rng = np.random.default_rng(6)
    P = add_cut(Polyhedron(initial_simplex(3), t_tilde=-1.0), random_cuts(3, 3, rng))
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
    P = add_cut(Polyhedron(initial_simplex(n), t_tilde=-1.0), random_cuts(n, 4, rng))
    P1 = add_cut(P, random_cuts(n, 2, rng))
    P2 = add_cut(add_cut(P, random_cuts(n, 1, rng)), random_cuts(n, 3, rng))
    for Q in (P2, P1, P):
        assert np.allclose(Q.t_lo, kelley(Q), rtol=0.0, atol=1e-12)


def test_block_add_cut_equals_rows_one_at_a_time():
    rng = np.random.default_rng(7)
    P = Polyhedron(initial_simplex(4), t_tilde=0.0)
    S, c, d = random_cuts(4, 37, rng)
    one = P
    for j in range(len(d)):
        one = add_cut(one, (S[j], c[j], d[j]))
    block = add_cut(P, (S, c, d))
    assert block.num_rows == one.num_rows == P.num_rows + 37
    for name in ("s", "d"):
        assert np.array_equal(getattr(block, name), getattr(one, name))
    for Q in (block, one):  # one matmul or 37 folds: equal to rounding
        assert np.allclose(Q.t_lo, kelley(Q), rtol=0.0, atol=1e-12)


def test_binary_bounds_match_t_interval():
    rng = np.random.default_rng(8)
    n = 3
    P = Polyhedron(initial_simplex(n, v_mask=5), t_tilde=-2.0)
    P = add_cut(P, random_cuts(n, 6, rng))
    t_lo = P.t_lo
    for m, x in enumerate(binary_points(n)):
        assert t_interval(P, x) == (pytest.approx(t_lo[m], abs=1e-12), np.inf)
    with pytest.raises(ValueError):
        t_lo[0] = 0.0  # the array is read-only


def own_values(cuts, masks):
    """Each cut's value s.z + d at the binary point z it was taken at."""
    S, _, d = cuts
    Z = binary_points(S.shape[1])[masks]
    return np.matmul(S[:, None, :], Z[:, :, None])[:, 0, 0] + d


def test_cut_points_are_final_and_kept_per_branch():
    n = 4
    f = setfn.as_table(setfn.cut(n, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.8), (0, 3, 0.3)]))
    X = binary_points(n)

    def tight(masks):  # Lovasz subgradient cuts, tight at their points
        return cutting_plane(f, X[masks], f.table_values[masks] - 1.0)

    A, B1, B2a, B2b = [3, 5], [6, 9, 12], [10], [7, 15]
    P = add_cut(Polyhedron(initial_simplex(n), t_tilde=-1.0), tight(A), A)
    base = P.t_lo
    P1 = add_cut(P, tight(B1), B1)
    P2 = add_cut(add_cut(P, tight(B2a), B2a), tight(B2b), B2b)  # two steps
    own = {m: v for ms in (A, B1, B2a, B2b) for m, v in zip(ms, own_values(tight(ms), ms))}
    for Q, cut_at in ((P2, A + B2a + B2b), (P1, A + B1), (P, A)):
        t_lo = Q.t_lo
        # its own cuts only: Kelley's value over Q's cuts, to rounding
        assert np.allclose(t_lo, kelley(Q), rtol=0.0, atol=1e-12)
        assert np.array_equal(t_lo[cut_at], [own[m] for m in cut_at])
        assert np.array_equal(np.flatnonzero(Q.cut), sorted(cut_at))
        assert np.array_equal(t_lo[A], base[A])  # later cuts leave A as it was
        assert np.all(t_lo <= f.table_values + 1e-12)
    # a later cut that lies above every point (no valid cut does) raises
    # exactly the points its branch has not cut
    high = (np.zeros((1, n)), -np.ones(1), np.full(1, 10.0))
    for Q, cut_at in ((P1, A + B1), (P2, A + B2a + B2b)):
        t_lo = add_cut(Q, high, [0]).t_lo
        uncut = np.setdiff1d(np.arange(1 << n), cut_at)
        assert np.array_equal(t_lo[cut_at], Q.t_lo[cut_at])
        assert np.all(t_lo[uncut] == 10.0)
    # cuts given without points still fold everywhere, cut points included,
    # and a cut point keeps a higher t_lo it already had
    assert np.all(add_cut(P1, high).t_lo == 10.0)
    assert add_cut(add_cut(P1, high), tight([0]), [0]).t_lo[0] == 10.0


@pytest.mark.parametrize("masks, match", [
    ([1], "1 cut points given for 2 cuts"),
    ([1, 2, 3], "3 cut points given for 2 cuts"),
    ([1, 16], "mask 16 outside 0..15"),
    ([-1, 2], "mask -1 outside 0..15"),
    ([5, 5], "mask 5 given twice"),
    ([1.0, 2.0], "integer masks"),
])
def test_add_cut_rejects_invalid_cut_points(masks, match, monkeypatch):
    P = Polyhedron(initial_simplex(4), t_tilde=0.0)
    folds = []
    monkeypatch.setattr(geometry, "_fold_cuts", lambda *args: folds.append(args))
    with pytest.raises(CutPointError, match=match):
        add_cut(P, random_cuts(4, 2, np.random.default_rng(11)), masks)
    assert folds == [] and P.num_rows == 1


def test_add_cut_cuts_a_point_once():
    # a mask cut before, in this call or an earlier one, is refused by name,
    # and the refused call changes nothing
    n = 4
    rng = np.random.default_rng(12)
    P = add_cut(Polyhedron(initial_simplex(n), t_tilde=0.0), random_cuts(n, 2, rng), [3, 5])
    for masks, match in (([7, 5], "mask 5 was cut before"), ([3], "mask 3 was cut before"),
                         ([9, 9], "mask 9 given twice"), ([8, 9, 8], "mask 8 given twice")):
        with pytest.raises(CutPointError, match=match):
            add_cut(P, random_cuts(n, len(masks), rng), masks)
    assert P.num_rows == 3 and np.array_equal(np.flatnonzero(P.cut), [3, 5])
    Q = add_cut(P, random_cuts(n, 1, rng), np.uint64(9))  # one cut at a scalar mask
    assert np.array_equal(np.flatnonzero(Q.cut), [3, 5, 9])


def test_initial_simplex_inverse_in_closed_form():
    # lambda_i = sigma_i (x_i - a_i) / n at the vertex a + n sigma_i e_i and
    # lambda_0 = 1 - sum(lambda_i): every anchor up to n = 6, the anchors 0
    # and 2^n - 1 and sampled ones up to n = 24
    rng = np.random.default_rng(13)
    for n in range(1, 25):
        anchors = (range(1 << n) if n <= 6
                   else rng.integers(0, 1 << n, size=3).tolist() + [0, (1 << n) - 1])
        for a in anchors:
            S = initial_simplex(n, a)
            apex = indicator(a, n)
            sigma = np.where(apex == 1.0, -1.0, 1.0)
            assert np.array_equal(S.vertices,
                                  np.array([apex] + [apex + n * sigma[i] * np.eye(n)[i]
                                                     for i in range(n)]))
            expected = np.zeros((n + 1, n + 1))
            expected[1:, :n] = np.diag(sigma / n)
            expected[1:, n] = -sigma * apex / n
            expected[0] = np.eye(n + 1)[n] - expected[1:].sum(axis=0)
            assert np.max(np.abs(S._minv - expected)) <= 1e-15
            assert not S.vertices.flags.writeable and not S._minv.flags.writeable


def test_simplex_inverse_agrees_with_the_lu_solve():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(5):
            S = random_simplex(n, rng)
            M = np.vstack([S.vertices.T, np.ones(n + 1)])
            ref = lu_solve(M, np.eye(n + 1))
            assert np.max(np.abs(S._minv - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("vertices, error, match", [
    pytest.param([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]], ValueError,
                 "vertices must be finite", id="nan"),
    pytest.param([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]], ValueError,
                 "vertices must be finite", id="inf"),
    pytest.param([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]],
                 DegenerateSimplexError, "affinely dependent", id="collinear"),
])
def test_simplex_rejects_non_finite_or_collinear_vertices(vertices, error, match):
    with pytest.raises(error, match=match):
        Simplex(vertices)
