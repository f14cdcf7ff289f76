"""Tests for simplices, subdivision and the outer-approximation polyhedron."""

import re
import tracemalloc

import numpy as np
import pytest

from dsprism import geometry, setfn
from dsprism.geometry import (CutPointError, DegenerateSimplexError, Polyhedron, Simplex,
                              add_cut, barycentric, binary_points, bisect,
                              initial_simplex, longest_edge, radial_subdivide, subdivide)
from dsprism.numerics import lu_solve
from dsprism.setfn import indicator
from dsprism.solver import cutting_plane
from helpers import contains, hyperplane_through, kelley, t_interval, volume_measure


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
        (_, A), (_, B) = bisect(S)
        assert volume_measure(A) + volume_measure(B) == pytest.approx(
            volume_measure(S), rel=1e-9)
        assert max(edge_length(A), edge_length(B)) <= edge_length(S) + 1e-12


def test_bisection_shrinks_edges():
    # repeated longest-edge bisection is exhaustive: diameters go to zero
    S = initial_simplex(2)
    for _ in range(50):
        S = bisect(S)[0][1]
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
        split = radial_subdivide(S, r, barycentric(S, r))
        assert [i for i, _ in split] == list(range(n + 1))
        parts = [C for _, C in split]
        total = sum(volume_measure(p) for p in parts)
        assert total == pytest.approx(volume_measure(S), rel=1e-8)
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
                split = subdivide(S, v, barycentric(S, v))
                assert _same_simplices([C for _, C in split], [C for _, C in bisect(S)])
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
                split = subdivide(S, r, barycentric(S, r))
                assert_replaced(S, split, r)
                parts = [C for _, C in split]
                assert len(parts) == np.count_nonzero(lam)
                assert not _same_simplices(parts, [C for _, C in bisect(S)])
                for p in parts:
                    assert any(np.allclose(v, r, atol=1e-12) for v in p.vertices)
                total = sum(volume_measure(p) for p in parts)
                assert total == pytest.approx(volume_measure(S), rel=1e-8)


def test_hyperplane_through():
    S = initial_simplex(2)
    heights = np.array([1.0, -2.0, 0.5])
    p, gamma = hyperplane_through(S.vertices, heights)
    for v, t in zip(S.vertices, heights):
        assert float(p @ v) - t == pytest.approx(gamma, abs=1e-9)


def test_polyhedron_t_interval():
    # domain [0, 1] as a 1-simplex, floor t >= 0, cut t >= x0 - 0.25
    S = Simplex(np.array([[0.0], [1.0]]))
    s, d = np.array([1.0]), -0.25
    P = add_cut(Polyhedron(S, t_tilde=0.0), s, d, 1)
    assert t_interval(P, s, d, np.array([0.5])) == (pytest.approx(0.25), np.inf)
    assert t_interval(P, s, d, np.array([0.1])) == (0.0, np.inf)  # the floor binds
    assert t_interval(P, s, d, np.array([2.0])) is None


def test_initial_polyhedron_matches_simplex_membership():
    rng = np.random.default_rng(5)
    n = 3
    S = initial_simplex(n)
    P = Polyhedron(S, t_tilde=-1.0)
    for _ in range(50):
        x = rng.uniform(-0.5, 1.5, size=n)
        iv = t_interval(P, [], [], x, tol=1e-9)  # no cuts
        assert (iv is not None) == contains(S, x, tol=1e-9)
        if iv is not None:
            assert iv[0] == pytest.approx(-1.0)


def test_add_cut_appends_row():
    S = initial_simplex(2)
    P = Polyhedron(S, t_tilde=0.0)
    rows = P.num_rows
    P2 = add_cut(P, np.array([1.0, 0.0]), 0.25, 0)
    assert P2.num_rows == rows + 1
    assert P.num_rows == rows  # original untouched
    assert P2.t_lo[0] == 0.25  # the cut's own value at its point
    assert P.t_lo[0] == 0.0 and not P.cut.any()


def random_cuts(n, k, rng):
    return rng.normal(size=(k, n)), rng.normal(size=k)


CUT_4 = setfn.as_table(setfn.cut(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.8), (0, 3, 0.3)]))


def tight(f, masks):
    """Lovasz subgradient cuts of f at masks, tight at their points."""
    masks = np.asarray(masks)
    _, s, d = cutting_plane(f, masks, f.table_values[masks] - 1.0)
    return s, d


def grow(f, P, s, d, *blocks):
    """P with the tight cuts of f at each block of masks added, a block at a
    time, and the rows (s, d) with those cuts appended: the rows of the
    polyhedron returned, which keeps none of them itself."""
    for masks in blocks:
        S, D = tight(f, masks)
        P, s, d = add_cut(P, S, D, masks), np.vstack([s, S]), np.append(d, D)
    return P, s, d


def test_add_cut_twice_on_same_polyhedron_is_independent():
    rng = np.random.default_rng(6)
    n = 3
    X = binary_points(n)
    s, d = random_cuts(n, 3, rng)
    P = add_cut(Polyhedron(initial_simplex(n), t_tilde=-1.0), s, d, [0, 1, 2])
    t_lo, cut = P.t_lo.copy(), P.cut.copy()
    S, dd = random_cuts(n, 2, rng)
    P1 = add_cut(P, S[0], dd[0], 3)
    P2 = add_cut(P, S[1], dd[1], 4)
    for Q, j, m in ((P1, 0, 3), (P2, 1, 4)):
        assert Q.num_rows == P.num_rows + 1
        assert np.array_equal(np.flatnonzero(Q.cut), [0, 1, 2, m])
        # P's cut points keep their levels; P's rows and this cut only
        # elsewhere; at the new point the larger of its level and the cut
        assert np.array_equal(Q.t_lo[cut], t_lo[cut])
        uncut = ~Q.cut
        assert np.allclose(Q.t_lo[uncut], kelley(-1.0, np.vstack([s, S[j]]),
                                                 np.append(d, dd[j]), X[uncut]),
                           rtol=0.0, atol=1e-12)
        assert Q.t_lo[m] == max(t_lo[m], own_values((S[j:j + 1], dd[j:j + 1]), [m])[0])
        assert Q.t_tilde == -1.0 and Q.domain is P.domain
    assert P.num_rows == len(d) + 1
    assert np.array_equal(P.t_lo, t_lo) and np.array_equal(P.cut, cut)
    for view in (P1.t_lo, P1.cut):
        with pytest.raises(ValueError):
            view[0] = 5.0  # the levels are read-only


def test_branched_polyhedra_fold_only_their_own_cuts():
    # tight cuts, as the solver adds: no later cut rises above one at its
    # point, so t_lo is Kelley's value there too
    f = CUT_4
    X = binary_points(4)
    P = grow(f, Polyhedron(initial_simplex(4), t_tilde=-1.0), np.empty((0, 4)), [],
             [1, 4, 8, 11])
    P1 = grow(f, *P, [2, 13])
    P2 = grow(f, *P, [0], [6, 7, 15])
    for Q, s, d in (P2, P1, P):  # each polyhedron with its own rows
        assert np.allclose(Q.t_lo, kelley(Q.t_tilde, s, d, X), rtol=0.0, atol=1e-12)


def cuts_in_a_block_and_one_at_a_time():
    """37 tight cuts of a random cut function on n = 6, added to a fresh
    polyhedron as one block and one cut at a time: (block, one, s, d)."""
    rng = np.random.default_rng(7)
    n = 6
    f = setfn.as_table(setfn.cut(n, [(i, j, rng.uniform(0.1, 1.0)) for i in range(n)
                                     for j in range(i + 1, n) if rng.random() < 0.6]))
    P = Polyhedron(initial_simplex(n), t_tilde=0.0)
    masks = rng.choice(1 << n, size=37, replace=False)
    S, d = tight(f, masks)
    one = P
    for j in range(len(d)):
        one = add_cut(one, S[j], d[j], masks[j])
    return add_cut(P, S, d, masks), one, S, d


def test_block_add_cut_equals_rows_one_at_a_time():
    block, one, S, d = cuts_in_a_block_and_one_at_a_time()
    assert block.num_rows == one.num_rows == 1 + 37
    assert np.array_equal(block.cut, one.cut)
    for Q in (block, one):  # one matmul or 37 folds: equal to rounding
        assert np.allclose(Q.t_lo, kelley(Q.t_tilde, S, d, binary_points(6)),
                           rtol=0.0, atol=1e-12)


def test_polyhedron_size_does_not_grow_with_its_cuts():
    # a polyhedron holds its levels at the 2^n binary points and no cut rows
    for Q in cuts_in_a_block_and_one_at_a_time()[:2]:
        n = Q.domain.n
        arrays = [getattr(Q, name) for name in Polyhedron.__slots__
                  if isinstance(getattr(Q, name), np.ndarray)]
        assert len(arrays) >= 2 and all(a.size == 1 << n for a in arrays)
        assert Q.num_rows == 1 + np.count_nonzero(Q.cut) == 38


def test_add_cut_peak_memory_is_below_its_rows(monkeypatch):
    # the cuts' own values are formed setfn.BLOCK cuts at a time, so no
    # (k, n) gather of the cut points joins the rows s (with one gather the
    # peak came to 1.2 times s), and the levels are the same to the bit
    n = 14
    f = setfn.table(n, np.random.default_rng(0).normal(size=1 << n))
    masks = np.arange(1 << n)
    P = Polyhedron(initial_simplex(n), float(np.min(f.table_values)) - 1.0)
    _, s, d = cutting_plane(f, masks, P.t_lo)
    tracemalloc.start()
    try:
        Q = add_cut(P, s, d, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.num_rows == 1 + (1 << n)
    assert peak < s.nbytes
    monkeypatch.setattr(geometry, "BLOCK", 1 << n)
    assert add_cut(P, s, d, masks).t_lo.tobytes() == Q.t_lo.tobytes()


def test_binary_bounds_match_t_interval():
    rng = np.random.default_rng(8)
    n = 3
    f = setfn.as_table(setfn.cut(n, [(0, 1, 0.7), (1, 2, 0.4), (0, 2, 0.9)]))
    P = Polyhedron(initial_simplex(n, v_mask=5), t_tilde=-2.0)
    masks = rng.choice(1 << n, size=6, replace=False)
    s, d = tight(f, masks)
    P = add_cut(P, s, d, masks)
    t_lo = P.t_lo
    for m, x in enumerate(binary_points(n)):
        assert t_interval(P, s, d, x) == (pytest.approx(t_lo[m], abs=1e-12), np.inf)
    with pytest.raises(ValueError):
        t_lo[0] = 0.0  # the array is read-only


def own_values(cuts, masks):
    """Each cut's value s.z + d at the binary point z it was taken at."""
    S, d = cuts
    Z = binary_points(S.shape[1])[masks]
    return np.matmul(S[:, None, :], Z[:, :, None])[:, 0, 0] + d


def test_cut_points_are_final_and_kept_per_branch():
    n = 4
    f = CUT_4
    X = binary_points(n)
    A, B1, B2a, B2b = [3, 5], [6, 9, 12], [10], [7, 15]
    P, s, d = grow(f, Polyhedron(initial_simplex(n), t_tilde=-1.0), np.empty((0, n)), [], A)
    base = P.t_lo
    P1, s1, d1 = grow(f, P, s, d, B1)
    P2, s2, d2 = grow(f, P, s, d, B2a, B2b)  # two steps
    own = {m: v for ms in (A, B1, B2a, B2b) for m, v in zip(ms, own_values(tight(f, ms), ms))}
    for Q, s, d, cut_at in ((P2, s2, d2, A + B2a + B2b), (P1, s1, d1, A + B1), (P, s, d, A)):
        t_lo = Q.t_lo
        # its own cuts only: Kelley's value over Q's cuts, to rounding
        assert np.allclose(t_lo, kelley(Q.t_tilde, s, d, X), rtol=0.0, atol=1e-12)
        assert np.array_equal(t_lo[cut_at], [own[m] for m in cut_at])
        assert np.array_equal(np.flatnonzero(Q.cut), sorted(cut_at))
        assert np.array_equal(t_lo[A], base[A])  # later cuts leave A as it was
        assert np.all(t_lo <= f.table_values + 1e-12)
    # a later cut that lies above every point (no valid cut does) raises
    # exactly the points its branch has not cut
    high = (np.zeros((1, n)), np.full(1, 10.0))
    for Q, cut_at in ((P1, A + B1), (P2, A + B2a + B2b)):
        t_lo = add_cut(Q, *high, [0]).t_lo
        uncut = np.setdiff1d(np.arange(1 << n), cut_at)
        assert np.array_equal(t_lo[cut_at], Q.t_lo[cut_at])
        assert np.all(t_lo[uncut] == 10.0)
    # and a cut point keeps a higher t_lo it already had
    assert add_cut(add_cut(P1, *high, [1]), *tight(f, [0]), [0]).t_lo[0] == 10.0


@pytest.mark.parametrize("masks, match", [
    ([1], "1 cut points given for 2 cuts"),
    ([1, 2, 3], "3 cut points given for 2 cuts"),
    ([1, 16], "mask 16 outside 0..15"),
    ([-1, 2], "mask -1 outside 0..15"),
    ([5, 5], "mask 5 given twice"),
    ([1.0, 2.0], "integer masks"),
    # (masks, s): an s of 4 rows of 3 for 2 cuts on n = 4
    pytest.param(([1, 2], np.ones((4, 3))), re.escape("s has shape (4, 3), not (2, 4)"),
                 id="s_shape"),
])
def test_add_cut_rejects_invalid_cut_points(masks, match, monkeypatch):
    P = Polyhedron(initial_simplex(4), t_tilde=0.0)
    folds = []
    monkeypatch.setattr(geometry, "_fold_cuts", lambda *args: folds.append(args))
    s, d = random_cuts(4, 2, np.random.default_rng(11))
    if isinstance(masks, tuple):
        masks, s = masks
    with pytest.raises(CutPointError, match=match):
        add_cut(P, s, d, masks)
    assert folds == [] and P.num_rows == 1


def test_add_cut_cuts_a_point_once():
    # a mask cut before, in this call or an earlier one, is refused by name,
    # and the refused call changes nothing
    n = 4
    rng = np.random.default_rng(12)
    P = add_cut(Polyhedron(initial_simplex(n), t_tilde=0.0), *random_cuts(n, 2, rng), [3, 5])
    for masks, match in (([7, 5], "mask 5 was cut before"), ([3], "mask 3 was cut before"),
                         ([9, 9], "mask 9 given twice"), ([8, 9, 8], "mask 8 given twice")):
        with pytest.raises(CutPointError, match=match):
            add_cut(P, *random_cuts(n, len(masks), rng), masks)
    assert P.num_rows == 3 and np.array_equal(np.flatnonzero(P.cut), [3, 5])
    Q = add_cut(P, *random_cuts(n, 1, rng), np.uint64(9))  # one cut at a scalar mask
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
