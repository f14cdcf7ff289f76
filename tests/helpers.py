"""Reference computations the tests check the package against.

``contains`` and ``volume_measure`` test a point against a simplex and
measure a simplex; ``kelley`` is Kelley's value of a floor and cut rows the
test holds, ``cut_rows`` the rows a solve's cut events carry, and
``t_interval`` the t-range of a polyhedron and such rows at one point
(a polyhedron keeps only its levels); ``hyperplane_through`` and
``equivalence_check`` give the hyperplane form of the bound program.
``second_difference_by_pair`` and ``exhaustive_decompose`` are the per-pair
and both-sides-checked forms of ``setfn._max_second_difference`` and
``setfn.ds_decompose``; ``set_subgradient`` is the closed form of
``setfn.lovasz_subgradient`` at characteristic vectors, and ``greedy_loop``
the comparison-loop form of ``baselines.greedy``; ``submodular_mixture``
draws the tables of random submodular functions.  The solver needs none of
them.
"""

import numpy as np

from dsprism import setfn
from dsprism.geometry import MEMBERSHIP_TOL, barycentric, binary_points
from dsprism.numerics import det


def contains(S, x, tol=MEMBERSHIP_TOL):
    """True when every barycentric coordinate of x in S is >= -tol."""
    return bool(np.min(barycentric(S, x)) >= -tol)


def volume_measure(S):
    """|det| of the simplex's edge matrix (n! times its Euclidean volume)."""
    return abs(det((S.vertices[1:] - S.vertices[0]).T))


def kelley(t_tilde, s, d, X):
    """Kelley's value max(t_tilde, max_j s_j.x + d_j) of the cuts s (k, n)
    and d (k,), computed directly at a point x (n,) or at each row of X
    (m, n)."""
    X = np.asarray(X, dtype=float)
    s, d = np.reshape(s, (-1, X.shape[-1])), np.reshape(d, -1)
    return np.maximum(t_tilde, np.max(X @ s.T + d, axis=-1, initial=-np.inf))


def cut_rows(events):
    """The rows (s, d) of a solve's ``cut`` events, in the order emitted.
    A solve's polyhedra form one chain, so a polyhedron P of the solve is
    the floor and the first P.num_rows - 1 of these rows."""
    return np.array([e["row"][0] for e in events]), np.array([e["row"][1] for e in events])


def t_interval(P, s, d, x, tol=1e-9):
    """Feasible t-range (t_lo, inf) at a fixed x of the polyhedron with P's
    domain and floor and the cuts (s, d), or None when x lies outside the
    domain by more than tol.  This is Kelley's value over all cuts; at a
    cut point it may differ from P's t_lo array in the last digits."""
    if not contains(P.domain, x, tol):
        return None
    return float(kelley(P.t_tilde, s, d, x)), np.inf


def hyperplane_through(points, heights):
    """The hyperplane {p.x - t = gamma} through the lifted points (v_i, t_i).

    Returns (p, gamma); raises on a degenerate base.
    """
    V = np.asarray(points, dtype=float)
    t = np.asarray(heights, dtype=float)
    n = V.shape[1]
    A = np.hstack([V, -np.ones((n + 1, 1))])
    sol = np.linalg.solve(A, t)
    return sol[:n], float(sol[n])


def equivalence_check(S, P, levels, tol=1e-8):
    """Cross-check the bound program against its hyperplane form.

    Verifies that on every binary point in S the two objectives differ by
    the constant gamma, and that the optimal values satisfy
    gamma* = c* + gamma.  Returns True when everything agrees.
    """
    p, gamma = hyperplane_through(S.vertices, levels.t)
    grid = binary_points(S.n)
    lam = barycentric(S, grid)
    inside = np.min(lam, axis=1) >= -MEMBERSHIP_TOL
    if not inside.any():
        return True
    t_lo = P.t_lo[inside]
    obj_mip = lam[inside] @ levels.t - t_lo
    obj_hyp = grid[inside] @ p - t_lo
    return bool(np.all(np.abs(obj_hyp - (obj_mip + gamma)) <= tol)
                and abs(np.max(obj_hyp) - (np.max(obj_mip) + gamma)) <= tol)


def second_difference_by_pair(vals, n):
    """Largest f(A+i+j) + f(A) - f(A+i) - f(A+j), summed in that order, one
    pair i < j at a time over strided views of the table; -inf when n < 2,
    and a NaN or overflowed sum is kept."""
    cube = vals.reshape((2,) * n)  # axis n-1-i holds bit i
    best = -np.inf
    for i in range(n):
        for j in range(i + 1, n):
            c = np.moveaxis(cube, (n - 1 - i, n - 1 - j), (0, 1))  # c[1, 0]: A+i
            best = np.maximum(best, np.max(c[1, 1] + c[0, 0] - c[1, 0] - c[0, 1]))
    return float(best)


def exhaustive_decompose(f, g):
    """ds_decompose with M from the four-point check of both sides."""
    ft, gt = setfn.as_table(f), setfn.as_table(g)
    viol = max(setfn.max_submodularity_violation(ft), setfn.max_submodularity_violation(gt))
    if viol <= setfn.REPAIR_SLACK:
        return ft, gt, 0.0
    M = 0.5 * viol * (1.0 + 1e-6) + setfn.REPAIR_SLACK
    card = np.bitwise_count(np.arange(1 << f.n))
    q = M * card * (f.n - card)
    return setfn.table(f.n, ft.table_values + q), setfn.table(f.n, gt.table_values + q), M


def set_subgradient(oracle, B):
    """The chain subgradients at the characteristic vectors B (rows), without
    sorting.  The chain takes the set's elements, then the others, each
    ascending, so element i enters after lo: the set's elements below i
    when i is in the set, else the set and every element below i; and
    s_i = f(lo + i) - f(lo), the same difference of the same two values."""
    bit = np.left_shift(1, np.arange(B.shape[-1], dtype=np.int64))
    a = (B.astype(np.int64) @ bit)[..., None]
    lo = a | (bit - 1)
    np.copyto(lo, a & (bit - 1), where=B == 1.0)
    return oracle.values(lo | bit) - oracle.values(lo)


def submodular_mixture(n, seed, weights):
    """weights[0] * modular + weights[1] * coverage + weights[2] * concave of
    cardinality + weights[3] * cut, as a table."""
    rng = np.random.default_rng(seed)
    incs = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    edges = [(u, v, float(rng.uniform(0.1, 1.0)))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    covers = [[u for u in range(2 * n) if rng.random() < 0.35] for _ in range(n)]
    parts = [setfn.modular(rng.normal(size=n)),
             setfn.coverage(n, rng.uniform(0.1, 1.0, size=2 * n), covers),
             setfn.cardinality_concave(n, np.concatenate([[0.0], np.cumsum(incs)])),
             setfn.cut(n, edges)]
    masks = np.arange(1 << n)
    return sum(w * p.values(masks) for w, p in zip(weights, parts))


def greedy_loop(f, g):
    """Forward selection on f - g by a comparison loop: add the element
    whose addition is strictly below value - 1e-12 and least, the smallest
    index on ties; stop when there is none."""
    current = 0
    value = f(0) - g(0)
    while True:
        best_i = None
        best_val = value - 1e-12
        for i in range(f.n):
            if (current >> i) & 1:
                continue
            m = current | (1 << i)
            v = f(m) - g(m)
            if v < best_val:
                best_val = v
                best_i = i
        if best_i is None:
            return current, value
        current |= 1 << best_i
        value = best_val
