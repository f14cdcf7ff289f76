"""Reference computations the tests check the package against.

``contains`` and ``t_interval`` test a point against a simplex and read the
polyhedron's t-range at one point; ``hyperplane_through`` and
``equivalence_check`` give the hyperplane form of the bound program.
``second_difference_by_pair`` and ``exhaustive_decompose`` are the per-pair
and both-sides-checked forms of ``setfn._max_second_difference`` and
``setfn.ds_decompose``; ``set_subgradient`` is the closed form of
``setfn.lovasz_subgradient`` at characteristic vectors.  The solver needs
none of them.
"""

import numpy as np

from dsprism import setfn
from dsprism.geometry import MEMBERSHIP_TOL, barycentric, binary_points


def contains(S, x, tol=MEMBERSHIP_TOL):
    """True when every barycentric coordinate of x in S is >= -tol."""
    return bool(np.min(barycentric(S, x)) >= -tol)


def t_interval(P, x, tol=1e-9):
    """Feasible t-range (t_lo, inf) of the polyhedron P at a fixed x, or None
    when x lies outside the domain by more than tol.  This is Kelley's value
    over all cuts; at a cut point it may differ from the t_lo array in the
    last digits."""
    x = np.asarray(x, dtype=float)
    if not contains(P.domain, x, tol):
        return None
    return max(P.t_tilde, float(np.max(P.s @ x + P.d, initial=-np.inf))), np.inf


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
