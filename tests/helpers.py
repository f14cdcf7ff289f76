"""Reference computations the tests check the package against.

``contains`` and ``t_interval`` test a point against a simplex and read the
polyhedron's t-range at one point; ``hyperplane_through`` and
``equivalence_check`` give the hyperplane form of the bound program.  The
solver needs none of them.
"""

import numpy as np

from dsprism.geometry import MEMBERSHIP_TOL, barycentric, binary_points
from dsprism.numerics import lu_solve


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
    sol = lu_solve(A, t)
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
