"""The bound subproblem: vertex levels, the binary-integer program over the
binary points of a simplex, and the resulting prism lower bound.

The program is solved exactly by enumerating all binary x whose barycentric
coordinates are nonnegative in the simplex.  For each such x the barycentric
weights are unique, and the objective sum(t_i lambda_i) - t is maximized at
the smallest t the polyhedron admits at x, t_lo(x) = max(t_tilde, max_j
s_j.x + d_j).  It is read by mask from ``Polyhedron.t_lo``, which holds it
for every binary point: at a point a cut was taken at it is that cut's own
value (exact, since the Lovasz extension is), and ``add_cut`` evaluates
each new cut once, at every point not cut yet, when it adds the cut.
The levels t_i = ghat(v_i) + mu take any mu; the result hands the
simplex's binary points back as one ascending mask array, from which the
solver updates its incumbent and cuts, and names the witness by its mask
and its row of the barycentric block, at which the solver splits.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import MEMBERSHIP_TOL, barycentric, binary_points


@dataclass(frozen=True)
class VertexLevels:
    t: np.ndarray  # t_i = ghat(v_i) + mu
    mu: float


INFEASIBLE = "Infeasible"
SOLVED = "Solved"


@dataclass
class BoundResult:
    status: str
    beta: float
    c_star: float = None
    witness_mask: int = None
    witness_lam: np.ndarray = None  # the witness's barycentric row of the block product
    # masks of the binary points in the simplex, ascending; empty when infeasible
    feasible_points: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def vertex_levels(ghat, mu):
    """Levels t_i = ghat(v_i) + mu from ghat, the Lovasz extension of g at
    the simplex vertices (``lovasz(g, S.vertices)``, one value per row).

    The bound is valid for any mu; the solver passes the incumbent value.
    """
    return VertexLevels(t=ghat + mu, mu=float(mu))


def solve_bound(S, P, levels, g):
    """Exact optimum of the bound program for prism T(S) against P.

    Enumerates binary x inside S; each is a feasible point, since P's
    domain holds the cube and P admits every t >= t_lo(x) there.  The
    prism is infeasible only when S holds no binary point.  The hyperplane
    bound is mu when c* <= 0, and mu - c* when c* > 0: for binary x in S,
    the convex ghat lies below its chord, so with t_lo(x) <= f(x) every
    subset in the prism has f - g >= mu - c*.  beta also folds in the
    direct enumeration bound min_x(t_lo(x) - g(x)), which is valid for the
    subsets in the prism and at least as tight: the hyperplane bound equals
    min_x(t_lo(x) - sum_i lambda_i ghat(v_i)) and the chord overestimates
    ghat at every x.
    """
    lam = barycentric(S, binary_points(S.n))
    # the least coordinate of each point, one column at a time: a reduction
    # along the short rows costs a numpy inner loop per point
    low = lam[:, 0].copy()
    for j in range(1, S.n + 1):
        np.minimum(low, lam[:, j], out=low)
    masks = np.flatnonzero(low >= -MEMBERSHIP_TOL)
    if len(masks) == 0:
        return BoundResult(status=INFEASIBLE, beta=np.inf)

    mu = levels.mu
    t_lo = P.t_lo[masks]
    # a gathered copy only when some point lies outside: gemv sums a row
    # in an order that depends on its place in a block of rows, so the
    # product over every row and then a gather moves bits
    inside = lam if len(masks) == len(lam) else lam[masks]
    obj = inside @ levels.t - t_lo
    j = int(np.argmax(obj))  # first max: smallest mask wins ties
    best_obj = float(obj[j])
    mask = int(masks[j])
    direct = float(np.min(t_lo - g.values(masks)))
    beta = mu if best_obj <= 0.0 else mu - best_obj
    beta = max(beta, direct)
    # a copy, so that an open node does not keep the whole block alive
    return BoundResult(status=SOLVED, beta=beta, c_star=best_obj, witness_mask=mask,
                       witness_lam=lam[mask].copy(), feasible_points=masks)

