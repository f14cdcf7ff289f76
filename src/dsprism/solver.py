"""Branch-and-bound driver: best-first search over prisms with
enumeration-based bounding, outer-approximation cuts and the two
deletion rules.
"""

import heapq
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .bound import INFEASIBLE, solve_bound, vertex_levels
from .geometry import (Polyhedron, Simplex, add_cut, binary_points, initial_simplex,
                       subdivide)
from .setfn import (GroundSetError, as_table, brute_force_min, lovasz,
                    lovasz_subgradient, set_of)


# a cut separates a point whose fhat exceeds its level by more than this
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-9
    max_iters: int = 200_000
    max_nodes: int = 500_000
    initial_vertex: int = 0  # cube vertex (mask) anchoring the initial simplex

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("eps must be finite and nonnegative, got %r" % (self.eps,))
        for name in ("max_iters", "max_nodes"):
            limit = getattr(self, name)
            # a bool is an int to Python, and NaN or a fraction never fires
            if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)):
                raise ValueError("%s must be an integer, got %r" % (name, limit))
            if limit < 0:
                raise ValueError("%s must be nonnegative, got %r" % (name, limit))


@dataclass
class Node:
    simplex: Simplex  # base of the node's prism
    ghat: np.ndarray  # Lovasz extension of g at the simplex vertices
    bound: object  # BoundResult
    rows_seen: int  # P row count the stored bound was computed against


@dataclass
class SolveReport:
    optimal_set: list
    optimal_value: float
    n: int
    iterations: int
    nodes_created: int
    nodes_explored: int
    deleted_dr1: int
    deleted_dr2: int
    deleted_bound: int
    cuts_added: int
    wall_time_ms: float
    termination_reason: str
    final_gap: float
    alpha_history: list
    config: dict
    trace: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def cutting_plane(f, x_star, t_star):
    """Separating cut at an infeasible witness z = (x*, t*).

    Returns (s, c, d) encoding l(x, t) = s.x + c*t + d <= 0 with
    l(z) = fhat(x*) - t* > 0 and l <= 0 on the whole epigraph region.
    Given a (k, n) block of points x* and their k levels t*, returns one
    cut per point: s of shape (k, n), c and d of length k.
    """
    x_star = np.asarray(x_star, dtype=float)
    fhat = lovasz(f, x_star)
    if np.any(fhat <= np.asarray(t_star) + FEAS_TOL):
        raise ValueError("cutting plane requested at a feasible point")
    s = lovasz_subgradient(f, x_star)
    # one s.x per point through matmul, for a point as for a block (an
    # einsum sums in another order and moves d in the last digits)
    d = fhat - np.matmul(s[..., None, :], x_star[..., :, None])[..., 0, 0]
    # [()] unwraps the 0-d array of a single point into a scalar
    return s, np.full(np.shape(d), -1.0)[()], d


def _emit(observer, event, **data):
    if observer is not None:
        observer(event, data)


def solve(f, g, config=None, observer=None):
    """Minimize f(A) - g(A) exactly over all subsets of the ground set."""
    if f.n != g.n:
        raise GroundSetError("oracles live on different ground sets")
    cfg = config or SolverConfig()
    n = f.n
    anchor = cfg.initial_vertex
    if not (isinstance(anchor, (int, np.integer)) and 0 <= anchor < 1 << n):
        raise ValueError("initial_vertex must be an integer mask in 0..%d, got %r"
                         % ((1 << n) - 1, anchor))
    start = time.perf_counter()

    # tabulate once: every oracle value the search needs is one of the 2^n
    ft = as_table(f)
    gt = as_table(g)

    inc_mask, inc_val = None, np.inf
    alpha_history = []
    iteration = 0

    def update_incumbent(masks):
        """Make the best of masks (the first on ties) the incumbent when it
        improves on it; the one place f - g is minimized during a solve."""
        nonlocal inc_mask, inc_val
        if len(masks) == 0:
            return
        vals = ft.values(masks) - gt.values(masks)
        j = int(np.argmin(vals))
        if vals[j] < inc_val:
            inc_val = float(vals[j])
            inc_mask = int(masks[j])
            alpha_history.append((iteration, inc_val))
            _emit(observer, "incumbent", mask=inc_mask, value=inc_val,
                  iteration=iteration)

    # incumbent seed: empty set, singletons, co-singletons, full set, anchor
    full = (1 << n) - 1
    update_incumbent(np.array([0] + [1 << i for i in range(n)]
                              + [full ^ (1 << i) for i in range(n)] + [full, anchor]))

    _, t_tilde = brute_force_min(ft)
    S0 = initial_simplex(n, anchor)
    P = Polyhedron(S0, t_tilde)

    nodes_created = 0  # also the id of the next region
    deleted = {"dr1": 0, "dr2": 0, "bound": 0}
    cuts_added = 0
    closed_bounds = []  # certified lower bounds of all closed regions
    heap = []  # open regions as (beta, id, Node): best-first, ties by smallest id

    def classify(res, beta):
        """Deletion rule that closes a region whose bound program gave res
        (None: only the stored bound beta is tested), or None to keep it."""
        if res is not None and res.status == INFEASIBLE:
            return "dr1"
        if res is not None and res.c_star <= 0.0:
            return "dr2"
        if beta >= inc_val - cfg.eps * max(1.0, abs(inc_val)):
            return "bound"
        return None

    def close(nid, reason, S, beta):
        """Delete a region; all but dr1 (empty region) certify beta."""
        deleted[reason] += 1
        if reason != "dr1":
            closed_bounds.append(beta)
        _emit(observer, "delete", node_id=nid, reason=reason, simplex=S,
              bound_value=beta, alpha=inc_val)

    def bound_region(nid, S, ghat, beta, new):
        """Bound region nid (simplex S, ghat at its vertices, stored bound
        beta) against the current P and feed its binary points to the
        incumbent; a new region reports a node_bound event.  Closes the
        region when a deletion rule applies.  Returns (bound result,
        tightened beta, deletion reason or None)."""
        levels = vertex_levels(ghat, inc_val)
        res = solve_bound(S, P, levels, gt)
        update_incumbent(res.feasible_points)
        if new:
            _emit(observer, "node_bound", node_id=nid, simplex=S, polyhedron=P,
                  levels=levels, bound=res, alpha=inc_val, parent_beta=beta)
        beta = max(beta, res.beta)  # inf when infeasible
        reason = classify(res, beta)
        if reason is not None:
            close(nid, reason, S, beta)
        return res, beta, reason

    def bound_child(S, ghat, parent_beta):
        """Bound a new region and open it unless a deletion rule closes it
        (with its certified bound in closed_bounds); returns its trace entry."""
        nonlocal nodes_created
        nid = nodes_created
        nodes_created += 1
        res, beta, reason = bound_region(nid, S, ghat, parent_beta, new=True)
        if reason is None:
            heapq.heappush(heap, (beta, nid, Node(simplex=S, ghat=ghat, bound=res,
                                                  rows_seen=P.num_rows)))
        return {"id": nid, "status": res.status, "c_star": res.c_star,
                "beta": None if reason == "dr1" else beta, "deleted_by": reason}

    # ghat in full at S0's vertices only: a child shares all but one vertex
    # with its parent, and lovasz values each row on its own, so the
    # child's ghat is its parent's with the replaced vertex re-evaluated
    root_entry = bound_child(S0, lovasz(gt, S0.vertices), -np.inf)
    trace = [{"iter": -1, "node_id": root_entry["id"], "beta": root_entry["beta"],
              "alpha": inc_val, "action": "root", "children": [root_entry],
              "cuts_total": cuts_added}]

    termination = "optimal"
    while heap:
        if iteration >= cfg.max_iters:
            termination = "iteration_limit"
            break
        if nodes_created >= cfg.max_nodes:
            termination = "node_limit"
            break
        # best-first selection; the bound rule closes an open region here and
        # only here.  The stored bound is refreshed against the current P (cuts
        # only tighten it), so regions that close under the grown polyhedron
        # are deleted without expansion, and the selected node's binary
        # points carry their current t_lo: a point cut before has t_lo = f
        beta, nid, node = heapq.heappop(heap)
        S = node.simplex
        if classify(None, beta):
            close(nid, "bound", S, beta)
            continue
        if P.num_rows > node.rows_seen:
            node.bound, new_beta, reason = bound_region(nid, S, node.ghat, beta, new=False)
            node.rows_seen = P.num_rows
            if reason is not None:
                continue
            if new_beta > beta:
                # tightened but maybe no longer the best node: reinsert
                heapq.heappush(heap, (new_beta, nid, node))
                continue
        iteration += 1
        _emit(observer, "select", node_id=nid, beta=beta, alpha=inc_val,
              iteration=iteration)

        # separate every binary point of the node the outer approximation
        # still underestimates (the witness among them); each such cut is
        # strictly separating and lifts t_lo to f at its point, so no point
        # is cut twice
        res = node.bound
        masks, t_lo = res.feasible_points, res.feasible_t_lo
        need = ft.values(masks) > t_lo + FEAS_TOL
        masks, t_lo = masks[need], t_lo[need]
        if len(masks):
            X = binary_points(n)[masks]
            S_cut, c_cut, d_cut = cutting_plane(ft, X, t_lo)
            P = add_cut(P, (S_cut, c_cut, d_cut), masks)
            cuts_added += len(masks)
            if observer is not None:
                for j in range(len(masks)):
                    _emit(observer, "cut", row=(S_cut[j], float(c_cut[j]), float(d_cut[j])),
                          z=(X[j], t_lo[j]), violation=ft.table_values[masks[j]] - t_lo[j])

        # subdivide at the witness so it becomes a vertex of every child:
        # together with the cut this caps its bound contribution at
        # mu - (f-g)(x*) <= 0, so each binary point is selected at most once
        # per branch and termination is finite (a witness that already is a
        # vertex gets longest-edge bisection); the split point is the one
        # new vertex, so ghat is evaluated there once for all children
        split = subdivide(S, res.witness_x)
        i, C = split[0]
        g_split = lovasz(gt, C.vertices[i])
        children = []
        for i, C in split:
            ghat = node.ghat.copy()
            ghat[i] = g_split
            children.append(bound_child(C, ghat, beta))
        trace.append({"iter": iteration, "node_id": nid, "beta": beta,
                      "alpha": inc_val, "action": "cut" if len(masks) else "nocut",
                      "children": children, "cuts_total": cuts_added})

    if termination != "optimal":
        closed_bounds.extend(entry[0] for entry in heap)
    lower = min(closed_bounds) if closed_bounds else inc_val
    final_gap = max(0.0, inc_val - lower)

    wall_ms = (time.perf_counter() - start) * 1000.0
    return SolveReport(
        optimal_set=set_of(inc_mask),
        optimal_value=inc_val,
        n=n,
        iterations=iteration,
        nodes_created=nodes_created,
        nodes_explored=iteration,
        deleted_dr1=deleted["dr1"],
        deleted_dr2=deleted["dr2"],
        deleted_bound=deleted["bound"],
        cuts_added=cuts_added,
        wall_time_ms=wall_ms,
        termination_reason=termination,
        final_gap=final_gap,
        alpha_history=alpha_history,
        config=asdict(cfg),
        trace=trace,
    )
