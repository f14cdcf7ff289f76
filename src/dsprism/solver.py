"""Branch-and-bound driver: best-first search over prisms with
enumeration-based bounding, outer-approximation cuts and the two
deletion rules.
"""

import heapq
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .bound import INFEASIBLE, solve_bound, vertex_levels
from .geometry import (Polyhedron, Simplex, add_cut, binary_points, initial_simplex,
                       subdivide)
from .setfn import (BLOCK, as_table, brute_force_min, check_count, check_nonnegative,
                    first_min, indicator, lovasz, lovasz_subgradient, same_ground_set, set_of)


# a cut separates a point whose fhat exceeds its level by more than this
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-9
    max_iters: int = 200_000
    max_nodes: int = 500_000
    initial_vertex: int = 0  # cube vertex (mask) anchoring the initial simplex

    def __post_init__(self):
        check_nonnegative("eps", self.eps)
        for name in ("max_iters", "max_nodes", "initial_vertex"):
            # NaN or a fraction never fires as a limit, nor names a vertex
            check_count(name, getattr(self, name))


@dataclass(frozen=True)
class Node:
    simplex: Simplex  # base of the node's prism
    ghat: np.ndarray  # Lovasz extension of g at the simplex vertices
    bound: object  # BoundResult
    cuts_seen: int  # the solve's cut count when the stored bound was computed


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


def cutting_plane(f, masks, t_lo):
    """Separating cuts at the binary points z named by masks where f(z),
    read once, exceeds the level t_lo by more than FEAS_TOL.

    Returns (at, s, d): at indexes the points cut in masks, and the cuts
    t >= s.x + d, s of shape (len(at), n), are Lovasz-extension subgradient
    planes, tight at their points (s.z + d = f(z)), so each holds on the
    whole epigraph region and cuts off (z, t_lo).  They are formed BLOCK
    points at a time: a point's cut depends on that point alone, so only
    the temporaries are smaller."""
    fz = f.values(masks)
    at = np.flatnonzero(fz > t_lo + FEAS_TOL)
    s, d = np.empty((len(at), f.n)), fz[at]
    for b in range(0, len(at), BLOCK):
        X = binary_points(f.n)[np.asarray(masks)[at[b:b + BLOCK]]]
        s[b:b + BLOCK] = sb = lovasz_subgradient(f, X)
        # one s.x per point through matmul (an einsum sums in another order
        # and moves d in the last digits)
        d[b:b + BLOCK] -= np.matmul(sb[:, None, :], X[:, :, None])[:, 0, 0]
    return at, s, d


def _emit(observer, event, **data):
    if observer is not None:
        observer(event, data)


def solve(f, g, config=None, observer=None):
    """Minimize f(A) - g(A) exactly over all subsets of the ground set."""
    n = same_ground_set(f, g)
    cfg = config or SolverConfig()
    anchor = cfg.initial_vertex
    if anchor >= 1 << n:
        raise ValueError("initial_vertex must be an integer mask in 0..%d, got %r"
                         % ((1 << n) - 1, anchor))
    start = time.perf_counter()

    # tabulate once: every oracle value the search needs is one of the 2^n
    ft, gt = as_table(f), as_table(g)

    inc_mask, inc_val = None, np.inf
    alpha_history = []
    iteration = 0

    def update_incumbent(masks):
        """Make the best of masks (the first on ties) the incumbent when it
        improves on it; the one place f - g is minimized during a solve."""
        nonlocal inc_mask, inc_val
        if len(masks) == 0:
            return
        j, val = first_min(ft.values(masks) - gt.values(masks))
        if val < inc_val:
            inc_val, inc_mask = val, int(masks[j])
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
    lower = np.inf  # least certified lower bound of a closed region
    heap = []  # open regions as (beta, id, Node): best-first, ties by smallest id

    def bound_rule(beta):
        """The bound rule: a region bounded by beta cannot improve on the incumbent."""
        return beta >= inc_val - cfg.eps * max(1.0, abs(inc_val))

    def classify(res, beta):
        """Deletion rule closing a region of bound result res and bound beta, or None."""
        if res.status == INFEASIBLE:
            return "dr1"
        if res.c_star <= 0.0:
            return "dr2"
        return "bound" if bound_rule(beta) else None

    def close(nid, reason, S, beta):
        """Delete a region; its beta certifies it (inf for dr1, an empty region)."""
        nonlocal lower
        deleted[reason] += 1
        lower = min(lower, beta)
        _emit(observer, "delete", node_id=nid, reason=reason, simplex=S,
              bound_value=beta, alpha=inc_val)

    def bound_region(S, ghat, beta, nid=None):
        """Bound a region (simplex S, ghat at its vertices, bound beta so far)
        against the current P and feed its binary points to the incumbent;
        a new region (nid None) takes the next id and reports a node_bound
        event.  A deletion rule closes the region, else it opens with the
        tightened bound.  Returns its trace entry."""
        nonlocal nodes_created
        new = nid is None
        if new:
            nid, nodes_created = nodes_created, nodes_created + 1
        levels = vertex_levels(ghat, inc_val)
        res = solve_bound(S, P, levels, gt)
        update_incumbent(res.feasible_points)
        if new:
            _emit(observer, "node_bound", node_id=nid, simplex=S, polyhedron=P,
                  levels=levels, bound=res, alpha=inc_val, parent_beta=beta)
        beta = max(beta, res.beta)  # inf when infeasible
        reason = classify(res, beta)
        if reason is None:
            heapq.heappush(heap, (beta, nid, Node(S, ghat, res, cuts_added)))
        else:
            close(nid, reason, S, beta)
        return {"id": nid, "status": res.status, "c_star": res.c_star,
                "beta": None if reason == "dr1" else beta, "deleted_by": reason}

    # ghat in full at S0's vertices only: a child shares all but one vertex
    # with its parent, and lovasz values each row on its own, so the
    # child's ghat is its parent's with the replaced vertex re-evaluated
    root_entry = bound_region(S0, lovasz(gt, S0.vertices), -np.inf)
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
        # best-first selection.  A bound stored before the latest cuts is
        # re-bounded against the current P (cuts only tighten it): the region
        # closes or goes back, and the heap picks again.  One whose bound did
        # not tighten keeps its key, the least, and is popped straight back
        beta, nid, node = heapq.heappop(heap)
        S = node.simplex
        if bound_rule(beta):
            close(nid, "bound", S, beta)
            continue
        if cuts_added > node.cuts_seen:
            bound_region(S, node.ghat, beta, nid)
            continue
        iteration += 1
        _emit(observer, "select", node_id=nid, beta=beta, alpha=inc_val,
              iteration=iteration)

        # separate every binary point of the node the outer approximation
        # still underestimates at its level in P (the witness among them);
        # each such cut is strictly separating and lifts t_lo to f at its
        # point, so no point is cut twice
        res = node.bound
        t_lo = P.t_lo[res.feasible_points]
        at, s, d = cutting_plane(ft, res.feasible_points, t_lo)
        masks, t_lo = res.feasible_points[at], t_lo[at]
        cuts = len(masks)
        if cuts:
            P = add_cut(P, s, d, masks)
            cuts_added += cuts
            if observer is not None:
                for j in range(cuts):
                    _emit(observer, "cut", row=(s[j], float(d[j])), z=(int(masks[j]), t_lo[j]),
                          violation=ft.table_values[masks[j]] - t_lo[j])
        del at, s, d, masks, t_lo  # the children are bounded without the cut rows

        # subdivide at the witness so it becomes a vertex of every child:
        # together with the cut this caps its bound contribution at
        # mu - (f-g)(x*) <= 0, so each binary point is selected at most once
        # per branch and termination is finite (a witness that already is a
        # vertex gets longest-edge bisection); the split point is the one
        # new vertex, so ghat is evaluated there once for all children
        split = subdivide(S, indicator(res.witness_mask, n), res.witness_lam)
        i, C = split[0]
        g_split = lovasz(gt, C.vertices[i])
        children = []
        for i, C in split:
            ghat = node.ghat.copy()
            ghat[i] = g_split
            children.append(bound_region(C, ghat, beta))
        trace.append({"iter": iteration, "node_id": nid, "beta": beta,
                      "alpha": inc_val, "action": "cut" if cuts else "nocut",
                      "children": children, "cuts_total": cuts_added})

    if termination != "optimal":
        lower = min(lower, heap[0][0])  # the least open bound
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
