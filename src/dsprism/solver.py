"""Branch-and-bound driver: best-first search over prisms with
enumeration-based bounding, outer-approximation cuts and the two
deletion rules.
"""

import heapq
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import geometry
from .bound import INFEASIBLE, solve_bound, vertex_levels
from .geometry import (Simplex, add_cut, barycentric, binary_points, bisect,
                       initial_polyhedron, initial_simplex, radial_subdivide)
from .setfn import (GroundSetError, as_table, brute_force_min, lovasz,
                    lovasz_subgradient, set_of)


# a cut separates a point whose fhat exceeds its level by more than this
FEAS_TOL = 1e-9


@dataclass
class SolverConfig:
    eps: float = 1e-9
    max_iters: int = 200_000
    max_nodes: int = 500_000
    initial_vertex: int = 0  # cube vertex (mask) anchoring the initial simplex
    trace_level: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("eps must be finite and nonnegative, got %r" % (self.eps,))
        for name in ("max_iters", "max_nodes"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be nonnegative, got %r" % (name, getattr(self, name)))


@dataclass
class Node:
    simplex: Simplex  # base of the node's prism
    beta: float
    bound: object  # BoundResult
    id: int
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


def is_feasible_point(f, x, t, tol=1e-9):
    """True iff x is in the unit cube and fhat(x) <= t, up to tol."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    return lovasz(f, x) <= t + tol


def cutting_plane(f, x_star, t_star, feas_tol=FEAS_TOL):
    """Separating cut at an infeasible witness z = (x*, t*).

    Returns (s, c, d) encoding l(x, t) = s.x + c*t + d <= 0 with
    l(z) = fhat(x*) - t* > 0 and l <= 0 on the whole epigraph region.
    Given a (k, n) block of points x* and their k levels t*, returns one
    cut per point: s of shape (k, n), c and d of length k.
    """
    x_star = np.asarray(x_star, dtype=float)
    fhat = lovasz(f, x_star)
    if np.any(fhat <= np.asarray(t_star) + feas_tol):
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
    P = initial_polyhedron(S0, t_tilde)

    nodes_created = 0
    nodes_explored = 0
    deleted = {"dr1": 0, "dr2": 0, "bound": 0}
    cuts_added = 0
    closed_bounds = []  # certified lower bounds of all pruned regions
    trace = []

    heap = []
    active = {}
    next_id = 0
    cut_done = np.zeros(1 << n, dtype=bool)  # binary points cut at so far

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
        active.pop(nid, None)
        deleted[reason] += 1
        if reason != "dr1":
            closed_bounds.append(beta)
        _emit(observer, "delete", node_id=nid, reason=reason, simplex=S,
              bound_value=beta, alpha=inc_val)

    def bound_region(nid, S, beta, new):
        """Bound region nid (simplex S, stored bound beta) against the current
        P and feed its binary points to the incumbent; a new region reports
        a node_bound event.  Closes the region when a deletion rule applies.
        Returns (bound result, tightened beta, deletion reason or None)."""
        levels = vertex_levels(S, inc_val, gt)
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

    def bound_child(S, parent_beta):
        """Solve the bound problem for a child simplex; returns (node_or_None,
        trace entry).  Deleted children close their region with a certified
        bound recorded in closed_bounds."""
        nonlocal nodes_created, next_id
        nodes_created += 1
        nid = next_id
        next_id += 1
        res, beta, reason = bound_region(nid, S, parent_beta, new=True)
        entry = {"id": nid, "status": res.status, "c_star": res.c_star,
                 "beta": None if reason == "dr1" else beta, "deleted_by": reason}
        if reason is not None:
            return None, entry
        node = Node(simplex=S, beta=beta, bound=res, id=nid, rows_seen=P.num_rows)
        return node, entry

    # root
    root, root_entry = bound_child(S0, -np.inf)
    if root is not None:
        active[root.id] = root
        heapq.heappush(heap, (root.beta, root.id))
    if cfg.trace_level >= 2:
        trace.append({"iter": -1, "node_id": root_entry["id"], "beta": root_entry["beta"],
                      "alpha": inc_val, "action": "root", "children": [root_entry],
                      "cuts_total": cuts_added})

    termination = "optimal"
    while active:
        if iteration >= cfg.max_iters:
            termination = "iteration_limit"
            break
        if nodes_created >= cfg.max_nodes:
            termination = "node_limit"
            break
        # best-first selection, ties by smallest node id; the stored bound is
        # refreshed against the current P (cuts only tighten it), so nodes
        # that close under the grown polyhedron are deleted without expansion
        node = None
        while active:
            beta_k, nid = heap[0]
            cand = active.get(nid)
            if cand is None or cand.beta != beta_k:
                heapq.heappop(heap)
                continue
            heapq.heappop(heap)
            S = cand.simplex
            if classify(None, cand.beta):
                close(nid, "bound", S, cand.beta)
                continue
            if P.num_rows > cand.rows_seen:
                res, new_beta, reason = bound_region(nid, S, cand.beta, new=False)
                cand.rows_seen = P.num_rows
                cand.bound = res
                if reason is not None:
                    continue
                if new_beta > cand.beta:
                    # tightened but maybe no longer the best node: reinsert
                    cand.beta = new_beta
                    heapq.heappush(heap, (new_beta, nid))
                    continue
            node = cand
            del active[nid]
            break
        if node is None:
            break
        iteration += 1
        nodes_explored += 1
        _emit(observer, "select", node_id=nid, beta=node.beta, alpha=inc_val,
              iteration=iteration)

        alpha_before = inc_val
        res = node.bound

        # separate every binary point of the node the outer approximation
        # still underestimates (the witness among them); each such cut is
        # strictly separating, and each point needs one cut ever
        masks, t_lo = res.feasible_points, res.feasible_t_lo
        need = (ft.values(masks) > t_lo + FEAS_TOL) & ~cut_done[masks]
        masks, t_lo = masks[need], t_lo[need]
        if len(masks):
            X = binary_points(n)[masks]
            S_cut, c_cut, d_cut = cutting_plane(ft, X, t_lo)
            k = P.num_rows
            P = add_cut(P, (S_cut, c_cut, d_cut))
            cut_done[masks] = True
            cuts_added += len(masks)
            if observer is not None:
                for j in range(len(masks)):
                    _emit(observer, "cut", row=(S_cut[j], float(c_cut[j]), float(d_cut[j])),
                          z=(X[j], t_lo[j]), violation=ft.table_values[masks[j]] - t_lo[j],
                          polyhedron_before=P.head(k + j),
                          polyhedron_after=P.head(k + j + 1))
        action = "cut" if len(masks) else "nocut"

        # subdivide at the witness so it becomes a vertex of every child:
        # together with the cut this caps its bound contribution at
        # mu - (f-g)(x*) <= 0, so each binary point is selected at most once
        # per branch and termination is finite.  When the witness already is
        # a vertex, fall back to longest-edge bisection.
        base = node.simplex
        if np.max(barycentric(base, res.witness_x)) >= 1.0 - 1e-9:
            subs = bisect(base)
        else:
            subs = radial_subdivide(base, res.witness_x)
        children = []
        for S in subs:
            child, entry = bound_child(S, node.beta)
            children.append(entry)
            if child is not None:
                active[child.id] = child
                heapq.heappush(heap, (child.beta, child.id))

        # prune the pool eagerly when the incumbent improved (otherwise the
        # lazy check at selection time covers it)
        pruned = []
        for oid in (list(active) if inc_val < alpha_before else ()):
            other = active[oid]
            if classify(None, other.beta):
                close(oid, "bound", other.simplex, other.beta)
                pruned.append(oid)

        if cfg.trace_level >= 1:
            trace.append({"iter": iteration, "node_id": nid, "beta": node.beta,
                          "alpha": inc_val, "action": action, "children": children,
                          "cuts_total": cuts_added, "pruned": pruned})

    if termination != "optimal":
        closed_bounds.extend(node.beta for node in active.values())
    lower = min(closed_bounds) if closed_bounds else inc_val
    final_gap = max(0.0, inc_val - lower)

    wall_ms = (time.perf_counter() - start) * 1000.0
    return SolveReport(
        optimal_set=set_of(inc_mask),
        optimal_value=inc_val,
        n=n,
        iterations=iteration,
        nodes_created=nodes_created,
        nodes_explored=nodes_explored,
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
