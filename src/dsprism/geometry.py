"""Simplices and polyhedra for the branch-and-bound search.

All values are immutable after construction; operations return fresh
objects.  The polyhedron lives in (x, t)-space and outer-approximates the
epigraph region {x in the cube, fhat(x) <= t}: it is the enclosing simplex
S0 with a floor t >= t_tilde, cut down by subgradient planes t >= s.x + d
(Kelley's cutting-plane model).  It keeps only the lowest admitted t at
every binary point, not the cut rows: each cut is folded into those levels
as it arrives.  A cut taken at a binary point z is tight there (s.z + d =
f(z)), and for submodular f no valid cut rises above f(z) at z, so the
polyhedron fixes t at a cut point to that cut's value and folds later cuts
only into the binary points not cut yet.
"""

import numpy as np

from .setfn import BLOCK, indicator

DEGENERACY_TOL = 1e-12
# x lies in a simplex when every barycentric coordinate is >= -MEMBERSHIP_TOL
MEMBERSHIP_TOL = 1e-12
# radial subdivision replaces the vertices whose barycentric weight exceeds this
RADIAL_TOL = 1e-10


class DegenerateSimplexError(ValueError):
    pass


def _read_only(a):
    a.setflags(write=False)
    return a


class Simplex:
    """n+1 affinely independent vertices in n-space."""

    __slots__ = ("vertices", "n", "_minv")

    def __init__(self, vertices):
        V = np.array(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] + 1:
            raise ValueError("simplex needs n+1 vertices in n-space")
        if not np.all(np.isfinite(V)):
            raise ValueError("simplex vertices must be finite")
        n = V.shape[1]
        # |det| of the barycentric matrix equals |det| of the edge matrix
        M = np.vstack([V.T, np.ones(n + 1)])
        scale = float(np.prod(np.linalg.norm(V[1:] - V[0], axis=1)))
        if abs(np.linalg.det(M)) <= DEGENERACY_TOL * max(scale, 1e-300):
            raise DegenerateSimplexError("vertices are (nearly) affinely dependent")
        self.vertices = _read_only(V)
        self.n = n
        # lambda(x) = Minv @ (x; 1)
        self._minv = _read_only(np.linalg.inv(M))

    def replace_vertex(self, i, r, lam):
        """Child simplex with vertex i replaced by r, whose barycentric
        coordinates in this simplex are lam, sharing all other vertices.  The
        barycentric matrix is updated by a rank-one (Sherman-Morrison) step
        instead of a fresh factorization."""
        if abs(lam[i]) <= DEGENERACY_TOL:
            raise DegenerateSimplexError("replacement point lies on the opposite facet")
        V = self.vertices.copy()
        V[i] = r
        u = lam.copy()
        u[i] -= 1.0
        return Simplex._of(V, self._minv - np.outer(u, self._minv[i]) / lam[i])

    @staticmethod
    def _of(V, minv):
        """The simplex with vertices V and barycentric matrix minv, as
        given: no factorization and no degeneracy test."""
        S = object.__new__(Simplex)
        S.vertices = _read_only(V)
        S.n = V.shape[1]
        S._minv = _read_only(minv)
        return S

    def __repr__(self):
        return "Simplex(n=%d)" % self.n


def barycentric(S, x):
    """The unique lambda with sum(lambda) = 1 and sum(lambda_i v_i) = x, at
    a point x (n,) or for each row of a block (m, n); returns (n+1,) or
    (m, n+1)."""
    grid, h = _binary_grid_cache.get(S.n, (None, None))
    if x is not grid:  # the binary grid's homogeneous form is cached
        x = np.asarray(x, dtype=float)
        h = np.append(x, np.ones(x.shape[:-1] + (1,)), axis=-1)
    return h @ S._minv.T


def initial_simplex(n, v_mask=0):
    """Enclosing simplex of the unit cube anchored at the cube vertex v_mask.

    The apex a is the chosen cube vertex; the n remaining vertices are the
    points where the bounding hyperplane meets the cone edges leaving the
    apex, a + n sigma_i e_i: a step of length n along each coordinate
    direction, of sign sigma_i = +1 where a_i = 0 and -1 where a_i = 1.
    """
    apex = indicator(v_mask, n)
    return Simplex(apex + np.vstack([np.zeros(n), np.diag(n * (1.0 - 2.0 * apex))]))


def longest_edge(S):
    """Index pair (i, j), i < j, of the longest edge; lexicographic tie-break."""
    V = S.vertices
    m = len(V)
    diff = V[:, None, :] - V[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    iu = np.triu_indices(m, k=1)
    k = int(np.argmax(d2[iu]))  # first max: lexicographically smallest pair
    return int(iu[0][k]), int(iu[1][k])


def bisect(S):
    """Longest-edge bisection: the two children covering S, as (i, C)
    pairs with C the child whose vertex i is the edge's midpoint."""
    edge = longest_edge(S)
    V = S.vertices
    r = 0.5 * (V[edge[0]] + V[edge[1]])
    lam = barycentric(S, r)
    return [(i, S.replace_vertex(i, r, lam)) for i in edge]


def radial_subdivide(S, r, lam):
    """Partition S by joining the point r, with barycentric coordinates lam
    and not a vertex of S, to the opposite facets.

    Replaces each vertex i carrying barycentric weight > RADIAL_TOL by r,
    as (i, C) pairs; the simplices C cover S and overlap only on
    boundaries.
    """
    return [(i, S.replace_vertex(i, r, lam)) for i in np.nonzero(lam > RADIAL_TOL)[0].tolist()]


def subdivide(S, r, lam):
    """Split S at its point r, whose barycentric coordinates lam the
    caller already has: the radial subdivision at r, whose children all
    have r as a vertex, or the longest-edge bisection of S when r already
    is a vertex (a barycentric weight >= 1 - 1e-9).

    Returns the children as (i, C) pairs: C is S with its vertex i replaced
    by the split point (r, or the midpoint of the longest edge), so C
    shares every other vertex with S."""
    return bisect(S) if np.max(lam) >= 1.0 - 1e-9 else radial_subdivide(S, r, lam)


# n -> (binary_points(n), the homogeneous grid it views: those rows and a ones
# column), for the latest n only
_binary_grid_cache = {}


def binary_points(n):
    """All 2^n binary vectors as a read-only (2^n, n) array, mask-ascending
    rows: a view of the cached homogeneous grid.  Only the latest n's grid
    is cached, so a grid of another n is freed once no caller holds it."""
    if n not in _binary_grid_cache:
        _binary_grid_cache.clear()
        h = np.ones((1 << n, n + 1))
        h[:, :n] = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        _binary_grid_cache[n] = (_read_only(h[:, :n]), _read_only(h))
    return _binary_grid_cache[n][0]


# float64 entries (2 MB) of the temporary that evaluates a chunk of cuts at
# the binary points: a chunk has CHUNK_ENTRIES / (number of points) cuts, at
# least one.  Larger chunks are no faster and raise the peak memory of
# n <= 12 solves.
CHUNK_ENTRIES = 1 << 18


def _fold_cuts(s, d, X, t_lo):
    """t_lo raised in place to max(t_lo, max_j s_j.x + d_j) at each row x
    of X, for the cuts (s, d); returns t_lo."""
    step = max(1, CHUNK_ENTRIES // max(1, len(X)))
    for j in range(0, len(d), step):
        val = s[j:j + step] @ X.T  # s.x, one row per cut
        val += d[j:j + step, None]
        np.maximum(t_lo, np.max(val, axis=0), out=t_lo)
    return t_lo


class CutPointError(ValueError):
    """Cuts whose s is not one row of n per d, or cut points that are not
    one binary point per cut, each distinct and not cut before."""


class Polyhedron:
    """Kelley's cutting-plane model of the epigraph region over the simplex
    domain S0: {(x, t) : x in S0, t >= t_tilde, t >= s_j.x + d_j for all j},
    held by its levels at the binary points, not by its rows.

    t_lo holds the lowest t the polyhedron admits at every binary point x,
    in mask order: Kelley's max(t_tilde, max_j s_j.x + d_j), except at a cut
    point, one of the binary points cut marks.  There the cut is a tight
    subgradient of the Lovasz extension, which is exact at binary points, so
    no valid cut rises above it: t_lo at a cut point is final.  Every cut is
    taken at its own point, so the rows, the floor and one per cut, number
    1 + count_nonzero(cut).  A polyhedron never changes: add_cut returns a
    new one with both arrays brought up to date.
    """

    __slots__ = ("domain", "t_tilde", "t_lo", "cut")

    def __init__(self, domain, t_tilde):
        """The domain with the floor t >= t_tilde and no cuts."""
        self.domain, self.t_tilde = domain, float(t_tilde)
        self.t_lo = _read_only(np.full(1 << domain.n, self.t_tilde))
        self.cut = _read_only(np.zeros(1 << domain.n, dtype=bool))

    @property
    def num_rows(self):
        """The floor plus the cuts, one per cut point."""
        return 1 + int(np.count_nonzero(self.cut))

    def __repr__(self):
        return "Polyhedron(rows=%d)" % self.num_rows


def add_cut(P, s, d, masks):
    """P with the cuts t >= s_j.x + d_j added, the cut j taken at the
    binary point masks[j]: s of shape (k, n), d and masks of length k (or
    one cut as s of shape (n,), a scalar d and one mask).

    Each cut must be tight at its point, as the Lovasz-extension
    subgradients of ``solver.cutting_plane`` are.  The new cuts are folded
    into t_lo at once: at the points not cut yet, and at each new cut point
    as the larger of its value before and the cut's own value s.z + d.  The
    rows themselves are not kept.  A binary point is cut at most once: a
    mask outside the cube, given twice or cut before, or an s of another
    shape, raises CutPointError.
    """
    s, d = np.asarray(s, dtype=float), np.asarray(d, dtype=float)
    n = P.domain.n
    if s.shape[-1:] != (n,) or s.size != d.size * n:
        raise CutPointError("s has shape %s, not (%d, %d)" % (s.shape, d.size, n))
    masks = np.atleast_1d(masks)
    if masks.shape != (d.size,):
        raise CutPointError("%d cut points given for %d cuts" % (masks.size, d.size))
    if masks.dtype.kind not in "iu":
        raise CutPointError("cut points must be integer masks, got %s" % masks.dtype)
    outside = masks >> n  # nonzero for a negative mask or one >= 2^n
    if outside.any():
        raise CutPointError("cut point mask %d outside 0..%d"
                            % (masks[outside != 0][0], (1 << n) - 1))
    cut = P.cut.copy()
    cut[masks] = True
    if np.count_nonzero(cut) != np.count_nonzero(P.cut) + masks.size:
        m = next(m for i, m in enumerate(masks.tolist()) if P.cut[m] or m in masks[:i])
        raise CutPointError("cut point mask %d %s" % (m, "was cut before" if P.cut[m]
                                                      else "given twice"))
    # contiguous float rows, whatever s's layout, so the fold sums alike
    s, d = np.ascontiguousarray(s.reshape(-1, n)), d.reshape(-1)
    X = binary_points(n)
    at = np.flatnonzero(~cut)
    t_lo = P.t_lo.copy()
    t_lo[at] = _fold_cuts(s, d, X[at], t_lo[at])
    # each cut's own value s.z + d, BLOCK cuts at a time: the gathered
    # points never add a (k, n) copy to the rows
    own = np.empty(len(d))
    for b in range(0, len(d), BLOCK):
        own[b:b + BLOCK] = np.matmul(s[b:b + BLOCK, None, :],
                                     X[masks[b:b + BLOCK]][:, :, None])[:, 0, 0]
    own += d
    t_lo[masks] = np.maximum(t_lo[masks], own)
    Q = object.__new__(Polyhedron)
    Q.domain, Q.t_tilde = P.domain, P.t_tilde
    Q.t_lo, Q.cut = _read_only(t_lo), _read_only(cut)
    return Q
