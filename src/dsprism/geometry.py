"""Simplices, prisms and polyhedra for the branch-and-bound search.

All values are immutable after construction; operations return fresh
objects.  The polyhedron lives in (x, t)-space and outer-approximates the
epigraph region {x in the cube, fhat(x) <= t}.
"""

import numpy as np

from .numerics import SingularMatrixError, det, lu_factor, lu_solve, lu_solve_factored
from .setfn import indicator

DEGENERACY_TOL = 1e-12
BARY_TOL = 1e-12


class DegenerateSimplexError(ValueError):
    pass


class Simplex:
    """n+1 affinely independent vertices in n-space."""

    __slots__ = ("vertices", "n", "_minv")

    def __init__(self, vertices):
        V = np.array(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] + 1:
            raise ValueError("simplex needs n+1 vertices in n-space")
        n = V.shape[1]
        # one factorization serves both the degeneracy test (|det| of the
        # barycentric matrix equals |det| of the edge matrix) and the inverse
        M = np.vstack([V.T, np.ones(n + 1)])
        scale = float(np.prod(np.linalg.norm(V[1:] - V[0], axis=1)))
        try:
            LU, piv = lu_factor(M)
        except SingularMatrixError:
            raise DegenerateSimplexError("vertices are (nearly) affinely dependent")
        d = float(np.prod(np.diag(LU)))
        if abs(d) <= DEGENERACY_TOL * max(scale, 1e-300):
            raise DegenerateSimplexError("vertices are (nearly) affinely dependent")
        V.setflags(write=False)
        self.vertices = V
        self.n = n
        # lambda(x) = Minv @ (x; 1)
        self._minv = lu_solve_factored(LU, piv, np.eye(n + 1))
        self._minv.setflags(write=False)

    def replace_vertex(self, i, r):
        """Child simplex with vertex i replaced by r, sharing all other
        vertices.  The barycentric matrix is updated by a rank-one
        (Sherman-Morrison) step instead of a fresh factorization."""
        lam = barycentric(self, r)
        if abs(lam[i]) <= DEGENERACY_TOL:
            raise DegenerateSimplexError("replacement point lies on the opposite facet")
        V = self.vertices.copy()
        V[i] = r
        u = lam.copy()
        u[i] -= 1.0
        minv = self._minv - np.outer(u, self._minv[i]) / lam[i]
        child = object.__new__(Simplex)
        V.setflags(write=False)
        minv.setflags(write=False)
        child.vertices = V
        child.n = self.n
        child._minv = minv
        return child

    def volume_measure(self):
        """|det| of the edge matrix (n! times the Euclidean volume)."""
        return abs(det((self.vertices[1:] - self.vertices[0]).T))

    def max_edge_length(self):
        V = self.vertices
        diff = V[:, None, :] - V[None, :, :]
        return float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))

    def barycentric_many(self, X):
        """Barycentric coordinates for the rows of X; returns (m, n+1)."""
        X = np.asarray(X, dtype=float)
        aug = np.hstack([X, np.ones((X.shape[0], 1))])
        return aug @ self._minv.T

    def contains(self, x, tol=BARY_TOL):
        return bool(np.min(barycentric(self, x)) >= -tol)

    def __repr__(self):
        return "Simplex(n=%d)" % self.n


class Prism:
    """Vertical extension of a simplex into (x, t)-space; t is unbounded."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def __repr__(self):
        return "Prism(%r)" % self.base


def barycentric(S, x):
    """The unique lambda with sum(lambda) = 1 and sum(lambda_i v_i) = x."""
    x = np.asarray(x, dtype=float)
    return S._minv @ np.append(x, 1.0)


def initial_simplex(n, v_mask=0):
    """Enclosing simplex of the unit cube anchored at the cube vertex v_mask.

    The apex is the chosen cube vertex; the n remaining vertices are the
    points where the bounding hyperplane meets the cone edges leaving the
    apex (a step of length n along each free coordinate direction).
    """
    apex = indicator(v_mask, n)
    verts = [apex]
    for i in range(n):
        d = np.zeros(n)
        d[i] = -1.0 if (v_mask >> i) & 1 else 1.0
        verts.append(apex + n * d)
    return Simplex(np.array(verts))


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
    """Longest-edge bisection; returns the two children covering S."""
    i1, i2 = longest_edge(S)
    V = S.vertices
    r = 0.5 * (V[i1] + V[i2])
    return S.replace_vertex(i1, r), S.replace_vertex(i2, r)


def radial_subdivide(S, r, tol=1e-10):
    """Partition S by joining an interior point r to the opposite facets.

    Replaces each vertex carrying barycentric weight > tol by r; the
    resulting simplices cover S and overlap only on boundaries.  Raises when
    r is (numerically) a vertex of S, where no proper partition exists.
    """
    lam = barycentric(S, r)
    keep = np.nonzero(lam > tol)[0]
    if len(keep) < 2:
        raise ValueError("subdivision point coincides with a vertex")
    return [S.replace_vertex(int(i), r) for i in keep]


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


_binary_grid_cache = {}


def binary_points(n):
    """All 2^n binary vectors as a (2^n, n) array, mask-ascending rows."""
    if n not in _binary_grid_cache:
        masks = np.arange(1 << n)
        grid = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        grid.setflags(write=False)
        _binary_grid_cache[n] = grid
    return _binary_grid_cache[n]


# float64 entries (2 MB) of the temporary that evaluates a chunk of rows at
# all 2^n binary points: a chunk has CHUNK_ENTRIES / 2^n rows, at least one.
# Larger chunks are no faster and raise the peak memory of n <= 12 solves.
CHUNK_ENTRIES = 1 << 18


def _fold_binary_bounds(A, a, b, bounds=None):
    """(viol, t_lo, t_hi) per binary point over the rows (A, a, b), folded
    into earlier bounds (None: over no rows), which are not modified: the
    worst t-free row violation A.x - b, the highest lower t-limit (a < 0)
    and the lowest upper t-limit (a > 0)."""
    n = A.shape[1]
    X = binary_points(n)
    if bounds is None:
        bounds = (np.full(1 << n, -np.inf), np.full(1 << n, -np.inf), np.full(1 << n, np.inf))
    viol, t_lo, t_hi = (v.copy() for v in bounds)
    step = max(1, CHUNK_ENTRIES >> n)
    for j in range(0, len(b), step):
        Aj, aj, bj = A[j:j + step], a[j:j + step], b[j:j + step]
        for sel, out, pick in ((aj == 0, viol, np.maximum), (aj < 0, t_lo, np.maximum),
                               (aj > 0, t_hi, np.minimum)):
            if not np.any(sel):
                continue
            val = Aj[sel] @ X.T  # A.x, one row per row of A
            if out is viol:
                val -= bj[sel, None]
            else:  # the t-limit (b - A.x) / a
                np.subtract(bj[sel, None], val, out=val)
                val /= aj[sel, None]
            pick(out, pick.reduce(val, axis=0), out=out)
    for v in (viol, t_lo, t_hi):
        v.setflags(write=False)
    return viol, t_lo, t_hi


class _RowStore:
    """Append-only rows A_j, a_j, b_j with capacity doubling, shared by the
    polyhedra grown from one another.  The per-binary-point bounds over the
    first ``cached`` rows are kept and extended lazily."""

    __slots__ = ("A", "a", "b", "size", "cached", "bounds")

    def __init__(self, A, a, b):
        self.A, self.a, self.b = A.copy(), a.copy(), b.copy()
        self.size = len(b)
        self.cached = 0
        self.bounds = None

    def append(self, A, a, b):
        k, m = self.size, len(b)
        if k + m > len(self.b):
            cap = max(2 * len(self.b), k + m)
            for name in ("A", "a", "b"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:])
                new[:k] = old[:k]
                setattr(self, name, new)
        self.A[k:k + m] = A
        self.a[k:k + m] = a
        self.b[k:k + m] = b
        self.size = k + m


class Polyhedron:
    """Conjunction of half-spaces A_j . x + a_j t <= b_j.

    A polyhedron is the first num_rows rows of an append-only row store.
    add_cut on the newest prefix of a store appends in place; on an older
    prefix it copies that prefix first, so a polyhedron never changes.
    """

    __slots__ = ("_store", "_k")

    def __init__(self, A, a, b):
        self._store = _RowStore(*(np.asarray(v, dtype=float) for v in (A, a, b)))
        self._k = self._store.size

    @classmethod
    def _prefix(cls, store, k):
        P = object.__new__(cls)
        P._store = store
        P._k = k
        return P

    def _rows(self, name):
        view = getattr(self._store, name)[:self._k]
        view.setflags(write=False)
        return view

    A = property(lambda self: self._rows("A"))
    a = property(lambda self: self._rows("a"))
    b = property(lambda self: self._rows("b"))

    @property
    def num_rows(self):
        return self._k

    def head(self, k):
        """The polyhedron of the first k rows, sharing this one's storage."""
        if not 0 <= k <= self._k:
            raise ValueError("prefix of %d rows out of 0..%d" % (k, self._k))
        return Polyhedron._prefix(self._store, k)

    def with_rows(self, A, a, b):
        """This polyhedron with the rows (A, a, b) appended."""
        store = self._store
        if self._k < store.size:
            store = _RowStore(self.A, self.a, self.b)
        store.append(A, a, b)
        return Polyhedron._prefix(store, store.size)

    def binary_bounds(self):
        """(viol, t_lo, t_hi) per binary point, in mask order: the worst
        violation of the t-free rows, the lowest t the rows with a < 0
        admit and the highest t the rows with a > 0 admit.

        Cached in the storage and extended over the rows appended since the
        last call; a query through a prefix shorter than the cache
        recomputes from scratch.  The arrays are read-only and never change.
        """
        store, k = self._store, self._k
        if k < store.cached:
            return _fold_binary_bounds(self.A, self.a, self.b)
        if store.bounds is None or k > store.cached:
            c = store.cached
            store.bounds = _fold_binary_bounds(store.A[c:k], store.a[c:k], store.b[c:k],
                                               store.bounds)
            store.cached = k
        return store.bounds

    def t_interval(self, x, tol=1e-9):
        """Feasible t-range at a fixed x, or None when the t-free rows reject x.

        Raises when no row bounds t from below (a_j < 0 is required).
        """
        x = np.asarray(x, dtype=float)
        a, b = self.a, self.b
        lhs = self.A @ x
        lo = -np.inf
        hi = np.inf
        has_lower = False
        for j in range(len(b)):
            aj = a[j]
            if aj == 0.0:
                if lhs[j] > b[j] + tol:
                    return None
            elif aj > 0.0:
                hi = min(hi, (b[j] - lhs[j]) / aj)
            else:
                lo = max(lo, (b[j] - lhs[j]) / aj)
                has_lower = True
        if not has_lower:
            raise ValueError("polyhedron does not bound t from below")
        return lo, hi

    def satisfies(self, x, t, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.A @ x + self.a * t <= self.b + tol))

    def __repr__(self):
        return "Polyhedron(rows=%d)" % self.num_rows


def initial_polyhedron(S0, t_tilde):
    """Rows encoding x in S0 (facet inequalities recovered from barycentric
    coordinates) plus the floor -t <= -t_tilde."""
    n = S0.n
    Minv = S0._minv
    rows_A = []
    rows_a = []
    rows_b = []
    for i in range(n + 1):
        # lambda_i(x) = Minv[i,:n].x + Minv[i,n] >= 0
        rows_A.append(-Minv[i, :n])
        rows_a.append(0.0)
        rows_b.append(Minv[i, n])
    rows_A.append(np.zeros(n))
    rows_a.append(-1.0)
    rows_b.append(-float(t_tilde))
    return Polyhedron(np.array(rows_A), rows_a, rows_b)


def add_cut(P, cut_row):
    """Append the row s.x + c*t <= -d encoding l(x,t) = s.x + c*t + d <= 0.

    A block of rows is s of shape (k, n) with c and d of length k.
    """
    s, c, d = (np.asarray(v, dtype=float) for v in cut_row)
    return P.with_rows(s.reshape(-1, s.shape[-1]), c.reshape(-1), -d.reshape(-1))
