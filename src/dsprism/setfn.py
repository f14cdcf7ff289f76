"""Set-function oracles, the Lovász extension and its subgradients, and
exhaustive minimizers.

Subsets of the ground set {0, ..., n-1} are represented as bitmasks
(bit i set <=> element i in the subset).  Oracles are pure: repeated
evaluation of the same subset returns bit-identical values.
"""

import numpy as np

from .numerics import least_squares, sym_eigs

ENUM_CAP = 24
CHECK_CAP = 12  # largest n of max_submodularity_violation, ds_decompose, bench --p
REPAIR_SLACK = 1e-9  # the violation ds_decompose leaves as is, and its margin on M


class GroundSetError(ValueError):
    pass


def is_integer(value):
    """A Python or numpy integer; a bool is an int to Python, but not here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(what, value):
    """value as an int; a GroundSetError names it unless it is an integer."""
    if not is_integer(value):
        raise GroundSetError("%s must be an integer, got %r" % (what, value))
    return int(value)


def ground_set_size(n):
    """n as an int; a GroundSetError names n unless it is an integer >= 1."""
    if not is_integer(n) or n < 1:
        raise GroundSetError("ground set size must be an integer >= 1, got %r" % (n,))
    return int(n)


def check_nonnegative(name, value):
    """A ValueError names value unless it is a finite real number >= 0
    (a bool is not a number here)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError("%s must be a number, got %r" % (name, value))
    if not (np.isfinite(value) and value >= 0):
        raise ValueError("%s must be finite and nonnegative, got %r" % (name, value))


def check_count(name, value):
    """A ValueError names value unless it is an integer >= 0 (a bool is not)."""
    if not is_integer(value):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < 0:
        raise ValueError("%s must be nonnegative, got %r" % (name, value))


def mask_of(elements):
    """Bitmask for an iterable of element indices."""
    m = 0
    for i in elements:
        i = _integer("element index", i)
        if i < 0:
            raise GroundSetError("element index %d is negative" % i)
        m |= 1 << i
    return m


def set_of(mask):
    """Sorted element indices of a bitmask."""
    mask = _integer("mask", mask)
    if mask < 0:
        raise GroundSetError("mask %d is negative; a subset mask is nonnegative" % mask)
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def indicator(mask, n):
    """Characteristic vector of a subset as a float array."""
    mask = _integer("mask", mask)
    if mask >> n:  # nonzero for a negative mask or one >= 2^n
        raise GroundSetError("mask %d outside ground set of size %d" % (mask, n))
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=float)


def same_ground_set(f, g):
    """The ground-set size n that the oracles f and g share; a
    GroundSetError when they differ."""
    if f.n != g.n:
        raise GroundSetError("oracles live on different ground sets")
    return f.n


class SetFunction:
    """A real-valued function on subsets of {0, ..., n-1}.

    ``fn`` maps a bitmask to a float; ``kernel`` maps a 1-d integer array of
    masks to their values at once.  Give either or both: without ``fn`` a
    point is the kernel on a one-mask array, without ``kernel`` a block is
    one ``fn`` call per mask.  ``__call__`` is the scalar API only: block
    evaluation (``values``) calls the kernel or ``fn`` directly, never
    ``__call__``, on either path.  ``spec`` keeps the constructor parameters,
    arrays as the read-only arrays the oracle holds; ``submodular`` records
    the direction claimed by the constructor (None when unknown).
    """

    __slots__ = ("n", "name", "_fn", "_kernel", "spec", "submodular", "table_values")

    def __init__(self, n, fn=None, name="custom", spec=None, submodular=None,
                 table_values=None, kernel=None):
        self.n = ground_set_size(n)
        if fn is None and kernel is None:
            raise ValueError("a set function needs fn or kernel")
        self._fn = fn
        self._kernel = kernel
        self.name = name
        self.spec = spec
        self.submodular = submodular
        self.table_values = table_values  # the values by mask, for table oracles

    def __call__(self, mask):
        # a Python int in, a Python float out; converting only what is not
        # one already halves the call's overhead
        if type(mask) is not int:
            mask = _integer("mask", mask)
        if mask >> self.n:
            raise GroundSetError("mask %d outside ground set of size %d" % (mask, self.n))
        fn = self._fn
        if fn is None:
            return float(self._kernel(np.array([mask], dtype=np.int64))[0])
        value = fn(mask)
        return value if type(value) is float else float(value)

    def values(self, masks):
        """Values at an integer array of masks, same shape, as floats: one
        kernel call, or one ``fn`` call per mask when there is no kernel.
        Every mask is range-checked before any is evaluated."""
        masks = np.asarray(masks)
        if masks.size == 0:
            return np.empty(masks.shape)
        if masks.dtype.kind not in "iu":
            raise GroundSetError("masks must be integers, got an array of %s" % masks.dtype)
        # nonzero for a negative mask or one >= 2^n; the block-sized test
        # array is freed before the kernel allocates, and rebuilt on error
        if (masks >> self.n).any():
            raise GroundSetError("mask %d outside ground set of size %d"
                                 % (masks[(masks >> self.n) != 0][0], self.n))
        if self._kernel is None:
            return np.fromiter(map(self._fn, masks.ravel().tolist()), dtype=float,
                               count=masks.size).reshape(masks.shape)
        return self._kernel(masks.ravel()).reshape(masks.shape)

    def __repr__(self):
        return "SetFunction(n=%d, %s)" % (self.n, self.name)


# masks per stacked numerics call in the matrix-oracle kernels, and (A, i, j)
# triples per gather in _max_second_difference
BLOCK = 4096


def _column_kernel(n, empty, block):
    """Kernel of a matrix oracle: value ``empty`` at the empty set, and
    ``block(cols)`` for the masks of one cardinality k >= 1, whose element
    indices, ascending, are the rows of the (m, k) array cols (m <= BLOCK)."""
    shifts = np.arange(n)

    def kernel(masks):
        out = np.full(len(masks), empty)
        card = np.bitwise_count(masks)
        for k in np.unique(card[card > 0]):
            pos = np.flatnonzero(card == k)
            for s in range(0, len(pos), BLOCK):
                at = pos[s:s + BLOCK]
                bits = (masks[at, None] >> shifts) & 1
                out[at] = block(np.nonzero(bits)[1].reshape(len(at), k))
        return out

    return kernel


# ---------------------------------------------------------------------------
# Library constructors


def _finite(name, values, ndim):
    """values as a new read-only float array with ndim axes; a ValueError names
    the shape, or the first non-finite entry by its index as ``name % index``."""
    a = np.array(values, dtype=float)
    if a.ndim != ndim:
        raise ValueError("%s must be %s, got shape %s" % (
            name.partition("[")[0], ("a number", "a vector", "a matrix")[ndim], a.shape))
    if not np.isfinite(a).all():
        at = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise ValueError("%s is %r; values must be finite" % (name % at, float(a[at])))
    a.setflags(write=False)
    return a


def _slice_sums(w):
    """Subset sums of w, one 256-entry list per 8-element slice (the last one
    2^(slice length) entries): entry b of slice k is the sum, in ascending
    index order from 0.0, of the w[8k + i] with bit i of b set."""
    tables = []
    for k in range(0, len(w), 8):
        tab = [0.0]
        for x in w[k:k + 8]:
            tab += [t + x for t in tab]
        tables.append(tab)
    return tables


def modular(weights):
    w = _finite("weights[%d]", weights, 1).tolist()
    tables = _slice_sums(w)

    def fn(mask):
        total = 0.0
        for tab in tables:
            total += tab[mask & 255]
            mask >>= 8
        return total

    return SetFunction(len(w), fn, "modular",
                       spec={"type": "modular", "weights": w},
                       submodular=True)


def cardinality_concave(n, phi):
    """phi applied to |A|; phi is a list of n+1 values, concave nondecreasing."""
    n = ground_set_size(n)
    phi = _finite("phi[%d]", phi, 1).tolist()
    if len(phi) != n + 1:
        raise ValueError("phi must have n+1 values")
    for k in range(n):
        if phi[k + 1] < phi[k] - 1e-12:
            raise ValueError("phi must be nondecreasing")
    for k in range(1, n):
        if phi[k + 1] - phi[k] > phi[k] - phi[k - 1] + 1e-12:
            raise ValueError("phi must be concave")

    def fn(mask):
        return phi[mask.bit_count()]

    return SetFunction(n, fn, "cardinality_concave",
                       spec={"type": "cardinality_concave", "phi": phi},
                       submodular=True)


# the 8 elements of a pair of 4-element slices (low slice: bits 0-3): for
# each of their 28 pairs i < j, 1.0 at the table indexes b that cut it
_PAIR_I, _PAIR_J = np.triu_indices(8, 1)
_PAIR_CUT = (((np.arange(256) >> _PAIR_I[:, None]) & 1)
             != ((np.arange(256) >> _PAIR_J[:, None]) & 1)).astype(float)


def cut(n, edges):
    """Graph cut: edges are (u, v, weight) with nonnegative weights.

    The ground set is split into 4-element slices, and each edge is charged
    to a pair of slices: the two slices it joins, or for an edge inside a
    slice one pair holding that slice.  A pair's table gives the cut weight
    of its edges for each of the 256 subsets of its 8 elements, so a value
    is one lookup per pair that carries an edge (for n <= 8 a single table
    of 2^n entries)."""
    n = ground_set_size(n)
    E = np.asarray(edges, dtype=float)
    if E.size == 0:
        E = E.reshape(0, 3)
    if E.ndim != 2 or E.shape[1] != 3:
        raise ValueError("edges must be (u, v, weight) triples")
    if not ((0 <= E[:, :2]) & (E[:, :2] < n)).all():
        raise ValueError("edge endpoint outside ground set")
    fractional = np.flatnonzero((E[:, :2] % 1.0 != 0.0).any(axis=1))
    if fractional.size:
        raise ValueError("edges[%d] is %r; endpoints must be integers"
                         % (fractional[0], E[fractional[0]].tolist()))
    u, v = E[:, 0].astype(np.int64), E[:, 1].astype(np.int64)
    w = _finite("weight of edges[%d]", E[:, 2], 1)
    if np.any(w < 0):
        raise ValueError("negative edge weight %g" % w[np.argmax(w < 0)])
    # slices lo < hi of each edge's pair: an edge inside slice a goes to
    # (a, a+1), or to (a-1, a) when a is the last of the m >= 2 slices
    m = max(2, (n + 3) >> 2)
    lo, hi = np.minimum(u, v) >> 2, np.maximum(u, v) >> 2
    hi = np.maximum(hi, np.minimum(lo + 1, m - 1))
    lo = np.minimum(lo, hi - 1)
    pairs, which = np.unique(lo * m + hi, return_inverse=True)
    # the endpoints' places among the pair's 8 elements (high slice: 4-7)
    pu = (u & 3) | ((u >> 2 == hi) << 2)
    pv = (v & 3) | ((v >> 2 == hi) << 2)
    W = np.zeros((len(pairs), 8, 8))
    np.add.at(W, (which, np.minimum(pu, pv), np.maximum(pu, pv)), w)  # self-loops: diagonal
    cuts = (W[:, _PAIR_I, _PAIR_J].T[:, :, None] * _PAIR_CUT[:, None, :]).sum(axis=0)
    # (shift of the low slice to bits 0-3, of the high one to bits 4-7, table)
    tables = [(int(p // m) << 2, (int(p % m) << 2) - 4, tab[:1 << min(n, 8)])
              for p, tab in zip(pairs.tolist(), cuts.tolist())]

    def fn(mask):
        total = 0.0
        for low, high, tab in tables:
            total += tab[((mask >> low) & 15) | ((mask >> high) & 240)]
        return total

    return SetFunction(n, fn, "cut",
                       spec={"type": "cut", "edges": [[a, b, c] for a, b, c in
                                                      zip(u.tolist(), v.tolist(), w.tolist())]},
                       submodular=True)


def nuclear(X, scale=1.0):
    """f(A) = scale * sum of singular values of the column submatrix X_A."""
    X = _finite("X[%d, %d]", X, 2)
    n = X.shape[1]
    scale = float(_finite("scale", scale, 0))
    if scale < 0:  # -||X_A||_* is supermodular
        raise ValueError("scale must be nonnegative, got %r" % scale)
    Xt = np.ascontiguousarray(X.T)

    def block(cols):
        Bt = Xt[cols]  # (m, k, rows): each row one column of X_A
        eigs = sym_eigs(Bt @ np.swapaxes(Bt, -1, -2))
        return scale * np.sum(np.sqrt(np.clip(eigs, 0.0, None)), axis=-1)

    return SetFunction(n, name="nuclear", kernel=_column_kernel(n, 0.0, block),
                       spec={"type": "nuclear", "X": X, "scale": scale},
                       submodular=True)


def neg_residual(X, y):
    """g(A) = -min_w ||y - X_A w||^2, the negated least-squares residual.

    Not submodular in general (the residual is not supermodular for a
    generic design), so it claims no direction; ``ds_decompose`` repairs a
    pair that uses it."""
    X = _finite("X[%d, %d]", X, 2)
    y = _finite("y[%d]", y, 1)
    if X.shape[0] != len(y):
        raise ValueError("X and y shapes are inconsistent")
    with np.errstate(over="ignore"):  # f(empty) = -||y||^2 is checked, not warned of
        empty = -float(_finite("||y||^2", y @ y, 0))
    n = X.shape[1]
    Xt = np.ascontiguousarray(X.T)

    def block(cols):
        _, res = least_squares(np.swapaxes(Xt[cols], -1, -2), y)
        return -res

    return SetFunction(n, name="neg_residual",
                       kernel=_column_kernel(n, empty, block),
                       spec={"type": "neg_residual", "X": X, "y": y})


def gaussian_entropy(sigma):
    """f(A) = 1/2 log det(2*pi*e * Sigma_AA), with f(empty) = 0."""
    S = _finite("sigma[%d, %d]", sigma, 2)
    if S.shape[0] != S.shape[1]:
        raise ValueError("sigma must be square")
    if not np.allclose(S, S.T, atol=1e-10):
        raise ValueError("sigma must be symmetric")
    eigs = sym_eigs(S)
    if eigs[0] <= 1e-12:
        raise ValueError("sigma must be positive definite")
    n = S.shape[0]

    def block(cols):
        vals = sym_eigs(S[cols[:, :, None], cols[:, None, :]])
        return 0.5 * np.sum(np.log(2.0 * np.pi * np.e * vals), axis=-1)

    return SetFunction(n, name="gaussian_entropy", kernel=_column_kernel(n, 0.0, block),
                       spec={"type": "gaussian_entropy", "sigma": S},
                       submodular=True)


def table(n, values):
    """Explicit table of 2^n finite values, indexed by mask: the oracle is its
    validated read-only array, held once (``table_values`` and
    ``spec["values"]``); a point is ``arr.item``, a block ``arr.__getitem__``."""
    # n is checked before the shift: 1 << n of a fraction fails, and of a
    # huge n never returns
    if not is_integer(n):
        ground_set_size(n)  # raises
    if not (1 <= n <= MASK_BITS and np.shape(values) == (1 << n,)):
        raise ValueError("a table on n = %d elements needs n >= 1 and 2^n values, got %d values"
                         % (n, np.size(values)))
    arr = _finite("set-function value at mask %d", values, 1)
    return SetFunction(n, arr.item, "table", spec={"type": "table", "values": arr},
                       table_values=arr, kernel=arr.__getitem__)


def coverage(n, item_weights, covers):
    """Weighted coverage: element i covers the universe items in covers[i];
    f(A) = total weight of the union of covered items.

    A value ORs one cover table per 8-element slice of A into the covered
    items, then sums one weight table per 8-item slice of those."""
    n = ground_set_size(n)
    w = _finite("item_weights[%d]", item_weights, 1)
    if np.any(w < 0):
        raise ValueError("coverage item weights must be nonnegative")
    w = w.tolist()
    if len(covers) != n:
        raise ValueError("covers must have one entry per ground element")
    cover_masks = []
    for i, items in enumerate(covers):
        cm = 0
        for u in items:
            if isinstance(u, (bool, np.bool_)) or not float(u).is_integer():
                raise ValueError("covers[%d] holds item %r; item indices must be integers"
                                 % (i, u))
            u = int(u)
            if not (0 <= u < len(w)):
                raise ValueError("covered item index out of range")
            cm |= 1 << u
        cover_masks.append(cm)
    cover_tables = []
    for k in range(0, n, 8):
        tab = [0]
        for cm in cover_masks[k:k + 8]:
            tab += [c | cm for c in tab]
        cover_tables.append(tab)
    weight_tables = _slice_sums(w)

    def fn(mask):
        covered = 0
        for tab in cover_tables:
            covered |= tab[mask & 255]
            mask >>= 8
        total = 0.0
        for tab in weight_tables:
            total += tab[covered & 255]
            covered >>= 8
        return total

    return SetFunction(n, fn, "coverage",
                       spec={"type": "coverage", "item_weights": w,
                             "covers": [set_of(cm) for cm in cover_masks]},
                       submodular=True)


def make_function(spec, n=None):
    """Build an oracle from a JSON-style spec dict."""
    kind = spec["type"]
    if kind == "modular":
        return modular(spec["weights"])
    if kind == "cardinality_concave":
        if n is None:
            n = spec.get("n", len(spec["phi"]) - 1)
        return cardinality_concave(n, spec["phi"])
    if kind == "cut":
        if n is None:
            raise ValueError("cut spec needs the ground-set size")
        return cut(n, spec["edges"])
    if kind == "nuclear":
        return nuclear(spec["X"], spec.get("scale", 1.0))
    if kind == "neg_residual":
        return neg_residual(spec["X"], spec["y"])
    if kind == "gaussian_entropy":
        return gaussian_entropy(spec["sigma"])
    if kind == "table":
        return table(len(spec["values"]).bit_length() - 1 if n is None else n, spec["values"])
    if kind == "coverage":
        if n is None:
            n = len(spec["covers"])
        return coverage(n, spec["item_weights"], spec["covers"])
    raise ValueError("unknown set-function type %r" % kind)


def as_table(oracle):
    """Materialize an oracle into a table-backed oracle with identical values;
    an oracle that has ``table_values`` already is returned as it is."""
    if oracle.table_values is not None:
        return oracle
    n = oracle.n
    if n > ENUM_CAP:
        raise GroundSetError("ground set too large to tabulate")
    out = table(n, oracle.values(np.arange(1 << n)))
    out.name = "table(%s)" % oracle.name
    out.submodular = oracle.submodular
    return out


# ---------------------------------------------------------------------------
# Lovász extension


MASK_BITS = 63  # the largest ground set whose masks fit an int64


def _bits(n):
    """1 << i for the n elements, as the int64 array the chain and set
    masks are built from; raises GroundSetError above MASK_BITS."""
    if n > MASK_BITS:
        raise GroundSetError("masks are int64, so the Lovasz extension needs n <= %d, "
                             "got n = %d" % (MASK_BITS, n))
    return np.left_shift(1, np.arange(n, dtype=np.int64))


def _masks_of(B):
    """The int64 masks of the rows of a binary block B."""
    return B.astype(np.int64) @ _bits(B.shape[-1])


def _chain_order(x):
    # nonincreasing values, ties broken by ascending index; one order per
    # row when x is a block of points
    return np.argsort(-np.asarray(x, dtype=float), axis=-1, kind="stable")


def _chain_values(oracle, order):
    """Values of the oracle along the prefix chain of an element order,
    starting from the empty set: n+1 values per order (last axis)."""
    chain = np.zeros(order.shape[:-1] + (order.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(_bits(order.shape[-1])[order], axis=-1, out=chain[..., 1:])
    return oracle.values(chain)


def chain_subgradient(oracle, order):
    """Edmonds' greedy chain: the differences of the oracle's values along
    the prefix chain of an element order, each put at the element that
    enters; one row per order when order is a (k, n) block.  It is the
    Lovasz subgradient at every point the order sorts nonincreasingly, and
    the modular lower bound of a submodular oracle tight along the chain."""
    order = np.asarray(order)
    s = np.empty(order.shape)
    np.put_along_axis(s, order, np.diff(_chain_values(oracle, order), axis=-1), axis=-1)
    return s


def lovasz(oracle, x):
    """Lovász extension value at a point x, or one value per row of a
    (k, n) block of points; offset by f(empty) so that the extension agrees
    with the set function at every characteristic vector."""
    x = np.asarray(x, dtype=float)
    n = oracle.n
    if x.shape[-1] != n:
        raise GroundSetError("point has wrong dimension")
    X = x.reshape(-1, n)
    out = np.empty(len(X))
    # exact at characteristic vectors: the chain sum telescopes to the set
    # value, so a binary row takes that one value without accumulating
    # rounding; every other row sums its chain with one x.diff dot (an
    # empty part costs nothing: values of no masks is an empty array)
    binary = ((X == 0.0) | (X == 1.0)).all(axis=1)
    out[binary] = oracle.values(_masks_of(X[binary]))
    R = X[~binary]
    order = _chain_order(R)
    cv = _chain_values(oracle, order)
    xo = R[np.arange(len(R))[:, None], order]
    diff = cv[:, 1:] - cv[:, :-1]
    out[~binary] = cv[:, 0] + np.matmul(xo[:, None, :], diff[:, :, None])[:, 0, 0]
    return float(out[0]) if x.ndim == 1 else out


def lovasz_subgradient(oracle, x):
    """Edmonds greedy subgradient of the Lovász extension at x, or one per
    row when x is a (k, n) block of points: ``chain_subgradient`` of each
    point's nonincreasing order, n + 1 oracle values per point."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != oracle.n:
        raise GroundSetError("point has wrong dimension")
    return chain_subgradient(oracle, _chain_order(x))


# ---------------------------------------------------------------------------
# Exhaustive minimization


def first_min(values):
    """(index, value) of the first minimum of a 1-d array: on ties the
    smallest index, the smallest mask when values are by mask."""
    j = int(np.argmin(values))
    return j, float(values[j])


def brute_force_min(oracle):
    """Exact minimizer over the oracle's table; ties to the smallest mask."""
    return first_min(as_table(oracle).table_values)


def brute_force_ds_min(f, g):
    """Exact minimizer of f - g over the tables; ties to the smallest mask."""
    same_ground_set(f, g)
    return first_min(as_table(f).table_values - as_table(g).table_values)


def max_submodularity_violation(oracle):
    """Largest four-point violation max(f(AuB)+f(AnB)-f(A)-f(B)); <= 0 means
    submodular.  Exhaustive, so only for small n."""
    n = oracle.n
    if n > CHECK_CAP:
        raise GroundSetError("four-point check is exhaustive; n too large")
    vals = as_table(oracle).table_values
    B = np.arange(1 << n)
    # 2^14 / 2^n sets A at a time: temporaries of at most 2^14 entries (128 KB),
    # which the allocator reuses where larger ones are mapped afresh
    rows = max(1, (1 << 14) >> n)
    return max(float(np.max(vals[A | B] + vals[A & B] - vals[A] - vals[B]))
               for A in (B[a:a + rows, None] for a in range(0, len(B), rows)))


def ds_decompose(f, g):
    """Valid difference-of-submodular decomposition of f - g.

    When g (or f) fails the four-point check, adds M * q with
    q(A) = |A| (n - |A|) to both sides.  q is submodular with four-point
    slack >= 2 on every incomparable pair, so M = violation / 2 repairs
    the pair while leaving the difference f - g unchanged.
    Returns (f', g', M); M = 0 means the inputs were returned as-is.

    The exhaustive check runs on each side whose ``_violation_bound``
    exceeds REPAIR_SLACK.  A side it skips has a violation of at most
    REPAIR_SLACK, which cannot set M, so M is the same float as from
    checking both sides.
    """
    n = same_ground_set(f, g)
    if n > CHECK_CAP:
        raise GroundSetError("ds_decompose may run the exhaustive four-point check, "
                             "so n <= %d; got n = %d" % (CHECK_CAP, n))
    ft, gt = as_table(f), as_table(g)
    viol = max((max_submodularity_violation(t) for t in (ft, gt)
                if _violation_bound(t.table_values, n) > REPAIR_SLACK), default=-np.inf)
    if viol <= REPAIR_SLACK:
        return ft, gt, 0.0
    M = 0.5 * viol * (1.0 + 1e-6) + REPAIR_SLACK
    card = np.bitwise_count(np.arange(1 << n))
    q = M * card * (n - card)
    f2 = table(n, ft.table_values + q)
    g2 = table(n, gt.table_values + q)
    f2.submodular = g2.submodular = True
    f2.name = "repaired(%s)" % f.name
    g2.name = "repaired(%s)" % g.name
    return f2, g2, M


def _insert_zeros(x, bit_i, bit_j):
    """x with a zero bit inserted at bit i, then one at bit j > i: the x-th
    mask, in ascending order, of those without i and j."""
    x = (x & (bit_i - 1)) | ((x & -bit_i) << 1)
    return (x & (bit_j - 1)) | ((x & -bit_j) << 1)


def _max_second_difference(vals, n):
    """Largest f(A+i+j) + f(A) - f(A+i) - f(A+j) over A and i < j outside A,
    each summed in that order, as the four-point check sums its pair
    (A+i, A+j); -inf when n < 2, and a NaN or overflowed sum is kept.  vals
    is the table by mask.  The n(n-1)/2 * 2^(n-2) triples (A, i, j) are
    gathered BLOCK at a time: several whole pairs (i, j) when n is small,
    a slice of one pair's sets A when it is large."""
    if n < 2:
        return -np.inf
    i, j = np.triu_indices(n, 1)
    bit_i, bit_j = np.left_shift(1, i)[:, None], np.left_shift(1, j)[:, None]
    per_pair = 1 << (n - 2)  # the sets A outside one pair
    cols = min(per_pair, BLOCK)
    rows = max(1, BLOCK // per_pair)
    low = np.arange(cols)
    best = -np.inf
    for p in range(0, len(i), rows):
        b_i, b_j = bit_i[p:p + rows], bit_j[p:p + rows]
        a = _insert_zeros(low, b_i, b_j)  # each pair's first cols sets A
        ai, aj = a | b_i, a | b_j
        aij = ai | b_j
        for s in range(0, per_pair, cols):
            # the s-th to (s+cols-1)-th sets A are the first cols ones plus one
            # offset (s > 0 only when the block is a single pair)
            v = vals[_insert_zeros(s, int(b_i[0, 0]), int(b_j[0, 0])):]
            best = np.maximum(best, np.max(v[aij] + v[a] - v[ai] - v[aj]))
    return float(best)


def _violation_bound(vals, n):
    """An upper bound on max_submodularity_violation of the table vals:
    k * max(d, 0) + 8 (k + 1) ulps of max|f|, with k = floor(n/2) * ceil(n/2)
    and d the largest local second difference (is_submodular's bracket).  A
    four-point difference telescopes into at most k second differences, and
    a four-term sum rounds by at most 4.5 ulps of max|f|, so the bound holds
    for the computed values too.  The rounding of this expression matters
    only where d > 3.5 max|f|, and there it is above 4 max|f|, which no
    four-point value exceeds."""
    k = (n // 2) * ((n + 1) // 2)
    ulp = np.finfo(float).eps * float(np.max(np.abs(vals)))
    return k * max(_max_second_difference(vals, n), 0.0) + 8.0 * (k + 1) * ulp


def is_submodular(oracle, tol=1e-9):
    """floor(n/2) * ceil(n/2) * max(d, 0) <= tol, d the largest local second
    difference f(A+i+j) + f(A) - f(A+i) - f(A+j) (Bach 2013, ch. 2).

    A four-point difference telescopes into |A - B| * |B - A| <=
    floor(n/2) * ceil(n/2) second differences, and each d is a four-point
    value, so True bounds max_submodularity_violation(oracle) by tol (up to
    rounding), and that many times max(violation, 0) <= tol answers True.
    A sum that overflows answers False; a tol that is not finite and
    nonnegative raises ValueError, and as_table raises on a non-finite
    value or n above ENUM_CAP."""
    check_nonnegative("tol", tol)
    n = oracle.n
    d = _max_second_difference(as_table(oracle).table_values, n)
    return (n // 2) * ((n + 1) // 2) * max(d, 0.0) <= tol  # max(nan, 0.0) is nan
