"""Tests for set-function oracles and the Lovász extension layer."""

import re
import tracemalloc

import numpy as np
import pytest
from helpers import set_subgradient

from dsprism import setfn
from dsprism.experiments import gen_random_ds
from dsprism.setfn import (GroundSetError, as_table, brute_force_ds_min,
                           brute_force_min, ds_decompose, indicator, is_submodular,
                           lovasz, lovasz_subgradient, make_function, mask_of,
                           max_submodularity_violation, set_of)
from dsprism.solver import solve


def reference_lovasz(oracle, x):
    """Independent chain-sum oracle: sort by descending value (ties by
    ascending index) and accumulate marginal gains along the prefix chain."""
    n = oracle.n
    order = sorted(range(n), key=lambda i: (-x[i], i))
    total = oracle(0)
    mask = 0
    prev = oracle(0)
    for i in order:
        mask |= 1 << i
        cur = oracle(mask)
        total += x[i] * (cur - prev)
        prev = cur
    return total


def library_oracles(n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n + 4, n))
    y = rng.standard_normal(n + 4)
    M = rng.standard_normal((n, n))
    sigma = M @ M.T + n * np.eye(n)
    incs = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1]
    phi = np.concatenate([[0.0], np.cumsum(incs)])
    edges = [(u, v, float(rng.uniform(0.1, 1.0)))
             for u in range(n) for v in range(u + 1, n)]
    covers = [[u for u in range(2 * n) if rng.random() < 0.4] for _ in range(n)]
    return [
        setfn.modular(rng.normal(size=n)),
        setfn.cardinality_concave(n, phi),
        setfn.cut(n, edges),
        setfn.nuclear(X, scale=0.7),
        setfn.neg_residual(X, y),
        setfn.gaussian_entropy(sigma),
        setfn.table(n, rng.normal(size=1 << n)),
        setfn.coverage(n, rng.uniform(0.1, 1.0, size=2 * n), covers),
    ]


def test_mask_helpers():
    assert mask_of([0, 2, 3]) == 0b1101
    assert set_of(0b1101) == [0, 2, 3]
    assert set_of(0) == []
    assert np.array_equal(indicator(0b101, 3), [1.0, 0.0, 1.0])


@pytest.mark.parametrize("mask", [-1, -6, -(1 << 70)])
def test_set_of_rejects_a_negative_mask(mask):
    with pytest.raises(GroundSetError, match="mask %d is negative" % mask):
        set_of(mask)


@pytest.mark.parametrize("call, message", [
    (lambda: indicator(-1, 3), "mask -1 outside ground set of size 3"),
    (lambda: indicator(9, 3), "mask 9 outside ground set of size 3"),
    (lambda: indicator(-(1 << 70), 3), "mask -%d outside ground set" % (1 << 70)),
    (lambda: mask_of([0, -1]), "element index -1 is negative"),
    (lambda: indicator(1.5, 3), "mask must be an integer, got 1.5"),
    (lambda: set_of(2.5), "mask must be an integer, got 2.5"),
    (lambda: mask_of([2.5]), "element index must be an integer, got 2.5"),
    (lambda: mask_of([True]), "element index must be an integer, got True"),
    (lambda: setfn.modular([1.0, 2.0])(True), "mask must be an integer, got True"),
    (lambda: setfn.modular([1.0, 2.0])(2.0), "mask must be an integer, got 2.0"),
    (lambda: setfn.nuclear(np.eye(2))(np.bool_(True)), r"mask must be an integer, got np\.True_"),
], ids=["indicator_negative", "indicator_beyond_n", "indicator_huge_negative",
        "mask_of_negative", "indicator_fraction", "set_of_fraction", "mask_of_fraction",
        "mask_of_bool", "call_bool", "call_float", "kernel_call_bool"])
def test_mask_helpers_reject_what_no_subset_is(call, message):
    # a bool or a float is no subset, though >> and int() would take either
    with pytest.raises(GroundSetError, match=message):
        call()
    f = setfn.modular([1.0, 2.0])  # numpy integers stay masks
    assert f(np.int64(3)) == f(np.uint8(3)) == 3.0 and set_of(np.uint8(3)) == [0, 1]


def test_modular_and_cut_values():
    f = setfn.modular([1.0, -2.0, 0.5])
    assert f(0) == 0.0
    assert f(0b111) == pytest.approx(-0.5)
    c = setfn.cut(3, [(0, 1, 2.0), (1, 2, 1.0)])
    assert c(0) == 0.0
    assert c(0b010) == pytest.approx(3.0)
    assert c(0b111) == 0.0


def test_cut_rejects_negative_weight():
    with pytest.raises(ValueError):
        setfn.cut(2, [(0, 1, -1.0)])


def test_cardinality_concave_validation():
    with pytest.raises(ValueError):
        setfn.cardinality_concave(2, [0.0, 1.0, 3.0])  # convex increments
    with pytest.raises(ValueError):
        setfn.cardinality_concave(2, [0.0, -1.0, -1.5])  # decreasing


def test_nuclear_matches_svd():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 4))
    f = setfn.nuclear(X, scale=2.0)
    for mask in range(1 << 4):
        cols = set_of(mask)
        want = 2.0 * np.sum(np.linalg.svd(X[:, cols], compute_uv=False)) if cols else 0.0
        assert f(mask) == pytest.approx(want, abs=1e-8)


def test_neg_residual_values():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    g = setfn.neg_residual(X, y)
    assert g(0) == pytest.approx(-float(y @ y))
    _, res, _, _ = np.linalg.lstsq(X, y, rcond=None)
    assert g(0b111) == pytest.approx(-float(res[0]), abs=1e-6)


def matrix_oracles(n=6, seed=11):
    """name -> (oracle, per-mask reference) for each matrix oracle,
    including rank-deficient and wide (rows < k) regression designs."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n + 4, n))
    y = rng.standard_normal(n + 4)
    deficient = X.copy()
    deficient[:, 3] = deficient[:, 0] - 2.0 * deficient[:, 1]
    deficient[:, 5] = 0.0
    M = rng.standard_normal((n, n))
    sigma = M @ M.T + n * np.eye(n)

    def nuclear_ref(mask):
        B = X[:, set_of(mask)]
        return 0.7 * float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(B.T @ B), 0.0, None))))

    def residual_ref(X, y):
        def ref(mask):
            B = X[:, set_of(mask)]
            r = y - B @ np.linalg.lstsq(B, y, rcond=None)[0]
            return -float(r @ r)
        return ref

    def entropy_ref(mask):
        idx = set_of(mask)
        sign, logdet = np.linalg.slogdet(2.0 * np.pi * np.e * sigma[np.ix_(idx, idx)])
        assert sign > 0
        return 0.5 * logdet

    return {
        "nuclear": (setfn.nuclear(X, scale=0.7), nuclear_ref),
        "neg_residual": (setfn.neg_residual(X, y), residual_ref(X, y)),
        "neg_residual_deficient": (setfn.neg_residual(deficient, y), residual_ref(deficient, y)),
        "neg_residual_wide": (setfn.neg_residual(X[:4], y[:4]), residual_ref(X[:4], y[:4])),
        "gaussian_entropy": (setfn.gaussian_entropy(sigma), entropy_ref),
    }


MATRIX_CASES = list(matrix_oracles())


@pytest.mark.parametrize("case", MATRIX_CASES)
def test_matrix_oracle_block_equals_points_bitwise(case, monkeypatch):
    # a block is grouped by cardinality into stacked numerics calls; each
    # point is the same kernel on a one-mask array, so they agree exactly
    f, _ = matrix_oracles()[case]
    rng = np.random.default_rng(MATRIX_CASES.index(case))
    masks = np.concatenate([rng.permutation(1 << f.n), rng.integers(0, 1 << f.n, size=41),
                            [0, 0, (1 << f.n) - 1]])
    block = f.values(masks)
    assert np.array_equal(block, [f(int(m)) for m in masks])
    assert np.array_equal(f.values(masks.reshape(-1, 3)), block.reshape(-1, 3))
    monkeypatch.setattr(setfn, "BLOCK", 4)  # groups split into stacks of <= 4
    assert np.array_equal(f.values(masks), block)


@pytest.mark.parametrize("case", MATRIX_CASES)
def test_matrix_oracle_block_matches_per_mask_reference(case):
    f, ref = matrix_oracles()[case]
    got = f.values(np.arange(1 << f.n))
    want = np.array([ref(m) for m in range(1 << f.n)])
    # relative per value; the residual relative to ||y||^2 = |g(empty)|,
    # since a wide design fits y exactly
    scale = abs(want[0]) if f.name == "neg_residual" else np.abs(want)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("case", MATRIX_CASES)
@pytest.mark.parametrize("mask", [-1, 1 << 6])
def test_matrix_oracle_values_rejects_masks_outside_ground_set(case, mask):
    f, _ = matrix_oracles()[case]
    with pytest.raises(GroundSetError, match="mask %d outside" % mask):
        f.values(np.array([3, mask]))


@pytest.mark.parametrize("make", [lambda X, y: setfn.nuclear(X), setfn.neg_residual],
                         ids=["nuclear", "neg_residual"])
def test_matrix_oracle_tabulation_n14_memory(make):
    # stacked calls see at most setfn.BLOCK masks, so the temporaries stay
    # bounded whatever the number of masks of one cardinality
    n = 14
    rng = np.random.default_rng(n)
    X = rng.standard_normal((40, n))
    y = rng.standard_normal(40)
    oracle = make(X, y)
    tracemalloc.start()
    try:
        t = as_table(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    masks = rng.integers(0, 1 << n, size=20)
    assert np.array_equal(t.table_values[masks], [oracle(int(m)) for m in masks])
    assert peak < 64 * 2 ** 20


def test_gaussian_entropy_submodular():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((5, 5))
    f = setfn.gaussian_entropy(M @ M.T + 5 * np.eye(5))
    assert is_submodular(as_table(f))


def lower_only(k, i, j):
    """The k x k identity with 0.5 at (i, j) only, i > j."""
    S = np.eye(k)
    S[i, j] = 0.5
    return S


@pytest.mark.parametrize("sigma", [[[0.0, 1.0], [0.0, 0.0]], lower_only(4, 3, 1),
                                   lower_only(2, 1, 0) + 2e-10 * np.eye(2)[::-1]],
                         ids=["upper_only", "one_block_of_four", "above_1e-10"])
def test_gaussian_entropy_rejects_an_asymmetric_sigma(sigma):
    # the one symmetry check: sym_eigs reads only the lower triangle
    with pytest.raises(ValueError, match="sigma must be symmetric"):
        setfn.gaussian_entropy(sigma)


def test_table_values_are_read_only():
    # scalar calls and blocks read the one array, a copy of the caller's
    values = np.array([0.0, 1.0, 2.0, 3.0])
    t = setfn.table(2, values)
    with pytest.raises(ValueError):
        t.table_values[1] = 9.0
    values[1] = 9.0
    assert t(1) == t.values(np.array([1]))[0] == lovasz(t, np.array([1.0, 0.0])) == 1.0
    # a point is a Python float with the bits of its entry
    t = setfn.table(4, np.random.default_rng(1).normal(size=16))
    for m in [*range(16), np.int64(5), np.uint8(7)]:
        v = t(m)
        assert type(v) is float and np.float64(v).tobytes() == t.table_values[m].tobytes()


def test_a_table_holds_its_values_once():
    # the validated array is the whole table: no list of Python floats
    # (about 2 MiB at n = 16) beside its 512 KiB, and the spec is that array
    values = np.random.default_rng(0).normal(size=1 << 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = setfn.table(16, values)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * values.nbytes
    assert t.spec["values"] is t.table_values


@pytest.mark.parametrize("oracle", library_oracles(3), ids=lambda f: f.name)
def test_array_valued_spec_entries_are_read_only(oracle):
    # the matrix oracles and tables keep their validated arrays in the spec
    arrays = [v for v in oracle.spec.values() if isinstance(v, np.ndarray)]
    assert bool(arrays) == (oracle.name in ("nuclear", "neg_residual", "gaussian_entropy",
                                            "table"))
    for a in arrays:
        assert not a.flags.writeable


def test_table_roundtrip_and_spec():
    vals = [0.0, 1.5, -2.0, 0.25]
    t = setfn.table(2, vals)
    assert [t(m) for m in range(4)] == vals
    rebuilt = make_function(t.spec)
    assert [rebuilt(m) for m in range(4)] == vals


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_with_mask(bad):
    vals = [0.0, 1.0, 2.0, 3.0, 4.0, bad, 6.0, bad]
    with pytest.raises(ValueError, match="mask 5 "):
        setfn.table(3, vals)
    # an oracle that computes a non-finite value fails when tabulated, also
    # by brute force, which reads the table
    f = setfn.SetFunction(3, lambda m: vals[m], name="bad")
    for tabulate in (as_table, brute_force_min):
        with pytest.raises(ValueError, match="mask 5 "):
            tabulate(f)


def test_coverage_values():
    f = setfn.coverage(2, [1.0, 2.0, 4.0], [[0, 1], [1, 2]])
    assert f(0) == 0.0
    assert f(0b01) == 3.0
    assert f(0b10) == 6.0
    assert f(0b11) == 7.0


def test_make_function_all_kinds():
    for f in library_oracles(3):
        g = make_function(f.spec, n=3)
        for m in range(8):
            assert g(m) == pytest.approx(f(m), abs=1e-9)


def test_ground_set_errors():
    f = setfn.modular([1.0, 2.0])
    with pytest.raises(GroundSetError):
        f(0b100)
    with pytest.raises(GroundSetError):
        lovasz(f, np.array([0.5, 0.5, 0.5]))


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None, np.nan, 0, -1])
def test_set_function_size_is_an_integer_of_at_least_one(n):
    # a bool is an int to Python, and 2.5 built a 2-element oracle
    with pytest.raises(GroundSetError, match=r"ground set size must be an integer >= 1, got "
                       + re.escape(repr(n))):
        setfn.SetFunction(n, lambda m: 0.0)
    assert setfn.SetFunction(np.int64(2), lambda m: 0.0).n == 2


@pytest.mark.parametrize("make, n", [
    (lambda n: setfn.cut(n, [(0, 1, 1.0)]), 2.5),
    (lambda n: setfn.table(n, [0.0, 1.0, 2.0, 3.0]), 2.0),
    (lambda n: gen_random_ds(n, "cut_minus_modular", 0), 2.5),
    (lambda n: setfn.coverage(n, [1.0], [[0], [0]]), 2.0),
    (lambda n: setfn.cardinality_concave(n, [0.0, 1.0, 1.5]), 2.0),
], ids=["cut", "table", "gen_random_ds", "coverage", "cardinality_concave"])
def test_a_fractional_ground_set_size_is_refused_first(make, n):
    # each shifted, seeded or ranged with n first and ended in a bare TypeError
    with pytest.raises(GroundSetError, match=re.escape(
            "ground set size must be an integer >= 1, got %r" % n)):
        make(n)


@pytest.mark.parametrize("n, binary", [(64, False), (64, True), (70, True)])
def test_lovasz_names_its_int64_mask_limit(n, binary):
    # chain and set masks are int64 and would overflow above 63 elements
    rng = np.random.default_rng(n)
    f = setfn.modular(rng.normal(size=n))
    x = rng.integers(0, 2, size=n).astype(float) if binary else rng.random(n)
    for call in (lovasz, lovasz_subgradient):
        with pytest.raises(GroundSetError, match="n <= 63, got n = %d" % n):
            call(f, x)


def test_lovasz_at_63_elements():
    rng = np.random.default_rng(63)
    w = rng.normal(size=63)
    f = setfn.modular(w)
    for x in (rng.random(63), rng.integers(0, 2, size=63).astype(float)):
        assert lovasz(f, x) == pytest.approx(float(w @ x), abs=1e-9)
        assert np.allclose(lovasz_subgradient(f, x), w, rtol=0.0, atol=1e-12)


def test_lovasz_exact_at_characteristic_vectors():
    for f in library_oracles(4, seed=1):
        for mask in range(1 << 4):
            assert lovasz(f, indicator(mask, 4)) == f(mask)  # bit-exact


def test_lovasz_matches_reference_on_random_points():
    rng = np.random.default_rng(10)
    for f in library_oracles(4, seed=2):
        for _ in range(25):
            x = rng.uniform(-1.0, 2.0, size=4)
            assert lovasz(f, x) == pytest.approx(reference_lovasz(f, x), abs=1e-8)


def test_lovasz_block_matches_points_bitwise():
    rng = np.random.default_rng(14)
    n = 5
    binary = np.array([indicator(int(m), n) for m in rng.permutation(1 << n)[:6]])
    other = rng.uniform(-0.5, 1.5, size=(6, n))
    other[0] = [0.0, 1.0, 0.5, 1.0, 0.0]  # one fractional entry
    mixed = np.vstack([binary, other])[rng.permutation(12)]
    for f in library_oracles(n, seed=4):
        for X in (binary, other, mixed):
            got = lovasz(f, X)
            assert got.shape == (len(X),)
            assert np.array_equal(got, [lovasz(f, x) for x in X])


def test_lovasz_binary_row_costs_one_evaluation():
    f = setfn.coverage(4, [0.5, 1.0, 0.25], [[0], [0, 1], [2], [1, 2]])
    calls = []
    counted = setfn.SetFunction(4, lambda m: calls.append(m) or f(m))
    X = np.array([indicator(0b1010, 4), [0.5, 0.0, 1.0, 0.0], indicator(0b0111, 4)])
    assert np.array_equal(lovasz(counted, X), [f(0b1010), lovasz(f, X[1]), f(0b0111)])
    assert sorted(calls) == sorted([0b1010, 0b0111] + [0, 0b0100, 0b0101, 0b0111, 0b1111])
    calls.clear()
    assert lovasz(counted, X[0]) == f(0b1010)
    assert calls == [0b1010]


def test_lovasz_tie_break_descending_value_ascending_index():
    # at a point with equal coordinates the chain must follow index order
    f = setfn.table(3, [0.0, 5.0, 1.0, 2.0, 1.0, 3.0, 4.0, 6.0])
    x = np.array([0.5, 0.5, 0.5])
    # chain 0 -> {0} -> {0,1} -> {0,1,2}
    want = f(0) + 0.5 * (f(1) - f(0)) + 0.5 * (f(3) - f(1)) + 0.5 * (f(7) - f(3))
    assert lovasz(f, x) == pytest.approx(want)


def test_subgradient_supports_extension():
    rng = np.random.default_rng(11)
    for f in library_oracles(4, seed=3):
        for _ in range(50):
            x = rng.uniform(0.0, 1.0, size=4)
            y = rng.uniform(0.0, 1.0, size=4)
            s = lovasz_subgradient(f, x)
            fx = lovasz(f, x)
            # tightness at x and (for submodular f) the support inequality
            assert fx == pytest.approx(f(0) + float(s @ x), abs=1e-9)
            if is_submodular(as_table(f), tol=1e-9):
                assert lovasz(f, y) >= fx + float(s @ (y - x)) - 1e-9


def test_brute_force_min_and_ties():
    f = setfn.table(2, [1.0, 0.0, 0.0, 2.0])
    mask, val = brute_force_min(f)
    assert (mask, val) == (1, 0.0)  # smallest mask among ties
    g = setfn.modular([0.0, 0.0])
    mask, val = brute_force_ds_min(f, g)
    assert (mask, val) == (1, 0.0)


def test_brute_force_ds_min_matches_exhaustive():
    rng = np.random.default_rng(12)
    f = setfn.table(4, rng.normal(size=16))
    g = setfn.table(4, rng.normal(size=16))
    mask, val = brute_force_ds_min(f, g)
    vals = [f(m) - g(m) for m in range(16)]
    assert val == min(vals)
    assert mask == int(np.argmin(vals))


def test_is_submodular_and_violation():
    cutf = setfn.cut(4, [(0, 1, 1.0), (2, 3, 0.5), (0, 3, 0.25)])
    assert is_submodular(as_table(cutf))
    assert max_submodularity_violation(as_table(cutf)) <= 1e-12
    # a supermodular function fails
    sup = setfn.table(2, [0.0, 0.0, 0.0, 1.0])
    assert not is_submodular(sup)
    assert max_submodularity_violation(sup) == pytest.approx(1.0)


def test_ds_decompose_repairs_pair_and_preserves_difference():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((9, 5))
    y = rng.standard_normal(9)
    f = setfn.nuclear(X, scale=0.5)
    g = setfn.neg_residual(X, y)
    f2, g2, M = ds_decompose(f, g)
    assert is_submodular(f2, tol=1e-9)
    assert is_submodular(g2, tol=1e-9)
    for m in range(1 << 5):
        assert f2(m) - g2(m) == pytest.approx(f(m) - g(m), abs=1e-9)
    # an already-submodular pair is passed through unchanged
    fa, ga, M0 = ds_decompose(setfn.modular([1.0, -1.0]), setfn.cut(2, [(0, 1, 1.0)]))
    assert M0 == 0.0


def test_neg_residual_claims_no_direction():
    # the raw residual term is not supermodular for a generic design, so its
    # negation is not submodular and must not say it is
    rng = np.random.default_rng(21)
    for _ in range(5):
        X = rng.standard_normal((9, 5))
        y = rng.standard_normal(9)
        g = setfn.neg_residual(X, y)
        assert max_submodularity_violation(g) > 1e-6
        assert g.submodular is not True
        assert as_table(g).submodular is not True


def test_as_table_preserves_values():
    f = setfn.cut(4, [(0, 2, 1.0), (1, 3, 2.0)])
    t = as_table(f)
    for m in range(16):
        assert t(m) == f(m)
    assert t.submodular is True
    # a table passes through as it is: same object, name and flag
    assert as_table(t) is t and t.name == "table(cut)" and t.submodular is True
    raw = setfn.table(2, [0.0, 1.0, 2.0, 3.0])
    assert as_table(raw) is raw and raw.name == "table" and raw.submodular is None


def test_values_is_one_lookup_or_one_call_per_mask():
    f = setfn.cut(4, [(0, 2, 1.0), (1, 3, 2.0)])
    masks = np.array([[0, 5], [15, 3]])
    want = np.array([[f(0), f(5)], [f(15), f(3)]])
    calls = []
    counted = setfn.SetFunction(4, lambda m: calls.append(m) or f(m))
    for oracle in (f, as_table(f), counted):
        got = oracle.values(masks)
        assert got.shape == masks.shape and np.array_equal(got, want)
    assert calls == [0, 5, 15, 3]


@pytest.mark.parametrize("mask", [-1, 16])
def test_values_rejects_masks_outside_ground_set(mask):
    f = setfn.cut(4, [(0, 2, 1.0), (1, 3, 2.0)])
    calls = []
    counted = setfn.SetFunction(4, lambda m: calls.append(m) or f(m))
    for oracle in (f, as_table(f), counted):
        with pytest.raises(GroundSetError, match="mask %d outside" % mask):
            oracle.values(np.array([3, mask]))
    assert calls == []  # every mask is checked before fn sees any


def test_values_frees_its_range_check_before_the_kernel_runs():
    masks = np.arange(1 << 16)
    held = []

    def kernel(m):
        held.append(tracemalloc.get_traced_memory()[0] - before)
        return m.astype(float)

    f = setfn.SetFunction(16, kernel=kernel)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert np.array_equal(f.values(masks), masks)
    finally:
        tracemalloc.stop()
    assert held[0] < masks.nbytes // 2


def test_values_of_no_masks_is_an_empty_float_array():
    f = setfn.cut(4, [(0, 2, 1.0), (1, 3, 2.0)])
    oracles = (f, as_table(f), setfn.modular([1.0, -2.0]), setfn.nuclear(np.eye(3)))
    for oracle in oracles:
        for masks in ([], np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)):
            got = oracle.values(masks)
            assert got.dtype == np.float64 and got.shape == np.shape(masks)


@pytest.mark.parametrize("masks", [[1.0], np.array([3.0, 1.5]), np.array([True, False]),
                                   np.array(["1"])], ids=["float", "fraction", "bool", "str"])
def test_values_rejects_masks_that_are_not_integers(masks):
    f = setfn.cut(4, [(0, 2, 1.0), (1, 3, 2.0)])
    for oracle in (f, as_table(f), setfn.nuclear(np.eye(4))):
        with pytest.raises(GroundSetError, match="masks must be integers"):
            oracle.values(masks)


@pytest.mark.parametrize("kind", [float, int, np.float64])
def test_kernel_less_values_are_the_float_of_fn_bitwise(kind):
    rng = np.random.default_rng(12)
    vals = rng.normal(scale=1e3, size=64).tolist()
    vals[:3] = [2 ** 53 + 1, 10 ** 20 + 1, -0.0]  # ints that round, a signed zero

    def fn(mask):
        return kind(vals[mask])

    f = setfn.SetFunction(6, fn)
    masks = rng.integers(0, 64, size=(5, 7))
    masks[0, :3] = [0, 1, 2]
    want = np.array([float(fn(m)) for m in masks.ravel().tolist()]).reshape(masks.shape)
    got = f.values(masks)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The bit-operation oracles against their definitions


def bit_oracle_cases(n, seed):
    """(oracle, reference values at an array of masks, scale of the terms)
    for cut, modular, coverage and cardinality_concave; the references loop
    over edges, elements and covered items as the definitions read."""
    rng = np.random.default_rng(seed)
    # edges inside a 4-element slice and across slices, a parallel pair,
    # a self-loop and endpoints given in both orders
    edges = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0.0, 2.0)))
             for _ in range(3 * n)]
    edges += [(0, n - 1, 0.5), (n - 1, 0, 0.25), (n // 2, n // 2, 7.0)]
    w = rng.normal(size=n)
    items = n + 5
    item_w = rng.uniform(0.0, 1.0, size=items)
    covers = [[u for u in range(items) if rng.random() < 0.3] for _ in range(n)]
    phi = np.concatenate([[0.0], np.cumsum(np.sort(rng.uniform(0.1, 1.0, size=n))[::-1])])

    def bit(masks, i):
        return (masks >> i) & 1

    def cut_ref(masks):
        return sum((c * (bit(masks, u) != bit(masks, v)) for u, v, c in edges), 0.0)

    def modular_ref(masks):
        return sum((w[i] * bit(masks, i) for i in range(n)), 0.0)

    def coverage_ref(masks):
        covered = [sum(bit(masks, i) for i in range(n) if u in covers[i]) > 0
                   for u in range(items)]
        return sum((item_w[u] * covered[u] for u in range(items)), 0.0)

    def card_ref(masks):
        return phi[sum(bit(masks, i) for i in range(n))]

    return [(setfn.cut(n, edges), cut_ref, sum(c for _, _, c in edges)),
            (setfn.modular(w), modular_ref, np.abs(w).sum()),
            (setfn.coverage(n, item_w, covers), coverage_ref, item_w.sum()),
            (setfn.cardinality_concave(n, phi), card_ref, phi[-1])]


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 12, 13])
def test_bit_oracles_match_definition_at_every_mask(n):
    masks = np.arange(1 << n)
    for oracle, ref, scale in bit_oracle_cases(n, seed=n):
        got = [oracle(m) for m in masks.tolist()]
        assert np.allclose(got, ref(masks), rtol=0.0, atol=1e-12 * (1.0 + scale)), oracle.name
        assert [oracle(m) for m in masks.tolist()] == got  # repeats are bit-identical
        rebuilt = make_function(oracle.spec, n=n)
        assert [rebuilt(m) for m in masks.tolist()] == got


def test_cut_edge_cases():
    c = setfn.cut(5, [(1, 0, 1.0), (0, 1, 2.0), (2, 2, 5.0), (3, 4, 0.5), (4, 1, 0.25)])
    assert c(0b00000) == 0.0
    assert c(0b00001) == 3.0  # parallel edges, one given reversed
    assert c(0b00100) == 0.0  # a self-loop is never cut
    assert c(0b01000) == 0.5  # across the first two 4-element slices
    assert c(0b10010) == 3.5
    # n = 30: eight slices, pairs of slices far apart, random masks
    rng = np.random.default_rng(3)
    edges = [(u, (u + 1) % 30, 1.0) for u in range(30)]
    edges += [(int(rng.integers(30)), int(rng.integers(30)), float(rng.uniform()))
              for _ in range(40)]
    c = setfn.cut(30, edges)
    for m in rng.integers(0, 1 << 30, size=50).tolist() + [0, (1 << 30) - 1]:
        want = sum(x for u, v, x in edges if ((m >> u) & 1) != ((m >> v) & 1))
        assert c(m) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_solve_tabulates_each_kernelless_oracle_once():
    # as perfbench wraps oracles: a counting fn and no kernel
    n = 6
    f = bit_oracle_cases(n, seed=0)[0][0]
    g = setfn.modular(np.linspace(-1.0, 1.0, n))
    calls = {"f": 0, "g": 0}

    def counted(oracle, key):
        def fn(m):
            calls[key] += 1
            return oracle(m)
        return setfn.SetFunction(n, fn)

    rep = solve(counted(f, "f"), counted(g, "g"))
    assert calls == {"f": 1 << n, "g": 1 << n}
    assert rep.optimal_value == pytest.approx(brute_force_ds_min(f, g)[1], abs=1e-9)


@pytest.mark.parametrize("build, message", [
    (lambda bad: setfn.cut(3, [(0, 1, 1.0), (1, 2, bad)]), r"weight of edges\[1\] is"),
    (lambda bad: setfn.modular([1.0, bad]), r"weights\[1\] is"),
    (lambda bad: setfn.coverage(2, [bad, 1.0], [[0], [1]]), r"item_weights\[0\] is"),
    (lambda bad: setfn.cardinality_concave(2, [0.0, bad, 1.0]), r"phi\[1\] is"),
    (lambda bad: setfn.nuclear([[1.0, 0.0], [0.0, bad]]), r"X\[1, 1\] is"),
    (lambda bad: setfn.nuclear(np.eye(2), scale=bad), r"^scale is"),
    (lambda bad: setfn.neg_residual([[1.0, bad]], [1.0]), r"X\[0, 1\] is"),
    (lambda bad: setfn.neg_residual(np.eye(2), [bad, 1.0]), r"y\[0\] is"),
    (lambda bad: setfn.gaussian_entropy([[1.0, bad], [bad, 1.0]]), r"sigma\[0, 1\] is"),
], ids=["cut", "modular", "coverage", "cardinality_concave", "nuclear_X", "nuclear_scale",
        "neg_residual_X", "neg_residual_y", "gaussian_entropy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructors_reject_non_finite_parameters(build, message, bad):
    with pytest.raises(ValueError, match=message):
        build(bad)


def test_nuclear_refuses_a_negative_scale():
    # -||X_A||_* is supermodular, so a negative scale contradicts
    # submodular=True; a spec is refused the same way
    for build in (lambda: setfn.nuclear(np.eye(2), scale=-1.0),
                  lambda: make_function({"type": "nuclear", "X": [[1, 0], [0, 1]], "scale": -1})):
        with pytest.raises(ValueError, match=r"scale must be nonnegative, got -1\.0"):
            build()
    assert setfn.nuclear(np.eye(2), scale=0.0)(3) == 0.0


def test_cardinality_concave_spec_round_trip():
    f = setfn.cardinality_concave(3, [0.0, 1.0, 1.5, 1.75])
    for g in (make_function(f.spec), make_function(f.spec, n=3),
              make_function(dict(f.spec, n=3))):
        assert g.n == 3 and [g(m) for m in range(8)] == [f(m) for m in range(8)]


# ---------------------------------------------------------------------------
# Subgradients at characteristic vectors, and the scalar call


def chain_subgradient(oracle, X):
    """The argsort chain: sort each row by descending value (ties by
    ascending index) and difference the values along the prefix chain."""
    order = np.argsort(-X, axis=-1, kind="stable")
    chain = np.zeros(X.shape[:-1] + (X.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(np.left_shift(1, order), axis=-1, out=chain[..., 1:])
    s = np.empty_like(X)
    np.put_along_axis(s, order, np.diff(oracle.values(chain), axis=-1), axis=-1)
    return s


@pytest.mark.parametrize("n", [1, 3, 8, 12, 13])
def test_subgradient_at_sets_equals_the_argsort_chain_bitwise(n):
    rng = np.random.default_rng(n)
    closure = setfn.cut(n, [(int(rng.integers(n)), int(rng.integers(n)),
                             float(rng.uniform(0.0, 2.0))) for _ in range(2 * n)])
    grid = np.array([(m >> np.arange(n)) & 1 for m in range(1 << n)], dtype=float)
    for oracle, rows in ((setfn.table(n, rng.normal(size=1 << n)), grid),
                         (closure, grid[rng.choice(1 << n, size=min(1 << n, 150),
                                                   replace=False)])):
        mixed = rows.copy()
        mixed[::3] = rng.random((len(mixed[::3]), n))  # every third row not binary
        mixed[1::7] = np.round(mixed[1::7] * 4.0) / 4.0  # ties, 0.0 and 1.0 among others
        for X in (rows, mixed, rows[-1], mixed[0]):
            got = lovasz_subgradient(oracle, X)
            assert got.shape == X.shape
            assert got.tobytes() == chain_subgradient(oracle, X).tobytes()
        for X in (rows, rows[-1]):  # and the closed form at characteristic vectors
            assert lovasz_subgradient(oracle, X).tobytes() == set_subgradient(oracle, X).tobytes()


@pytest.mark.parametrize("n", [1, 4, 9])
def test_subgradient_reads_n_plus_one_masks_per_binary_row(n):
    # through a counting oracle with no kernel, as perfbench wraps oracles
    f = setfn.table(n, np.random.default_rng(n).normal(size=1 << n))
    reads = []
    counted = setfn.SetFunction(n, lambda m: reads.append(m) or f(m))
    rows = np.array([(m >> np.arange(n)) & 1 for m in range(0, 1 << n, 3)], dtype=float)
    s = lovasz_subgradient(counted, rows)
    assert len(reads) == (n + 1) * len(rows)
    assert s.tobytes() == lovasz_subgradient(f, rows).tobytes()


def test_call_passes_an_int_and_returns_a_float():
    seen = []

    def fn(mask):
        seen.append(type(mask))
        return np.float64(mask) if mask & 1 else int(mask)

    f = setfn.SetFunction(3, fn)
    for mask in (np.int64(5), 5, np.int64(2), 2):
        value = f(mask)
        assert type(value) is float and value == int(mask)
    assert seen == [int] * 4
    phi = setfn.cardinality_concave(3, [0.0, 1.0, 1.5, 1.75])
    assert phi(np.int64(7)) == 1.75 and type(phi(np.int64(7))) is float
    assert type(f.values(np.array([1, 2]))[0]) is np.float64


def test_cut_rejects_fractional_endpoints():
    with pytest.raises(ValueError, match=r"edges\[1\] is \[0\.5, 1\.7, 1\.0\]"):
        setfn.cut(3, [(0, 1, 1.0), (0.5, 1.7, 1.0)])
    c = setfn.cut(3, [(0.0, 2.0, 1.0)])  # integral floats stay accepted
    assert c.spec["edges"] == [[0, 2, 1.0]] and c(0b001) == 1.0


def test_coverage_rejects_fractional_items():
    with pytest.raises(ValueError, match=r"covers\[0\] holds item 0\.9"):
        setfn.coverage(2, [1.0, 2.0], [[0.9], [1.2]])
    with pytest.raises(ValueError, match=r"covers\[1\] holds item 1\.2"):
        setfn.coverage(2, [1.0, 2.0], [[1.0], [1.2]])
    for item in (True, np.bool_(False)):  # a bool covered item 1 or 0
        with pytest.raises(ValueError, match=r"covers\[0\] holds item %s; item indices must"
                           % re.escape(repr(item))):
            setfn.coverage(1, [1.0, 2.0], [[item]])
    f = setfn.coverage(2, [1.0, 2.0], [[1.0], [0]])  # integral floats stay accepted
    assert f.spec["covers"] == [[1], [0]] and f(0b01) == 2.0
