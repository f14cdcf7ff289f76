"""is_submodular and ds_decompose, which decide from local second
differences, against the exhaustive four-point check."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from helpers import exhaustive_decompose, second_difference_by_pair, submodular_mixture
from hypothesis import given, settings
from hypothesis import strategies as st

from dsprism import experiments, setfn
from dsprism.experiments import FAMILIES, gen_random_ds
from dsprism.setfn import (CHECK_CAP, REPAIR_SLACK, GroundSetError, ds_decompose,
                           is_submodular, max_submodularity_violation)


@pytest.fixture(scope="module", autouse=True)
def four_point_check_raises_inside_is_submodular():
    """Throughout this module setfn.max_submodularity_violation raises when
    is_submodular is on the call stack (ds_decompose may still call it)."""
    check = setfn.max_submodularity_violation

    def four_point(oracle):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is is_submodular.__code__:
                raise AssertionError("is_submodular called the four-point check")
            frame = frame.f_back
        return check(oracle)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setfn, "max_submodularity_violation", four_point)
        yield


def pair_terms(n):
    """floor(n/2) * ceil(n/2): the most second differences one four-point
    difference telescopes into."""
    return (n // 2) * ((n + 1) // 2)


@st.composite
def gated_tables(draw):
    """(table, tol): a submodular mixture, perhaps with a planted violation
    whose local size is 0.5, 1 or 2 times tol, or tol / pair_terms(n)."""
    n = draw(st.integers(1, 8))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-8]))
    weights = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=4, max_size=4))
    vals = submodular_mixture(n, draw(st.integers(0, 2 ** 16)), weights)
    size = tol * draw(st.sampled_from([0.5, 1.0, 2.0, 1.0 / max(1, pair_terms(n))]))
    plant = draw(st.sampled_from(["none", "bump", "pairs"]))
    card = np.bitwise_count(np.arange(1 << n))
    if plant == "bump" and n >= 2:
        # +size at one set S of two or more elements: second difference
        # +size at (S minus two elements, those two)
        sets = np.flatnonzero(card >= 2)
        vals[sets[draw(st.integers(0, len(sets) - 1))]] += size
    elif plant == "pairs":
        # size * C(|A|, 2): every second difference +size, and a four-point
        # difference +size * |A\B| * |B\A|, the telescoping bound's worst case
        vals += size * card * (card - 1) / 2
    return setfn.table(n, vals), tol


def rounding(t):
    """8 ulps of max|f| per telescoped term: what rounding may add to a
    four-point value beyond pair_terms times the largest second difference."""
    scale = float(np.max(np.abs(t.table_values)))
    return 8.0 * np.finfo(float).eps * scale * (pair_terms(t.n) + 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gated_tables())
def test_is_submodular_brackets_the_four_point_check(case):
    t, tol = case
    v = max_submodularity_violation(t)
    if pair_terms(t.n) * max(v, 0.0) <= tol:
        assert is_submodular(t, tol)
    if is_submodular(t, tol):
        assert v <= tol + rounding(t)


def test_each_branch_of_the_local_rule():
    n = 6
    modular = submodular_mixture(n, 3, [1.0, 0.0, 0.0, 0.0])
    card = np.bitwise_count(np.arange(1 << n))
    strict = setfn.table(n, modular - card * card)  # every second difference -2
    # a second difference above tol: False, and that value is a four-point value
    assert not is_submodular(setfn.table(n, modular + 1e-6 * card * card), tol=1e-8)
    # pair_terms * max(d, 0) within tol: True
    assert is_submodular(strict, tol=1e-9)
    # at tol = 0 too; the four-point check reads a rounding residue of a
    # comparable pair there, inside the bracket's allowance
    assert is_submodular(strict, tol=0.0)
    assert 0.0 < max_submodularity_violation(strict) <= rounding(strict)
    # every second difference tol / 2: pair_terms * tol / 2 > tol, False, as
    # the four-point check reads pair_terms * tol / 2 too
    halves = setfn.table(n, modular + 0.5e-8 * card * (card - 1) / 2)
    assert not is_submodular(halves, tol=1e-8)
    assert max_submodularity_violation(halves) > 1e-8


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), True],
                         ids=["nan", "negative", "inf", "bool"])
def test_is_submodular_refuses_a_tol_that_is_not_finite_and_nonnegative(tol):
    # a NaN or negative tol answered False for every table, an infinite one
    # True, and True ran as 1
    t = setfn.table(2, [0.0, 0.0, 0.0, 5.0])  # its one second difference is 5
    assert is_submodular(t, tol=5.0) and not is_submodular(t, tol=4.0)
    message = ("tol must be a number, got True" if tol is True
               else "tol must be finite and nonnegative, got %r" % tol)
    with pytest.raises(ValueError, match=re.escape(message)):
        is_submodular(t, tol=tol)


def test_non_finite_values_never_read_as_submodular():
    # finite values whose second differences overflow: +-1e308 by the parity
    # of |A| makes each of them sum to +inf
    t = setfn.table(3, 1e308 * (-1.0) ** np.bitwise_count(np.arange(8)))
    with np.errstate(over="ignore"):
        assert not is_submodular(t, tol=1e-9)
    # NaN propagates through the largest second difference (max(-inf, nan)
    # would drop it)
    vals = np.zeros(8)
    vals[7] = np.nan
    assert np.isnan(setfn._max_second_difference(vals, 3))
    with pytest.raises(ValueError, match="value at mask 0 is nan; values must be finite"):
        is_submodular(setfn.SetFunction(3, lambda mask: float("nan")))


def test_is_submodular_keeps_the_ground_set_cap():
    with pytest.raises(setfn.GroundSetError, match="too large to tabulate"):
        is_submodular(setfn.modular(np.ones(setfn.ENUM_CAP + 1)))


def test_corpus_gate_never_falls_back_to_the_four_point_check(monkeypatch):
    gated = []
    gate = experiments.is_submodular

    def recording(oracle, tol):
        gated.append((oracle, tol))
        return gate(oracle, tol)

    monkeypatch.setattr(experiments, "is_submodular", recording)
    for n in range(1, 9):
        for family in FAMILIES:
            for seed in range(3):
                gen_random_ds(n, family, seed)
    assert len(gated) >= 2 * 8 * len(FAMILIES) * 3
    for oracle, tol in gated:
        assert is_submodular(oracle, tol)
        assert max_submodularity_violation(oracle) <= tol


def bits(x):
    """The bytes of a float or an array, so == compares bit for bit."""
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("n", range(1, 17))
def test_max_second_difference_equals_the_per_pair_loop(n):
    # n <= 13 gathers several pairs per block, n = 14 one pair, n >= 15 a
    # pair in slices of its sets A
    rng = np.random.default_rng(n)
    tables = [scale * rng.normal(size=1 << n) for scale in (1e-6, 1.0, 1e8)]
    tables.append(submodular_mixture(n, n, [1.0, 0.3, 1.0, 0.3]))
    for vals in tables:
        assert bits(setfn._max_second_difference(vals, n)) == bits(second_difference_by_pair(vals, n))


def test_max_second_difference_keeps_nan_and_overflow():
    assert setfn._max_second_difference(np.array([1.0, -2.0]), 1) == -np.inf
    for n in (12, 15):  # several pairs per block; a pair in two blocks
        vals = np.zeros(1 << n)
        vals[(1 << n) - 2] = np.nan
        assert np.isnan(setfn._max_second_difference(vals, n))
    # finite values whose second differences overflow
    vals = 1e308 * (-1.0) ** np.bitwise_count(np.arange(1 << 4))
    with np.errstate(over="ignore"):
        assert setfn._max_second_difference(vals, 4) == np.inf


def test_max_second_difference_needs_no_more_memory_than_the_per_pair_loop():
    n = 16
    vals = np.random.default_rng(n).normal(size=1 << n)
    peaks = []
    for fn in (setfn._max_second_difference, second_difference_by_pair):
        tracemalloc.start()
        try:
            fn(vals, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


@st.composite
def decompose_pairs(draw):
    """(f, g): tables on one ground set at one magnitude, 1e-6..1e8; each is
    a submodular mixture, plus a planted violation on the sides drawn to
    carry one (sizes from below rounding to far above REPAIR_SLACK)."""
    n = draw(st.integers(1, 7))
    scale = 10.0 ** draw(st.integers(-6, 8))
    violating = draw(st.sampled_from([(False, False), (True, False), (False, True),
                                      (True, True)]))
    card = np.bitwise_count(np.arange(1 << n))
    sides = []
    for violates in violating:
        weights = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=4, max_size=4))
        vals = submodular_mixture(n, draw(st.integers(0, 2 ** 16)), weights)
        size = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1.0]))
        plant = draw(st.sampled_from(["bump", "pairs", "noise"])) if violates else None
        if plant == "bump" and n >= 2:
            sets = np.flatnonzero(card >= 2)
            vals[sets[draw(st.integers(0, len(sets) - 1))]] += size
        elif plant == "pairs":
            vals += size * card * (card - 1) / 2
        elif plant == "noise":
            vals += size * np.random.default_rng(draw(st.integers(0, 2 ** 16))).normal(size=1 << n)
        sides.append(setfn.table(n, scale * vals))
    return sides


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(decompose_pairs())
def test_ds_decompose_equals_the_repair_from_both_four_point_checks(pair):
    f, g = pair
    f_ref, g_ref, M_ref = exhaustive_decompose(f, g)
    # the bounds the skipped checks rest on, and the checks they dictate:
    # each side whose bound exceeds REPAIR_SLACK
    sides = [(setfn._violation_bound(t.table_values, t.n), max_submodularity_violation(t))
             for t in (f, g)]
    for bound, v in sides:
        assert v <= bound
    expected = sum(bound > REPAIR_SLACK for bound, _ in sides)
    checked = []
    check = setfn.max_submodularity_violation
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setfn, "max_submodularity_violation", lambda t: checked.append(t) or check(t))
        f2, g2, M = ds_decompose(f, g)
    assert len(checked) == expected
    assert bits(M) == bits(M_ref)
    assert bits(f2.table_values) == bits(f_ref.table_values)
    assert bits(g2.table_values) == bits(g_ref.table_values)


def test_ds_decompose_checks_only_the_sides_its_bounds_cannot_clear(monkeypatch):
    checked = []
    check = setfn.max_submodularity_violation
    monkeypatch.setattr(setfn, "max_submodularity_violation",
                        lambda t: checked.append(t.name) or check(t))
    rng = np.random.default_rng(13)
    X = rng.standard_normal((9, 5))
    y = rng.standard_normal(9)
    # the nuclear norm is submodular by construction: only the residual
    _, _, M = ds_decompose(setfn.nuclear(X, scale=0.5), setfn.neg_residual(X, y))
    assert M > 0 and checked == ["table(neg_residual)"]
    checked.clear()
    _, _, M = ds_decompose(setfn.modular([1.0, -1.0, 0.5]), setfn.cut(3, [(0, 1, 1.0)]))
    assert M == 0.0 and checked == []
    # two violating sides: both are checked
    noise = [setfn.table(5, rng.normal(size=32)) for _ in range(2)]
    _, _, M = ds_decompose(*noise)
    assert M > 0 and len(checked) == 2


def test_ds_decompose_keeps_the_check_cap():
    # a submodular pair, whose bounds would skip both four-point checks
    n = CHECK_CAP + 1
    f, g = setfn.modular(np.ones(n)), setfn.cut(n, [(0, 1, 1.0)])
    with pytest.raises(GroundSetError, match="n <= %d; got n = %d" % (CHECK_CAP, n)):
        ds_decompose(f, g)
