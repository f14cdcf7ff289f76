"""Tests for the SSP and greedy baselines."""

import re

import numpy as np
import pytest
from helpers import greedy_loop, submodular_mixture
from hypothesis import given, settings
from hypothesis import strategies as st

from dsprism import setfn
from dsprism.baselines import _modular_min, greedy, modular_lower_bound, ssp
from dsprism.experiments import gen_random_ds
from dsprism.setfn import as_table, brute_force_ds_min, mask_of
from dsprism.solver import solve


def test_modular_lower_bound_is_tight_and_valid():
    rng = np.random.default_rng(0)
    g = as_table(setfn.coverage(4, rng.uniform(0.5, 1.5, 8),
                                [[0, 1, 2], [2, 3], [4, 5], [5, 6, 7]]))
    current = mask_of([1, 3])
    perm = [1, 3, 0, 2]
    weights, const = modular_lower_bound(g, current, perm)

    def h(mask):
        return const + sum(weights[i] for i in range(4) if (mask >> i) & 1)

    assert h(current) == pytest.approx(g(current), abs=1e-12)
    assert h(0) == pytest.approx(g(0), abs=1e-12)
    for m in range(16):
        assert h(m) <= g(m) + 1e-9  # lower bound everywhere (g submodular)


def test_modular_lower_bound_validates_inputs():
    g = setfn.modular([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        modular_lower_bound(g, 0, [0, 0, 1])
    with pytest.raises(ValueError):
        modular_lower_bound(g, 0b001, [1, 0, 2])  # current not a prefix


def test_modular_lower_bound_is_the_chain_of_scalar_values_bitwise():
    # one block read of the chain equals the differences of scalar calls,
    # for oracles with and without a block kernel
    rng = np.random.default_rng(3)
    n = 6
    X = rng.standard_normal((9, n))
    for g in (setfn.nuclear(X, 0.7), setfn.neg_residual(X, rng.standard_normal(9)),
              setfn.coverage(n, rng.uniform(0.5, 1.5, 8), [[0, 1], [2], [3, 4], [5], [6, 7], [1]])):
        perm = rng.permutation(n).tolist()
        weights, const = modular_lower_bound(g, mask_of(perm[:2]), perm)
        prefix = [mask_of(perm[:j]) for j in range(n + 1)]
        want = np.empty(n)
        for j in range(n):
            want[perm[j]] = g(prefix[j + 1]) - g(prefix[j])
        assert weights.tobytes() == want.tobytes() and const == g(0)


def test_ssp_keeps_the_tabulation_cap():
    f = setfn.modular(np.ones(setfn.ENUM_CAP + 1))
    with pytest.raises(setfn.GroundSetError, match="too large to tabulate"):
        ssp(f, f)


def test_modular_min_matches_loop():
    rng = np.random.default_rng(1)
    fvals = rng.normal(size=32)
    weights, const = rng.normal(size=5), 0.3
    vals = [fvals[m] - (const + sum(weights[i] for i in range(5) if (m >> i) & 1))
            for m in range(32)]
    mask, val = _modular_min(fvals, weights, const)
    assert mask == int(np.argmin(vals))
    assert val == pytest.approx(min(vals), abs=1e-12)
    assert _modular_min(np.zeros(8), np.zeros(3), 0.0) == (0, 0.0)  # smallest mask on ties


@pytest.mark.parametrize("init", [2.5, True], ids=["fraction", "bool"])
def test_ssp_init_is_an_integer_mask(init):
    # int(init) started from mask 2, and True from mask 1
    f, g = setfn.modular([1.0, -1.0, 0.5]), setfn.modular([0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match=re.escape("init must be an integer mask, got %r"
                                                   % (init,))):
        ssp(f, g, init=init)


def test_ssp_worked_n1():
    f = setfn.table(1, [0.0, 1.0])
    g = setfn.table(1, [0.0, 2.0])
    out = ssp(f, g, init=0)
    assert out.mask == 1
    assert out.value == pytest.approx(-1.0)


def test_ssp_on_equal_functions_stays_put():
    f = setfn.cut(4, [(0, 1, 1.0), (2, 3, 0.5)])
    g = setfn.cut(4, [(0, 1, 1.0), (2, 3, 0.5)])
    out = ssp(f, g, init=0)
    assert out.value == pytest.approx(0.0)
    assert out.mask == 0


def test_ssp_descends_and_dominates_exact():
    for n in (4, 5, 6):
        for fam in ("cut_minus_modular", "coverage_minus_coverage"):
            inst = gen_random_ds(n, fam, 3)
            init_val = inst.f(0) - inst.g(0)
            out = ssp(inst.f, inst.g, init=0, seed=1)
            exact = solve(inst.f, inst.g).optimal_value
            assert out.value <= init_val + 1e-12
            assert out.value >= exact - 1e-9
            assert out.value == pytest.approx(inst.f(out.mask) - inst.g(out.mask))
            assert out.iterations <= 1 << n


def test_ssp_seed_determinism():
    inst = gen_random_ds(6, "table_random_submodular_pair", 2)
    a = ssp(inst.f, inst.g, seed=5)
    b = ssp(inst.f, inst.g, seed=5)
    assert (a.mask, a.value, a.iterations) == (b.mask, b.value, b.iterations)


def test_greedy_exact_on_modular_difference():
    f = setfn.modular([1.0, -2.0, 0.5, -0.25])
    g = setfn.modular([0.5, 0.0, 1.5, 0.0])
    mask, value = greedy(f, g)
    # picks exactly the elements with negative f-g weight
    assert mask == mask_of([1, 2, 3])
    assert value == pytest.approx(-2.0 - 1.0 - 0.25)


def test_greedy_has_no_ground_set_cap():
    # greedy evaluates O(n^2) sets and tabulates nothing, so n = 30 is fine
    rng = np.random.default_rng(12)
    wf, wg = rng.normal(size=30), rng.normal(size=30)
    mask, value = greedy(setfn.modular(wf), setfn.modular(wg))
    neg = np.flatnonzero(wf - wg < 0)
    assert mask == mask_of(neg.tolist())
    assert value == pytest.approx(np.sum((wf - wg)[neg]), abs=1e-9)


def test_greedy_worked_n1_and_dominance():
    f = setfn.table(1, [0.0, 1.0])
    g = setfn.table(1, [0.0, 2.0])
    assert greedy(f, g) == (1, -1.0)
    for n in (4, 5):
        inst = gen_random_ds(n, "nuclear_minus_residual", 1)
        mask, value = greedy(inst.f, inst.g)
        _, best = brute_force_ds_min(as_table(inst.f), as_table(inst.g))
        assert value >= best - 1e-9
        assert value == pytest.approx(inst.f(mask) - inst.g(mask), abs=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 16),
       st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=8, max_size=8),
       st.sampled_from([0.25, 1.0]))
def test_greedy_equals_the_comparison_loop(n, seed, weights, grid):
    # first_min over the additions is the loop's strict <, smallest index on
    # ties; the values lie on a coarse grid, so that additions tie
    f, g = (setfn.table(n, np.round(submodular_mixture(n, seed + k, w) / grid) * grid)
            for k, w in ((0, weights[:4]), (1, weights[4:])))
    assert greedy(f, g) == greedy_loop(f, g)


def test_greedy_tie_break_smallest_index():
    f = setfn.modular([0.0, 0.0])
    g = setfn.modular([1.0, 1.0])
    mask, _ = greedy(f, g)
    assert mask & 1  # element 0 added first
