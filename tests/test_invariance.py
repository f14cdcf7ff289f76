"""Invariances of the exact minimum: relabelling the ground set, and adding
one modular term to both sides of the difference."""

import numpy as np
import pytest

from dsprism import setfn
from dsprism.experiments import FAMILIES, gen_random_ds
from dsprism.setfn import as_table, brute_force_ds_min, mask_of
from dsprism.solver import solve

CASES = [(family, n) for family in FAMILIES for n in (3, 5, 8)]


def permuted_table(t, perm):
    """The table of A -> t(perm^-1(A)): element i of the ground set becomes
    element perm[i], so the value at mask m moves to the permuted mask."""
    masks = np.arange(1 << t.n)
    moved = np.zeros_like(masks)
    for i, j in enumerate(perm):
        moved |= ((masks >> i) & 1) << int(j)
    vals = np.empty(1 << t.n)
    vals[moved] = t.table_values
    return setfn.table(t.n, vals)


@pytest.mark.parametrize("family, n", CASES)
def test_permuting_the_ground_set_keeps_the_optimum(family, n):
    rng = np.random.default_rng([FAMILIES.index(family), n])
    inst = gen_random_ds(n, family, int(rng.integers(100)))
    f, g = as_table(inst.f), as_table(inst.g)
    perm = rng.permutation(n)
    fp, gp = permuted_table(f, perm), permuted_table(g, perm)
    rep, rep_p = solve(f, g), solve(fp, gp)
    assert rep_p.termination_reason == "optimal"
    assert rep_p.optimal_value == rep.optimal_value  # bit-equal
    m = mask_of(rep_p.optimal_set)
    assert fp.table_values[m] - gp.table_values[m] == brute_force_ds_min(fp, gp)[1]


@pytest.mark.parametrize("family, n", CASES)
def test_a_common_modular_term_keeps_the_optimum(family, n):
    rng = np.random.default_rng([FAMILIES.index(family), n, 1])
    inst = gen_random_ds(n, family, int(rng.integers(100)))
    f, g = as_table(inst.f), as_table(inst.g)
    w = as_table(setfn.modular(rng.normal(0.0, 2.0, size=n))).table_values
    rep = solve(setfn.table(n, f.table_values + w), setfn.table(n, g.table_values + w))
    best = brute_force_ds_min(f, g)[1]
    assert rep.termination_reason == "optimal"
    assert abs(rep.optimal_value - best) <= 1e-9 * max(1.0, abs(best))
