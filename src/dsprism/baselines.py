"""Approximate competitors: the supermodular-submodular procedure (SSP)
and greedy forward selection."""

import random
from dataclasses import dataclass

import numpy as np

from .geometry import binary_points
from .setfn import as_table, chain_subgradient, first_min, is_integer, same_ground_set, set_of


def modular_lower_bound(g, current_mask, perm):
    """Tight modular lower bound of a submodular g along a greedy chain.

    perm must order all n elements with the elements of current_mask first.
    Returns (weights, constant) with h(B) = constant + sum of weights over B;
    h agrees with g at current_mask and h <= g everywhere.  The weights are
    ``setfn.chain_subgradient`` along perm, so n is at most 63.
    """
    n = g.n
    perm = [int(i) for i in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of the ground set")
    k = current_mask.bit_count()
    if {i for i in perm[:k]} != set(set_of(current_mask)):
        raise ValueError("current set is not a prefix of perm")
    return chain_subgradient(g, perm), g(0)


def _modular_min(fvals, weights, const):
    """Exact minimizer of f(A) - h(A) for the modular h, over the table of f;
    ties to the smallest mask."""
    return first_min(fvals - (const + binary_points(len(weights)) @ weights))


@dataclass
class SspResult:
    mask: int
    value: float
    iterations: int


def ssp(f, g, init=0, seed=0):
    """Supermodular-submodular procedure: replace g by a tight modular lower
    bound each round and minimize the submodular surrogate exactly.

    The chain permutation puts the current set first (ascending index) and
    the remaining elements in seeded-random order.
    """
    n = same_ground_set(f, g)
    if not is_integer(init):
        raise ValueError("init must be an integer mask, got %r" % (init,))
    fvals = as_table(f).table_values
    rng = random.Random(seed)
    current = int(init)
    value = f(current) - g(current)
    iters = 0
    while True:
        iters += 1
        inside = set_of(current)
        rest = [i for i in range(n) if not (current >> i) & 1]
        rng.shuffle(rest)
        perm = inside + rest
        weights, const = modular_lower_bound(g, current, perm)
        cand, _ = _modular_min(fvals, weights, const)
        cand_val = f(cand) - g(cand)
        if cand_val < value - 1e-12:
            current, value = cand, cand_val
        else:
            break
    return SspResult(mask=current, value=value, iterations=iters)


def greedy(f, g):
    """Forward selection on f - g: repeatedly add the element with the most
    negative marginal change, smallest index on ties (``first_min`` over the
    additions in ascending element order); stop when no addition improves.
    Returns (mask, value)."""
    n = same_ground_set(f, g)
    current, value = 0, f(0) - g(0)
    while current != (1 << n) - 1:
        adds = [current | 1 << i for i in range(n) if not current >> i & 1]
        j, best = first_min(np.array([f(m) - g(m) for m in adds]))
        if not best < value - 1e-12:
            break
        current, value = adds[j], best
    return current, value
