"""Tests for instance generation and the benchmark harness."""

import csv
import io
import json
import re

import numpy as np
import pytest

from dsprism import experiments, setfn
from dsprism.experiments import (FAMILIES, DsInstance, FsInstanceSpec, aggregate_bench,
                                 bench_to_csv, gen_feature_selection, gen_random_ds,
                                 instance_from_dict, run_bench, verify_corpus)
from dsprism.setfn import as_table, is_submodular, mask_of
from dsprism.solver import solve


def test_fs_spec_validation():
    with pytest.raises(ValueError):
        FsInstanceSpec(p=5, n_samples=10, k=6, lam=1.0, seed=0)
    with pytest.raises(ValueError):
        FsInstanceSpec(p=5, n_samples=10, k=2, lam=-0.5, seed=0)


@pytest.mark.parametrize("field, value, message", [
    ("p", 2.5, "p must be an integer, got 2.5"),
    ("p", 3.0, "p must be an integer, got 3.0"),
    ("lam", float("nan"), "lam must be finite and nonnegative, got nan"),
    ("seed", -1, "seed must be nonnegative, got -1"),
], ids=["p_fraction", "p_float", "lam_nan", "seed_negative"])
def test_fs_spec_refuses_a_bad_scalar(field, value, message):
    # a float p or a negative seed failed in numpy inside
    # gen_feature_selection, and a NaN lam passed until nuclear checked its
    # scale
    fields = dict(dict(p=5, n_samples=10, k=2, lam=1.0, seed=0), **{field: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        FsInstanceSpec(**fields)


def test_gen_feature_selection_shapes_and_determinism():
    spec = FsInstanceSpec(p=6, n_samples=20, k=2, lam=0.5, seed=3)
    a = gen_feature_selection(spec)
    b = gen_feature_selection(spec)
    assert a.X.shape == (20, 6) and a.X_test.shape == (100, 6)
    assert a.y.shape == (20,) and a.y_test.shape == (100,)
    assert len(a.support) == 2
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert a.f.n == 6 and a.g.n == 6


def test_noiseless_recovery():
    # with the noise left out of the response and a small penalty, the exact
    # solve selects a support with (numerically) zero residual
    spec = FsInstanceSpec(p=7, n_samples=30, k=2, lam=0.05, seed=5)
    inst = gen_feature_selection(spec)
    y = inst.X @ inst.w
    g = setfn.neg_residual(inst.X, y)
    f2, g2, _ = setfn.ds_decompose(inst.f, g)
    rep = solve(f2, g2)
    mask = mask_of(rep.optimal_set)
    assert -g(mask) <= 1e-9 * float(y @ y)
    assert mask & mask_of(inst.support) == mask_of(inst.support)


def test_gen_random_ds_families_submodular_and_deterministic():
    for fam in FAMILIES:
        a = gen_random_ds(5, fam, 9)
        b = gen_random_ds(5, fam, 9)
        assert is_submodular(as_table(a.f), tol=1e-8)
        assert is_submodular(as_table(a.g), tol=1e-8)
        for m in range(1 << 5):
            assert a.f(m) == b.f(m) and a.g(m) == b.g(m)
    with pytest.raises(ValueError):
        gen_random_ds(4, "no_such_family", 0)
    with pytest.raises(ValueError):
        gen_random_ds(11, FAMILIES[0], 0)


def test_gen_random_ds_draws_once(monkeypatch):
    # a draw the submodularity gate rejects is an error, not a redraw
    calls = []
    monkeypatch.setattr(experiments, "is_submodular", lambda h, tol: calls.append(h) or False)
    with pytest.raises(RuntimeError, match="coverage_minus_coverage draw for n=5, seed=9 "):
        gen_random_ds(5, "coverage_minus_coverage", 9)
    assert len(calls) == 1


@pytest.mark.parametrize("seed, message", [
    (-10**6, "seed must be nonnegative, got -1000000"),
    (-1, "seed must be nonnegative, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
], ids=["large_negative", "negative", "fraction", "bool"])
def test_gen_random_ds_refuses_a_seed_numpy_cannot_take(seed, message):
    # a large negative seed or a fraction failed inside numpy, and -1 seeded
    # the generator of n - 1, seed 7918
    with pytest.raises(ValueError, match=re.escape(message)):
        gen_random_ds(4, "cut_minus_modular", seed)


def _raw_matrix_instance(kind):
    """The raw oracle of kind minus a raw residual, on one design."""
    rng = np.random.default_rng(4)
    X, y = rng.standard_normal((9, 5)), rng.standard_normal(9)
    M = rng.standard_normal((5, 5))
    f = (setfn.nuclear(X, scale=0.8) if kind == "nuclear"
         else setfn.gaussian_entropy(M @ M.T + 5 * np.eye(5)))
    return DsInstance(f=f, g=setfn.neg_residual(X, y), n=5, family="file", seed=0)


def test_instance_json_roundtrip():
    # to_dict writes array-valued spec entries as lists, and JSON keeps
    # every float, so the rebuilt oracles tabulate to the same bits
    for kind in (*FAMILIES, "nuclear", "gaussian_entropy"):
        inst = gen_random_ds(6, kind, 3) if kind in FAMILIES else _raw_matrix_instance(kind)
        back = instance_from_dict(json.loads(json.dumps(inst.to_dict())))
        assert isinstance(back, DsInstance)
        for a, b in ((inst.f, back.f), (inst.g, back.g)):
            assert as_table(b).table_values.tobytes() == as_table(a).table_values.tobytes(), kind


def test_verify_corpus_small_slice():
    assert verify_corpus([3, 4], list(FAMILIES), reps=2, seed=0) == []


def test_run_bench_orderings_and_schema():
    rows, agg = run_bench(p=6, n_samples=25, k=2, lambdas=(0.5, 1.0), reps=3, seed=11)
    assert len(rows) == 3 * 2 * 3
    by = {}
    for r in rows:
        by.setdefault((r["lambda"], r["seed"]), {})[r["method"]] = r
    for cell in by.values():
        assert cell["prism"]["objective"] <= cell["ssp"]["objective"] + 1e-12
        assert cell["prism"]["objective"] <= cell["greedy"]["objective"] + 1e-12
    assert {a["method"] for a in agg} == {"prism", "ssp", "greedy"}
    for r in rows:
        assert r["train_err"] >= 0.0 and r["test_err"] >= 0.0
        assert bin(mask_of(range(r["card"]))).count("1") == r["card"]


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_run_bench_refuses_a_lambda_before_any_rep(lam, monkeypatch):
    # a negative lambda made f = lam * ||X_A||_* supermodular, and a NaN one
    # failed at a set-function value without naming lambda
    draws = []
    monkeypatch.setattr(experiments, "gen_feature_selection", lambda spec: draws.append(spec))
    with pytest.raises(ValueError, match=re.escape("lambda must be finite and nonnegative, "
                                                   "got %r" % lam)):
        run_bench(p=4, n_samples=6, k=2, lambdas=(1.0, lam), reps=1)
    assert draws == []


def test_bench_csv_roundtrip():
    rows, _ = run_bench(p=5, n_samples=20, k=2, lambdas=(1.0,), reps=2, seed=1)
    text = bench_to_csv(rows)
    assert text.splitlines()[0] == ("method,p,n,k,lambda,seed,objective,card,"
                                    "train_err,test_err,wall_ms")
    back = list(csv.DictReader(io.StringIO(text)))
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a["method"] == b["method"]
        for key in ("p", "n", "k", "seed", "card"):
            assert a[key] == int(b[key])
        for key in ("lambda", "objective", "train_err", "test_err"):
            assert float(b[key]) == pytest.approx(a[key], rel=1e-12)


def test_aggregate_bench_means():
    rows = [{"method": "m", "lambda": 1.0, "objective": 1.0, "card": 2,
             "train_err": 0.5, "test_err": 0.25, "wall_ms": 10.0},
            {"method": "m", "lambda": 1.0, "objective": 3.0, "card": 4,
             "train_err": 1.5, "test_err": 0.75, "wall_ms": 30.0}]
    agg = aggregate_bench(rows)
    assert len(agg) == 1
    assert agg[0]["objective"] == 2.0
    assert agg[0]["card"] == 3.0
    assert agg[0]["reps"] == 2
