"""Instance generation and the benchmark harness.

Covers the synthetic feature-selection setup (sparse linear model with a
trace-norm regularizer), a random corpus of difference-of-submodular
instances for correctness testing, and a CSV-emitting runner comparing the
exact solver against SSP and greedy.
"""

import csv
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from . import setfn
from .baselines import greedy, ssp
from .numerics import least_squares
from .setfn import as_table, brute_force_ds_min, is_submodular, make_function, set_of
from .solver import solve

CORPUS_MAX_N = 10  # largest ground set gen_random_ds draws

BENCH_FIELDS = ["method", "p", "n", "k", "lambda", "seed",
                "objective", "card", "train_err", "test_err", "wall_ms"]


@dataclass
class DsInstance:
    f: object
    g: object
    n: int
    family: str
    seed: int

    def to_dict(self):
        """The instance as JSON data; array-valued spec entries become lists."""
        f, g = ({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in h.spec.items()}
                for h in (self.f, self.g))
        return {"n": self.n, "f": f, "g": g, "family": self.family, "seed": self.seed}


def _integer(key, value):
    """value as an int; a float must be integral, and a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError("%s is %r; %s must be an integer" % (key, value, key))
    return int(value)


def instance_from_dict(d):
    n = _integer("n", d["n"])
    f = make_function(d["f"], n=n)
    g = make_function(d["g"], n=n)
    for name, h in (("f", f), ("g", g)):
        if h.n != n:
            raise ValueError("oracle %s has %d elements, but n is %d" % (name, h.n, n))
    return DsInstance(f=f, g=g, n=n, family=d.get("family", "file"),
                      seed=_integer("seed", d.get("seed", 0)))


def load_instance(path):
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Feature-selection instances


@dataclass
class FsInstanceSpec:
    p: int
    n_samples: int
    k: int
    lam: float
    seed: int

    def __post_init__(self):
        for name in ("p", "n_samples", "k", "seed"):  # numpy takes a seed >= 0
            setfn.check_count(name, getattr(self, name))
        setfn.check_nonnegative("lam", self.lam)
        if not (0 < self.k <= self.p) or self.n_samples <= 0:
            raise ValueError("invalid feature-selection spec: need 0 < k <= p and "
                             "n_samples > 0, got p=%r, n_samples=%r, k=%r"
                             % (self.p, self.n_samples, self.k))


@dataclass
class FsInstance:
    f: object
    g: object
    X: np.ndarray
    y: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    support: np.ndarray
    w: np.ndarray
    spec: FsInstanceSpec


def _draw_response(X, w, rng):
    signal = X @ w
    eps = rng.standard_normal(X.shape[0])
    return signal + X.shape[0] ** -0.5 * float(np.linalg.norm(signal)) * eps


def gen_feature_selection(spec):
    """Sparse linear model: Gaussian design, k-sparse Gaussian weights,
    response with norm-scaled Gaussian noise, plus a 100-row test set.

    f(A) = lam * (trace norm of X_A), g(A) = -squared residual of fitting y
    on the columns A.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n_samples, spec.p))
    support = np.sort(rng.choice(spec.p, size=spec.k, replace=False))
    w = np.zeros(spec.p)
    w[support] = rng.standard_normal(spec.k)
    y = _draw_response(X, w, rng)
    X_test = rng.standard_normal((100, spec.p))
    y_test = _draw_response(X_test, w, rng)
    f = setfn.nuclear(X, scale=spec.lam)
    g = setfn.neg_residual(X, y)
    return FsInstance(f=f, g=g, X=X, y=y, X_test=X_test, y_test=y_test,
                      support=support, w=w, spec=spec)


# ---------------------------------------------------------------------------
# Random correctness corpus


def _gen_cut_minus_modular(n, rng):
    edges = [(u, v, float(rng.uniform(0.1, 1.0)))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    if not edges:
        edges.append((0, min(1, n - 1), 0.5))
    f = setfn.cut(n, edges)
    g = setfn.modular(rng.normal(0.0, 0.7, size=n))
    return f, g


def _random_coverage(n, rng):
    m = 2 * n
    weights = rng.uniform(0.1, 1.0, size=m)
    covers = [[u for u in range(m) if rng.random() < 0.35] for _ in range(n)]
    return setfn.coverage(n, weights, covers)


def _gen_coverage_minus_coverage(n, rng):
    return _random_coverage(n, rng), _random_coverage(n, rng)


def _gen_nuclear_minus_residual(n, rng):
    # the raw residual term is generally not supermodular for Gaussian
    # designs; ds_decompose repairs the pair without changing f - g
    m = n + 3
    X = rng.standard_normal((m, n))
    k = max(1, n // 3)
    support = rng.choice(n, size=k, replace=False)
    w = np.zeros(n)
    w[support] = rng.standard_normal(k)
    y = X @ w + 0.2 * rng.standard_normal(m)
    lam = float(rng.uniform(0.3, 1.2))
    f, g, _ = setfn.ds_decompose(setfn.nuclear(X, scale=lam), setfn.neg_residual(X, y))
    return f, g


def _random_submodular_table(n, rng):
    # provably submodular mixture, materialized as a table
    parts = [_random_coverage(n, rng), setfn.modular(rng.normal(0.0, 0.5, size=n))]
    incs = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    phi = np.concatenate([[0.0], np.cumsum(incs)])
    parts.append(setfn.cardinality_concave(n, phi))
    coeff = rng.uniform(0.2, 1.0, size=len(parts))
    masks = np.arange(1 << n)
    t = setfn.table(n, sum(c * p.values(masks) for c, p in zip(coeff, parts)))
    t.submodular = True
    return t


def _gen_table_pair(n, rng):
    return _random_submodular_table(n, rng), _random_submodular_table(n, rng)


_GENERATORS = {
    "cut_minus_modular": _gen_cut_minus_modular,
    "coverage_minus_coverage": _gen_coverage_minus_coverage,
    "nuclear_minus_residual": _gen_nuclear_minus_residual,
    "table_random_submodular_pair": _gen_table_pair,
}
FAMILIES = tuple(_GENERATORS)  # the order seeds gen_random_ds


def gen_random_ds(n, family, seed):
    """Seeded random instance from one of the four families, drawn once;
    both oracles are verified submodular (``is_submodular`` at tol 1e-8,
    decided from the local second differences) before release, and a
    draw that fails raises RuntimeError."""
    n = setfn.ground_set_size(n)
    setfn.check_count("seed", seed)  # a negative one fails in numpy or reuses another draw
    if family not in _GENERATORS:
        raise ValueError("unknown family %r" % family)
    if n > CORPUS_MAX_N:
        raise ValueError("corpus instances are capped at n=%d" % CORPUS_MAX_N)
    rng = np.random.default_rng(FAMILIES.index(family) * 1_000_003 + 7919 * n + seed)
    f, g = _GENERATORS[family](n, rng)
    if not (is_submodular(f, tol=1e-8) and is_submodular(g, tol=1e-8)):
        raise RuntimeError("the %s draw for n=%d, seed=%d is not a submodular pair"
                           % (family, n, seed))
    return DsInstance(f=f, g=g, n=n, family=family, seed=seed)


def verify_corpus(n_values, families, reps, seed):
    """Solve random corpus instances and compare against brute force.

    Returns a list of mismatch dicts (empty means all exact).
    """
    mismatches = []
    for n in n_values:
        for family in families:
            for r in range(reps):
                inst = gen_random_ds(n, family, seed + r)
                rep = solve(inst.f, inst.g)
                _, best = brute_force_ds_min(inst.f, inst.g)
                tol = 1e-8 * max(1.0, abs(best))
                if rep.termination_reason != "optimal" or abs(rep.optimal_value - best) > tol:
                    mismatches.append({"n": n, "family": family, "seed": seed + r,
                                       "solver": rep.optimal_value, "brute": best,
                                       "termination": rep.termination_reason})
    return mismatches


# ---------------------------------------------------------------------------
# Benchmark runner


def _prediction_errors(X, y, X_test, y_test, mask):
    cols = set_of(mask)
    w = least_squares(X[:, cols], y)[0] if cols else np.zeros(0)
    train_hat, test_hat = X[:, cols] @ w, X_test[:, cols] @ w
    train = float(np.sum((train_hat - y) ** 2) / np.sum(y ** 2))
    test = float(np.sum((test_hat - y_test) ** 2) / np.sum(y_test ** 2))
    return train, test


def run_bench(p=10, n_samples=40, k=3, lambdas=(0.25, 0.5, 1.0, 2.0), reps=10,
              seed=7):
    """Run the feature-selection suite; returns (rows, aggregates).

    Rows follow BENCH_FIELDS in deterministic (rep, lambda, method) order;
    aggregates are per-(method, lambda) means.
    """
    for lam in lambdas:
        setfn.check_nonnegative("lambda", lam)  # f = lam * ||X_A||_* is submodular
    rows = []
    for rep in range(reps):
        base = gen_feature_selection(FsInstanceSpec(p=p, n_samples=n_samples, k=k,
                                                    lam=1.0, seed=seed + rep))
        nuc = as_table(base.f)  # f at lam = 1: ||X_A||_*
        res = as_table(base.g)
        for lam in lambdas:
            f, g = setfn.table(p, lam * nuc.table_values), res
            for method in ("prism", "ssp", "greedy"):
                t0 = time.perf_counter()
                if method == "prism":
                    # solve a repaired (validly submodular) decomposition of
                    # the same objective, then report the original objective
                    f2, g2, _ = setfn.ds_decompose(f, g)
                    rep_out = solve(f2, g2)
                    mask = setfn.mask_of(rep_out.optimal_set)
                    obj = f(mask) - g(mask)
                elif method == "ssp":
                    out = ssp(f, g, init=0, seed=seed + rep)
                    mask, obj = out.mask, out.value
                else:
                    mask, obj = greedy(f, g)
                wall = (time.perf_counter() - t0) * 1000.0
                train, test = _prediction_errors(base.X, base.y, base.X_test,
                                                 base.y_test, mask)
                rows.append({"method": method, "p": p, "n": n_samples, "k": k,
                             "lambda": lam, "seed": seed + rep, "objective": obj,
                             "card": mask.bit_count(), "train_err": train,
                             "test_err": test, "wall_ms": wall})
    return rows, aggregate_bench(rows)


def aggregate_bench(rows):
    """Per-(method, lambda) means of the numeric columns."""
    keys = sorted({(r["method"], r["lambda"]) for r in rows},
                  key=lambda t: (t[1], t[0]))
    out = []
    for method, lam in keys:
        cell = [r for r in rows if r["method"] == method and r["lambda"] == lam]
        out.append({"method": method, "lambda": lam, "reps": len(cell),
                    **{k: float(np.mean([r[k] for r in cell]))
                       for k in ("objective", "card", "train_err", "test_err", "wall_ms")}})
    return out


def bench_to_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({k: r[k] for k in BENCH_FIELDS})
    return buf.getvalue()
