"""dsprism benchmark: time to a certified optimum, memory and oracle calls.

    python3 perfbench/run.py --workload corpus-n10 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs operations back to back
(a closed loop) for --seconds, after timing the set-up several times.
Every answer is checked against a vectorized brute-force argmin over the
same tables.  End-to-end times are scaled to a reference host speed by a
fixed calibration load sampled between operations (calibrate.py); the
values as measured are printed beside them.  With --trace 0 the last line
of output is a JSON object with the end-to-end metrics; with --trace 1
spans are recorded around each layer's public functions and the object
holds the per-layer metrics.  The lines before it show every metric by
name and unit; a summary (and, traced, every span) is written under
perfbench/out/.  See perfbench/README.md.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# one client in one process; BLAS pools would only add noise at these sizes
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 3  # generations of the instance pool
IMPORT_REPS = 15  # imports in a fresh interpreter; cheap, and noisy alone
MIN_OPS = 11  # the tail percentile needs at least ten samples beyond it

SOLVE_COUNTERS = ("iterations", "nodes_created", "nodes_explored", "deleted_dr1",
                  "deleted_dr2", "deleted_bound", "cuts_added")


def tail(values):
    """(value, percentile): the highest whole percentile, by nearest rank,
    with at least ten samples above it."""
    xs = sorted(values)
    q = 100 * (len(xs) - 10) // len(xs)
    return xs[max(math.ceil(q * len(xs) / 100), 1) - 1], q


def run_loop(workload, pool, probe, seconds, tracer, cal):
    """Closed loop over the pool, in order, until --seconds have passed and
    every instance has been solved at least once.  Calibration samples are
    taken between operations; the returned window excludes them."""
    op_fn = workload.op if tracer is None else tracer.wrap("bench.op", workload.op)
    ops = []
    start, cal_start = time.perf_counter(), cal.spent_s
    while len(ops) < max(MIN_OPS, len(pool)) or time.perf_counter() - start < seconds:
        cal.due()
        i = len(ops)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            records = op_fn(pool[i % len(pool)], probe)
        except Exception as exc:  # a failed operation is counted, never dropped
            print("operation %d failed: %r" % (i, exc), file=sys.stderr)
            records = None
        ops.append({"instance": i % len(pool), "wall_s": time.perf_counter() - t0,
                    "records": records, "failed": records is None,
                    "samples_before": len(cal.samples)})
    return ops, time.perf_counter() - start - (cal.spent_s - cal_start)


def answers(op):
    return [[r["mask"], r["value"], r["termination"], r["counts"]]
            for r in op["records"] or ()]


def per_instance(ops, pool_size):
    """First answers per instance, and whether every repeat matched them."""
    first = [None] * pool_size
    deterministic = True
    for op in ops:
        a = answers(op)
        if first[op["instance"]] is None:
            first[op["instance"]] = a
        elif a != first[op["instance"]]:
            deterministic = False
    return first, deterministic


def end_to_end(ops, window, setup_s, pool_size, scale=1.0):
    """The end-to-end metrics; times are multiplied (rates divided) by the
    calibration scale, so scale=1 gives them as measured."""
    walls = [op["wall_s"] for op in ops]
    tail_s, tail_q = tail(walls)
    first = [r for op in ops[:pool_size] for r in op["records"] or ()]
    return {
        "setup_s": (setup_s * scale, "s"),
        "solve_s_p50": (statistics.median(walls) * scale, "s"),
        "solve_s_tail": (tail_s * scale, "s"),
        "solves_per_s": (len(ops) / window / scale, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "oracle_evals_per_solve": (statistics.fmean(
            r["counts"]["oracle_evals"] for r in first), "count"),
    }, tail_q


def span_table(tracer):
    """Per (phase, span name): calls, busy seconds, self seconds."""
    import numpy as np
    from tracing import CHECK, SETUP

    nid, t0, t1, _, own, self_s = tracer.arrays()
    dur = t1 - t0
    table = {}
    for phase, mask in (("setup", own == SETUP), ("op", own >= 0), ("check", own == CHECK)):
        for k, name in enumerate(tracer.names):
            sel = mask & (nid == k)
            if np.any(sel):
                table["%s/%s" % (phase, name)] = {
                    "calls": int(np.count_nonzero(sel)),
                    "busy_s": float(np.sum(dur[sel])), "self_s": float(np.sum(self_s[sel]))}
    return table


def per_layer(tracer, probe, ops, pool_size, refs):
    """Per-layer metrics.  Counts are per operation over the first pass
    through the pool, so they repeat exactly; times are per operation over
    every operation; set-up figures (``experiments.gen_*``, ``setup.*``)
    are per set-up repetition; baseline figures are per heuristic call."""
    import numpy as np
    from tracing import SETUP

    nid, t0, t1, _, own, self_s = tracer.arrays()
    dur = t1 - t0
    if np.any(self_s < -1e-9):
        raise RuntimeError("child spans overlap")
    ids = {name: k for k, name in enumerate(tracer.names)}
    in_op, in_first = own >= 0, (own >= 0) & (own < pool_size)
    n_ops = len(ops)

    def sel(name, where):
        return where & (nid == ids.get(name, -1))

    def calls(name):
        return float(np.count_nonzero(sel(name, in_first))) / pool_size

    def busy(name):
        return float(np.sum(dur[sel(name, in_op)])) / n_ops

    def module_self(module):
        mods = np.array([n.startswith(module + ".") for n in tracer.names] + [False])
        return float(np.sum(self_s[in_op & mods[nid]])) / n_ops

    def per_call(name):
        return float(np.mean(dur[nid == ids[name]]))

    first = [r for op in ops[:pool_size] for r in op["records"] or ()]

    def counter(key):
        return sum(r["counts"][key] for r in first) / pool_size

    created = counter("nodes_created")
    deleted = sum(counter(k) for k in ("deleted_dr1", "deleted_dr2", "deleted_bound"))
    brute_p50 = statistics.median(b for ref in refs for b in ref["brute_s"])
    solve_p50 = statistics.median(r["wall_s"] for op in ops for r in op["records"] or ())
    gen = sel("experiments.gen", own == SETUP)
    m = {
        "experiments.gen_calls": (np.count_nonzero(gen) / SETUP_REPS, "count"),
        "experiments.gen_s": (float(np.sum(dur[gen])) / SETUP_REPS, "s"),
    }
    for name in ("setfn.oracle", "setfn.submod_check", "setfn.ds_decompose",
                 "numerics.sym_eigs", "numerics.least_squares"):
        m["setup.%s_calls" % name] = (
            np.count_nonzero(sel(name, own == SETUP)) / SETUP_REPS, "count")
    for name in ("setfn.as_table", "setfn.oracle", "setfn.lovasz", "setfn.subgradient"):
        m[name + "_calls"] = (calls(name), "count")
        m[name + "_s"] = (busy(name), "s")
    m["setfn.ds_decompose_calls"] = (calls("setfn.ds_decompose"), "count")
    m["setfn.submod_check_calls"] = (calls("setfn.submod_check"), "count")
    m["setfn.self_s"] = (module_self("setfn"), "s")
    for name in ("numerics.sym_eigs", "numerics.least_squares", "numerics.lu"):
        m[name + "_calls"] = (calls(name), "count")
    m["numerics.self_s"] = (module_self("numerics"), "s")
    for name in ("bound.solve_bound", "bound.vertex_levels"):
        m[name + "_calls"] = (calls(name), "count")
        m[name + "_s"] = (busy(name), "s")
    m["bound.feasible_points"] = (counter("feasible_points"), "count")
    m["bound.cells_computed"] = (counter("cells_computed"), "count")
    m["bound.self_s"] = (module_self("bound"), "s")
    for name in ("geometry.add_cut", "geometry.subdivide"):
        m[name + "_calls"] = (calls(name), "count")
        m[name + "_s"] = (busy(name), "s")
    m["geometry.poly_rows_max"] = (probe.rows_max, "count")
    m["geometry.self_s"] = (module_self("geometry"), "s")
    m["solver.solve_calls"] = (calls("solver.solve"), "count")
    m["solver.cutting_plane_calls"] = (calls("solver.cutting_plane"), "count")
    m["solver.cutting_plane_s"] = (busy("solver.cutting_plane"), "s")
    m["solver.self_s"] = (float(np.sum(self_s[sel("solver.solve", in_op)])) / n_ops, "s")
    for key in SOLVE_COUNTERS:
        m["solver." + key] = (counter(key), "count")
    m["solver.prune_ratio"] = (deleted / created, "ratio")
    m["baselines.ssp_s"] = (per_call("baselines.ssp"), "s")
    m["baselines.ssp_iterations"] = (statistics.fmean(
        i for ref in refs for i in ref["ssp_iterations"]), "count")
    m["baselines.greedy_s"] = (per_call("baselines.greedy"), "s")
    m["baselines.gap_ssp"] = (gap(refs, "ssp_gap"), "ratio")
    m["baselines.gap_greedy"] = (gap(refs, "greedy_gap"), "ratio")
    m["ref.brute_s_p50"] = (brute_p50, "s")
    m["ref.ratio"] = (solve_p50 / brute_p50, "ratio")
    return {k: (float(v), u) for k, (v, u) in m.items()}


def gap(refs, key):
    return statistics.fmean(g for ref in refs for g in ref[key])


def import_seconds():
    """Time to import dsprism (with numpy) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import dsprism; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def environment():
    import numpy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dsprism" / "__init__.py").is_file():
        print("error: %s holds no dsprism sources (src/dsprism)" % ROOT, file=sys.stderr)
        return 2

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from calibrate import REF_S, Calibration
    from tracing import CHECK, BoundProbe, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    probe = BoundProbe()
    probe.install()
    gen = (lambda make, key, seed: make(key, seed))
    if tracer is not None:
        gen = tracer.wrap("experiments.gen", gen)

    cal = Calibration()
    cal.take()
    imports = [import_seconds() for _ in range(IMPORT_REPS)]
    gens = []
    for _ in range(SETUP_REPS):
        cal.take()
        t = time.perf_counter()
        pool = workload.setup(args.seed, gen)
        gens.append(time.perf_counter() - t)
    gc.collect()  # leave no set-up garbage for the measured loop to collect
    ops, window = run_loop(workload, pool, probe, args.seconds, tracer, cal)
    cal.take()
    setup_s = statistics.median(imports) + statistics.median(gens)
    raw, tail_q = end_to_end(ops, window, setup_s, len(pool))
    e2e, _ = end_to_end(ops, window, setup_s, len(pool), cal.scale())
    if tracer is not None:
        tracer.op = CHECK
    refs = workload.check(pool, ops)
    probe.uninstall()
    if tracer is not None:
        tracer.uninstall()

    failed = sum(op["failed"] for op in ops)
    first, deterministic = per_instance(ops, len(pool))
    layers = per_layer(tracer, probe, ops, len(pool), refs) if tracer else None
    summary = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workload.why, "recipe": workload.recipe,
        "environment": environment(), "pool": len(pool), "ops": len(ops),
        "window_s": window, "import_runs_s": imports, "generation_runs_s": gens,
        "calibration": {"ref_s": REF_S, "samples_s": cal.samples,
                        "scale": cal.scale(), "spent_s": cal.spent_s},
        "failed": failed, "failed_frac": failed / len(ops),
        "deterministic": deterministic, "tail_percentile": tail_q,
        "baseline_gap_ssp": gap(refs, "ssp_gap"),
        "baseline_gap_greedy": gap(refs, "greedy_gap"),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_as_measured": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "per_layer": layers and {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "spans": span_table(tracer) if tracer else None,
        "instances": first,
        "op_walls": [[op["instance"], op["wall_s"], op["samples_before"]] for op in ops],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / ("%s-seed%d-trace%d" % (workload.name, args.seed, args.trace))
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / ("%s-spans.npz" % workload.name))

    print("workload %s  seed %d  trace %d  (%s)" % (workload.name, args.seed,
                                                   args.trace, workload.why))
    print("recipe: %s" % workload.recipe)
    print("environment: %s" % json.dumps(summary["environment"]))
    print("%d operations over %.2f s on %d instances; tail = p%d of %d samples"
          % (len(ops), window, len(pool), tail_q, len(ops)))
    print("calibration: %d samples, median %.4g ms, scale %.4f (reference %.4g ms)"
          % (len(cal.samples), 1e3 * REF_S / cal.scale(), cal.scale(), 1e3 * REF_S))
    print("  %-28s %14s %14s" % ("metric", "reported", "as measured"))
    for k, (v, u) in e2e.items():
        print("  %-28s %14.6g %14.6g %s" % (k, v, raw[k][0], u))
    print("  %-28s %14.6g ratio  (%d of %d operations)"
          % ("failed_frac", failed / len(ops), failed, len(ops)))
    print("  %-28s %14.6g ratio" % ("baseline_gap_ssp", summary["baseline_gap_ssp"]))
    print("  %-28s %14.6g ratio" % ("baseline_gap_greedy", summary["baseline_gap_greedy"]))
    print("deterministic repeats: %s" % deterministic)
    if layers:
        for k, (v, u) in layers.items():
            print("  %-28s %14.6g %s" % (k, v, u))
    metrics = layers if layers else e2e
    print(json.dumps({"correct": failed == 0 and deterministic,
                      "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
