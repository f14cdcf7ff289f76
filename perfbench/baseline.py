"""Regenerate the ROADMAP baseline in one command.

    python3 perfbench/baseline.py [--seed 0] [--seconds 30]

Runs every workload untraced and then traced, checks that both runs
returned the same optimal sets, values and counters on every instance, and
prints the end-to-end figures, the per-layer split of an operation, the gap
to vectorized brute force and the tracing overhead as Markdown.  The
figures are also written to perfbench/out/baseline.json.  Exits 1 when an
answer is wrong or a count differs between the two runs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# spans whose share of an operation the ROADMAP baseline quotes
SPLIT = ("bound.solve_bound", "solver.cutting_plane", "geometry.add_cut",
         "setfn.as_table", "numerics.sym_eigs", "numerics.least_squares",
         "setfn.ds_decompose", "baselines.ssp", "solver.solve")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s failed with exit code %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads((OUT_DIR / ("%s-seed%d-trace%d.json" % (workload, seed, trace)))
                         .read_text())
    return result, summary


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    report = {}
    for name in (w["name"] for w in bench["workloads"]):
        plain, plain_sum = run(name, args.seed, args.seconds, 0)
        traced, traced_sum = run(name, args.seed, args.seconds, 1)
        same = plain_sum["instances"] == traced_sum["instances"]
        correct = plain["correct"] and traced["correct"] and same
        ok &= correct
        spans = traced_sum["spans"]
        op_s = spans["op/bench.op"]["busy_s"]
        e2e = {k: v["value"] for k, v in plain_sum["end_to_end"].items()}
        report[name] = {
            "correct": correct, "traced_matches_untraced": same,
            "ops": plain_sum["ops"], "tail_percentile": plain_sum["tail_percentile"],
            "failed_frac": plain_sum["failed_frac"],
            "baseline_gap_ssp": plain_sum["baseline_gap_ssp"],
            "baseline_gap_greedy": plain_sum["baseline_gap_greedy"],
            "end_to_end": e2e,
            "split": {s: spans["op/" + s]["busy_s"] / op_s for s in SPLIT
                      if "op/" + s in spans},
            "ref_brute_s_p50": traced["metrics"]["ref.brute_s_p50"]["value"],
            "ref_ratio": traced["metrics"]["ref.ratio"]["value"],
            "tracing_overhead": (traced_sum["end_to_end"]["solve_s_p50"]["value"]
                                 / e2e["solve_s_p50"] - 1.0),
            "environment": plain_sum["environment"],
        }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")

    env = next(iter(report.values()))["environment"]
    print("Baseline, seed %d, %g s per run; nproc %d, Python %s, numpy %s, BLAS threads %s"
          % (args.seed, args.seconds, env["nproc"], env["python"], env["numpy"],
             env["blas_threads"]["OPENBLAS_NUM_THREADS"]))
    print()
    print("| workload | setup_s | solve_s_p50 | solve_s_tail | solves_per_s | peak_rss_mb "
          "| oracle_evals_per_solve | failed_frac | gap ssp / greedy | correct |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name, r in report.items():
        e = r["end_to_end"]
        print("| %s | %.3f | %.4f | %.4f (p%d of %d) | %.3f | %.1f | %.0f | %g | %.4f / %.4f | %s |"
              % (name, e["setup_s"], e["solve_s_p50"], e["solve_s_tail"],
                 r["tail_percentile"], r["ops"], e["solves_per_s"], e["peak_rss_mb"],
                 e["oracle_evals_per_solve"], r["failed_frac"], r["baseline_gap_ssp"],
                 r["baseline_gap_greedy"], r["correct"]))
    print()
    print("Share of an operation's wall time per layer (traced run; spans nest, "
          "so shares of nested spans overlap):")
    print()
    for name, r in report.items():
        parts = sorted(r["split"].items(), key=lambda kv: -kv[1])
        print("- %s: %s" % (name, ", ".join("%s %.0f%%" % (s, 100 * v) for s, v in parts)))
    print()
    for name, r in report.items():
        print("- %s: vectorized brute force %.2g s per solve; a solve takes %.3g times "
              "as long; tracing overhead on solve_s_p50 %+.1f%%"
              % (name, r["ref_brute_s_p50"], r["ref_ratio"], 100 * r["tracing_overhead"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
