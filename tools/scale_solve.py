"""Wall time and peak memory of one cut-minus-modular solve from tables.

    python3 tools/scale_solve.py N [--src DIR]

Builds the cut-n12 recipe of ``perfbench/workloads.py`` at ground-set size N
(edges with probability 0.6 and weight U(0.1, 1), modular weights N(0, 0.7),
drawn from ``numpy.random.default_rng([0, 0])``), tabulates both oracles,
then times ``solve`` on the two tables.  It prints one line, and exits 1
when the solve does not end optimal:

    cut-minus-modular n = 16: solve 0.18 s, peak RSS 74 MB, optimal

Peak RSS is ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` of the whole
process, so run the script in a fresh interpreter, one size per run.  BLAS
runs on one thread, as perfbench and ``tools/identity_hash.py`` run.
``--src`` imports dsprism from another checkout's ``src`` directory, so two
checkouts can be compared.
"""

import argparse
import os
import resource
import sys
import time
from pathlib import Path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="ground-set size, 2..24")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory that holds the dsprism package")
    args = ap.parse_args(argv)
    if not 2 <= args.n <= 24:
        ap.error("n must lie in 2..24, got %d" % args.n)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, args.src)
    import numpy as np
    from dsprism import setfn
    from dsprism.solver import solve

    n = args.n
    rng = np.random.default_rng([0, 0])
    edges = [(u, v, float(rng.uniform(0.1, 1.0)))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    f = setfn.as_table(setfn.cut(n, edges or [(0, 1, 0.5)]))
    g = setfn.as_table(setfn.modular(rng.normal(0.0, 0.7, size=n)))
    t0 = time.perf_counter()
    report = solve(f, g)
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("cut-minus-modular n = %d: solve %.2f s, peak RSS %.0f MB, %s"
          % (n, wall, rss, report.termination_reason))
    return 0 if report.termination_reason == "optimal" else 1


if __name__ == "__main__":
    sys.exit(main())
