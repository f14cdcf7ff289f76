"""The benchmark's tracing hooks against the names they wrap: a renamed
function, argument or attribute fails here rather than in a benchmark run."""

import sys
from pathlib import Path

import numpy as np

from dsprism import bound, geometry, setfn, solver
from dsprism.experiments import gen_random_ds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import tracing
    import workloads
finally:
    sys.path.pop(0)


def test_tracer_and_bound_probe_wrap_one_solve():
    # through the benchmark's counting wrappers, as its workloads solve: a
    # block of a kernel-less oracle calls fn directly, and the wrapper's fn
    # calls the inner oracle's __call__
    inst = gen_random_ds(4, "cut_minus_modular", 0)
    tally = [0]
    f, g = workloads.counted(inst.f, tally), workloads.counted(inst.g, tally)
    oracle_call = setfn.SetFunction.__call__
    tracer, probe = tracing.Tracer(), tracing.BoundProbe()
    bounds, inside = [], []

    def observer(event, data):
        if event == "node_bound":
            bounds.append(data["bound"])
            lam = geometry.barycentric(data["simplex"], bound.binary_points(inst.n))
            inside.append(int(np.sum(np.min(lam, axis=1) >= -bound.MEMBERSHIP_TOL)))

    tracer.install()
    try:
        probe.install()
        try:
            rep = solver.solve(f, g, observer=observer)
        finally:
            probe.uninstall()
    finally:
        tracer.uninstall()
    assert rep.termination_reason == "optimal"
    nid = tracer.arrays()[0]
    spanned = {tracer.names[i] for i in set(nid.tolist())}
    assert {"solver.solve", "setfn.as_table", "setfn.oracle", "bound.solve_bound",
            "bound.vertex_levels", "geometry.add_cut", "solver.cutting_plane"} <= spanned
    assert list(nid).count(tracer.names.index("setfn.oracle")) == tally[0] == 2 << inst.n
    feasible, cells = probe.take()
    assert feasible > 0 and cells >= feasible
    # every bound call of this solve reports a node_bound event (none is a
    # refresh at selection), so the probe counts the binary points of the
    # bounded simplices, one per feasible point
    assert list(nid).count(tracer.names.index("bound.solve_bound")) == len(bounds)
    assert [len(b.feasible_points) for b in bounds] == inside
    assert feasible == sum(inside)
    assert probe.rows_max > 1
    # uninstalling restores every wrapped name
    assert solver.solve_bound is bound.solve_bound
    assert setfn.SetFunction.__call__ is oracle_call
    assert all(getattr(home, attr).__name__ == attr for home, attr, _ in tracing.TARGETS)
