"""Spans around the public functions of each dsprism layer, recorded from
outside the package.

A wrapper replaces the function in every dsprism module namespace that
binds it, because callers bind by name at import time (``dsprism.solver``
imports ``solve_bound``, ``add_cut``, ``lovasz`` and others) while the
oracles look ``sym_eigs`` and ``least_squares`` up in ``dsprism.setfn``'s
globals when they run.  Oracle evaluations are spanned by wrapping
``SetFunction.__call__``.  A span is not opened inside a span of the same
name, so an oracle wrapped in another oracle, or ``lu_solve`` calling
``lu_factor``, counts once.

Spans live in flat typed arrays until the run ends.  Each records its name,
start, end, parent span and the operation it belongs to: ``SETUP`` for
instance generation, ``CHECK`` for the reference checks that follow the
measured loop, otherwise the index of the operation in the loop.
"""

import time
from array import array

import numpy as np

from dsprism import (baselines, bound, experiments, geometry, numerics, setfn,
                     solver)

SETUP = -1
CHECK = -2

MODULES = (setfn, numerics, geometry, bound, solver, baselines, experiments)

# (defining module, function, span name); several functions may share a name
TARGETS = (
    (setfn, "as_table", "setfn.as_table"),
    (setfn, "lovasz", "setfn.lovasz"),
    (setfn, "lovasz_subgradient", "setfn.subgradient"),
    (setfn, "brute_force_min", "setfn.brute_force_min"),
    (setfn, "ds_decompose", "setfn.ds_decompose"),
    (setfn, "is_submodular", "setfn.submod_check"),
    (setfn, "max_submodularity_violation", "setfn.submod_check"),
    (numerics, "sym_eigs", "numerics.sym_eigs"),
    (numerics, "least_squares", "numerics.least_squares"),
    (numerics, "lu_factor", "numerics.lu"),
    (numerics, "lu_solve_factored", "numerics.lu"),
    (numerics, "lu_solve", "numerics.lu"),
    (numerics, "det", "numerics.lu"),
    (bound, "solve_bound", "bound.solve_bound"),
    (bound, "vertex_levels", "bound.vertex_levels"),
    (geometry, "add_cut", "geometry.add_cut"),
    (geometry, "bisect", "geometry.subdivide"),
    (geometry, "radial_subdivide", "geometry.subdivide"),
    (solver, "cutting_plane", "solver.cutting_plane"),
    (solver, "solve", "solver.solve"),
    (baselines, "ssp", "baselines.ssp"),
    (baselines, "greedy", "baselines.greedy"),
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


class Tracer:
    """In-memory span recorder; ``op`` is stamped on every span opened."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.owner = array("i")
        self.op = SETUP
        self._stack = []  # (span index, name id)
        self._patches = Patches()

    def wrap(self, span_name, fn):
        """fn wrapped so that every call records a span named span_name."""
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        stack, clock = self._stack, time.perf_counter
        name, start, end, parent, owner = (self.name, self.start, self.end,
                                           self.parent, self.owner)

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            owner.append(self.op)
            end.append(0.0)
            stack.append((idx, nid))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target in every namespace that binds it."""
        for home, attr, span_name in TARGETS:
            original = getattr(home, attr)
            wrapped = self.wrap(span_name, original)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.set(mod, key, wrapped)
        self._patches.set(setfn.SetFunction, "__call__",
                          self.wrap("setfn.oracle", setfn.SetFunction.__call__))

    def uninstall(self):
        self._patches.undo()

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, owner, self time.

        Self time is the span's duration minus its direct children's.  Raises
        when a child does not lie inside its parent, which would make the
        self times meaningless.
        """
        nid = np.frombuffer(self.name, dtype=np.int32)
        t0 = np.frombuffer(self.start, dtype=np.float64)
        t1 = np.frombuffer(self.end, dtype=np.float64)
        par = np.frombuffer(self.parent, dtype=np.int32)
        own = np.frombuffer(self.owner, dtype=np.int32)
        dur = t1 - t0
        child = par >= 0
        if np.any(t0[child] < t0[par[child]]) or np.any(t1[child] > t1[par[child]]):
            raise RuntimeError("a span ends outside its parent")
        child_sum = np.bincount(par[child], weights=dur[child], minlength=len(dur))
        return nid, t0, t1, par, own, dur - child_sum

    def write(self, path):
        """Save every span to an .npz file: ``names`` and, per span,
        ``name`` (index into names), ``start``, ``end``, ``parent`` (span
        index, -1 for none) and ``op``."""
        nid, t0, t1, par, own, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name=nid, start=t0, end=t1,
                 parent=par, op=own)


class BoundProbe:
    """Counts what the bound program examines, in traced and untraced runs.

    Wraps ``solve_bound`` in ``dsprism.solver``, its only caller.  The
    ``feasible`` and ``cells`` tallies are read and reset per solve.
    """

    def __init__(self):
        self.feasible = 0
        self.cells = 0
        self.rows_max = 0
        self._patches = Patches()

    def install(self):
        inner = solver.solve_bound

        def solve_bound(S, P, *args, **kwargs):
            res = inner(S, P, *args, **kwargs)
            k = len(res.feasible_points)
            self.feasible += k
            self.cells += k * P.num_rows
            self.rows_max = max(self.rows_max, P.num_rows)
            return res

        self._patches.set(solver, "solve_bound", solve_bound)

    def uninstall(self):
        self._patches.undo()

    def take(self):
        out = (self.feasible, self.cells)
        self.feasible = self.cells = 0
        return out
