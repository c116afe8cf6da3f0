"""Spans around public monofem calls, recorded from outside the package.

`Tracer.install(mods)` replaces functions and methods of freshly imported
monofem modules by wrappers that record one span per call: name, start,
end and the index of the enclosing span.  The solver module's view of
`scipy.sparse.linalg` is replaced as well, so `splu`, `gmres` and the
factor's `solve` show up as spans when called from `monofem.solver` (and
only then: the error pass's own factorization stays inside its span).
Spans stay in memory; `per_layer` turns one job's spans into layer metrics.

A span's self time is its duration minus the durations of its direct
children.  Every span name belongs to one layer, except the helper methods
in `_INHERIT`, whose self time goes to the layer of the nearest ancestor
that has one; the phase spans (`time_march`, `build_reference`,
`upper_bound_study`) belong to no layer.  The layer
self times therefore partition the traced job and sum to at most its wall
time, by construction.
"""

import functools
import statistics
import time

import numpy as np

_LAYERS = {
    "unit_square_mesh": "mesh.build",
    "mesh_chain": "mesh.build",
    "refine_uniform": "mesh.build",
    "DiscreteOperators": "assembly.operators",
    "newton_solve": "assembly.jacobian",
    "react": "ionic.react",
    "linear_solve": "solver.linear",
    "splu": "solver.linear",
    "gmres": "solver.linear",
    "factor_solve": "solver.linear",
    "estimate_trajectory": "estimators.estimate",
    "simplified_indicators": "estimators.estimate",
    "space_indicator": "estimators.estimate",
    "time_indicator": "estimators.estimate",
    "linearization_indicator": "estimators.estimate",
    "initial_projection_terms": "estimators.estimate",
    "error_curve": "verify.error_curve",
    "save": "cli.io",
    "write_csv": "cli.io",
    "evaluate_p1": "cli.io",
}
_INHERIT = ("field_at", "weighted_mass", "load")
_INDICATORS = ("simplified_indicators", "space_indicator", "time_indicator",
               "linearization_indicator")

#: (module, attribute path, span name) of every wrapped call
_TARGETS = [
    ("mesh", "unit_square_mesh", "unit_square_mesh"),
    ("mesh", "mesh_chain", "mesh_chain"),
    ("mesh", "refine_uniform", "refine_uniform"),
    ("assembly", "DiscreteOperators.__init__", "DiscreteOperators"),
    ("assembly", "DiscreteOperators.field_at", "field_at"),
    ("assembly", "DiscreteOperators.weighted_mass", "weighted_mass"),
    ("assembly", "DiscreteOperators.load", "load"),
    ("assembly", "evaluate_p1", "evaluate_p1"),
    ("ionic", "react", "react"),
    ("solver", "newton_solve", "newton_solve"),
    ("solver", "DirectSolver.solve", "linear_solve"),
    ("solver", "FrozenLUSolver.solve", "linear_solve"),
    ("solver", "time_march", "time_march"),
    ("solver", "TrajectorySolution.save", "save"),
    ("estimators", "simplified_indicators", "simplified_indicators"),
    ("estimators", "space_indicator", "space_indicator"),
    ("estimators", "time_indicator", "time_indicator"),
    ("estimators", "linearization_indicator", "linearization_indicator"),
    ("estimators", "initial_projection_terms", "initial_projection_terms"),
    ("verify", "time_march", "time_march"),
    ("verify", "estimate_trajectory", "estimate_trajectory"),
    ("verify", "build_reference", "build_reference"),
    ("verify", "error_curve", "error_curve"),
    ("verify", "upper_bound_study", "upper_bound_study"),
    ("cli", "write_csv", "write_csv"),
]

# span fields
NAME, START, END, PARENT, INFO = range(5)

MB = 2.0 ** 20


class _Factor:
    """A SuperLU factor whose `solve` is traced."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("factor_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Linalg:
    """`scipy.sparse.linalg` with some of its functions replaced."""

    def __init__(self, real, **replaced):
        self._real = real
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans while `active`; wrappers pass straight through
    otherwise, so the benchmark's own checks leave no spans."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._undo = []

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mods):
        """Wrap the `_TARGETS` of the given modules (short name -> module)."""
        for mod, path, name in _TARGETS:
            owner = mods[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        real = mods["solver"].spla
        self._patch(mods["solver"], "spla",
                    _Linalg(real, splu=self._splu(real.splu),
                            gmres=self._gmres(real.gmres)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _splu(self, splu):
        def traced(*args, **kwargs):
            lu = self.call("splu", splu, args, kwargs)
            if self.active:
                # stored entries of L and U, read after the span has ended
                self.spans[-1][INFO] = int(lu.nnz)
            return _Factor(self, lu)
        return traced

    def _gmres(self, gmres):
        def traced(*args, **kwargs):
            iterations = [0]
            if self.active and kwargs.get("callback") is None:
                def count(_residual):
                    iterations[0] += 1
                kwargs = dict(kwargs, callback=count,
                              callback_type="pr_norm")
            index = len(self.spans)
            out = self.call("gmres", gmres, args, kwargs)
            if self.active:
                self.spans[index][INFO] = iterations[0]
            return out
        return traced


def self_times(spans):
    """Self time of every span, in span order."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(spans, i):
    """Layer a span's self time belongs to; None for phases and for helper
    spans without a layered ancestor."""
    while i >= 0:
        name = spans[i][NAME]
        if name in _LAYERS:
            return _LAYERS[name]
        if name not in _INHERIT:
            return None
        i = spans[i][PARENT]
    return None


def layer_self_times(spans):
    """Summed self time per layer."""
    totals = {}
    for i, own in enumerate(self_times(spans)):
        layer = layer_of(spans, i)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + own
    return totals


def _krylov_outcomes(spans):
    """(attempts, accepted): a GMRES attempt is accepted when its linear
    solve did not factorize again after it."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
    attempts = accepted = 0
    for i, s in enumerate(spans):
        if s[NAME] != "linear_solve":
            continue
        names = [spans[c][NAME] for c in children.get(i, [])]
        if "gmres" not in names:
            continue
        attempts += 1
        accepted += "splu" not in names[names.index("gmres"):]
    return attempts, accepted


def _union_cells(trajectories):
    """Cells of the union time grid the error pass walks (0 without one)."""
    if len(trajectories) < 2:
        return 0
    grid = np.unique(np.round(np.concatenate(
        [t.times for t in trajectories]), 9))
    return len(grid) - 1


def _trajectory_bytes(traj):
    total = traj.U.nbytes + traj.W.nbytes
    for pair in traj.penultimate or ():
        if pair is not None:
            total += pair[0].nbytes + pair[1].nbytes
    return total


def job_figures(result, checkpoint_bytes):
    """What the per-layer metrics need from one job's outputs, so that the
    outputs themselves can be dropped once the job has been checked."""
    return {
        "wall_s": result.wall_s,
        "steps": sum(t.num_steps for t in result.trajectories),
        "newton_iterates": int(sum(t.newton_counts().sum()
                                   for t in result.trajectories)),
        "trajectory_mb": sum(_trajectory_bytes(t)
                             for t in result.trajectories) / MB,
        "union_cells": _union_cells(result.trajectories),
        "checkpoint_mb": checkpoint_bytes / MB,
    }


def per_layer(spans, figures, setup_spans, untraced_wall_s):
    """Per-layer metrics of one traced job: {name: (value, unit)}.
    `figures` is the job's `job_figures`."""
    layers = layer_self_times(spans)
    setup_layers = layer_self_times(setup_spans)
    named = {}
    for s in spans:
        named.setdefault(s[NAME], []).append(s)

    def count(name):
        return len(named.get(name, ()))

    def total(name):
        return sum((s[END] - s[START] for s in named.get(name, ())), 0.0)

    parent_name = {i: spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
                   for i, s in enumerate(spans)}
    iterate_solves = sum(1 for i, s in enumerate(spans)
                         if s[NAME] == "linear_solve"
                         and parent_name[i] == "newton_solve")
    newton_react_s = sum(s[END] - s[START] for i, s in enumerate(spans)
                         if s[NAME] == "react"
                         and parent_name[i] == "newton_solve")
    indicator_calls = sum(1 for i, s in enumerate(spans)
                          if s[NAME] in _INDICATORS
                          and parent_name[i] == "estimate_trajectory")
    attempts, accepted = _krylov_outcomes(spans)
    linear_s = layers.get("solver.linear", 0.0)
    jacobian_s = layers.get("assembly.jacobian", 0.0)
    steps_ms = [1e3 * (s[END] - s[START]) for s in named.get("newton_solve",
                                                             ())]
    return {
        "mesh.build_s": (setup_layers.get("mesh.build", 0.0), "s"),
        "assembly.operators_s": (layers.get("assembly.operators", 0.0), "s"),
        "assembly.jacobian_s": (jacobian_s, "s"),
        "assembly.jacobian_calls": (iterate_solves, "count"),
        "assembly.ms_per_iterate": (
            1e3 * (jacobian_s + newton_react_s) / max(iterate_solves, 1),
            "ms"),
        "ionic.react_s": (layers.get("ionic.react", 0.0), "s"),
        "ionic.react_calls": (count("react"), "count"),
        "solver.linear_solves": (count("linear_solve"), "count"),
        "solver.linear_s": (linear_s, "s"),
        "solver.ms_per_linear_solve": (
            1e3 * linear_s / max(count("linear_solve"), 1), "ms"),
        "solver.factorizations": (count("splu"), "count"),
        "solver.factorize_s": (total("splu"), "s"),
        "solver.triangular_solves": (count("factor_solve"), "count"),
        "solver.triangular_s": (total("factor_solve"), "s"),
        "solver.lu_fill_nnz": (max((s[INFO] for s in named.get("splu", ())),
                                   default=0), "count"),
        "solver.steps": (figures["steps"], "count"),
        "solver.newton_iterates": (figures["newton_iterates"], "count"),
        "solver.step_ms_p50": (statistics.median(steps_ms) if steps_ms
                               else 0.0, "ms"),
        "solver.krylov_iters": (sum(s[INFO] for s in named.get("gmres", ())),
                                "count"),
        "solver.krylov_accept_ratio": (accepted / attempts if attempts
                                       else 0.0, "ratio"),
        "solver.trajectory_mb": (figures["trajectory_mb"], "MB"),
        "estimators.estimate_s": (layers.get("estimators.estimate", 0.0),
                                  "s"),
        "estimators.indicator_calls": (indicator_calls, "count"),
        "verify.reference_s": (total("build_reference"), "s"),
        "verify.error_curve_s": (layers.get("verify.error_curve", 0.0), "s"),
        "verify.union_cells": (figures["union_cells"], "count"),
        "cli.io_s": (layers.get("cli.io", 0.0), "s"),
        "cli.checkpoint_mb": (figures["checkpoint_mb"], "MB"),
        "trace.wall_s": (figures["wall_s"], "s"),
        "trace.overhead_s": (figures["wall_s"] - untraced_wall_s, "s"),
    }
