"""Reference solutions, error norms, and the three verification studies.

The error of a coarse trajectory is measured against a high-fidelity
reference on a nested finer mesh: both piecewise-linear-in-time
interpolants are prolonged to the reference space and their difference is
integrated exactly on the union of the two time grids (the difference is
linear in time on every union cell).  The energy-norm composition follows
the X/Y spaces: L2-H1, Linf-L2 and a dual-norm surrogate for the time
derivative of the potential error; Linf-L2 and L2-L2 of the time
derivative for the recovery error.

The dual norm of d/dt e_u is approximated by its discrete Riesz
representer on the reference space: per time cell, the load vector r of
the derivative against P1 test functions gives sqrt(r' (K+M)^-1 r).
"""

import numpy as np
import scipy.sparse.linalg as spla
from dataclasses import dataclass

from .assembly import _PERMC_SPEC, DiscreteOperators
from .estimators import estimate_trajectory, linearization_indicator
from .mesh import prolongation, unit_square_mesh
from .solver import (NewtonConfig, SolverError, _march_steps, initial_state,
                     newton_solve, step_count, time_march)

__all__ = [
    "REFERENCE_TOL",
    "ErrorNorms",
    "UpperBoundRow",
    "ConvergenceRow",
    "StudyResult",
    "NewtonStudyRow",
    "build_reference",
    "error_curve",
    "upper_bound_study",
    "convergence_study",
    "newton_study",
]

_TIME_ATOL = 1e-9
#: Newton tolerance of reference-grade marches: rounding level
REFERENCE_TOL = 1e-15


@dataclass(frozen=True)
class ErrorNorms:
    """Energy-norm components of a trajectory error on (0, time).

    combined_xy is the root of the squared sum of the five components;
    l2_dt_u is a diagnostic (the L2-L2 norm dominating the dual surrogate).
    """

    time: float
    l2h1: float
    linf_l2_u: float
    linf_l2_w: float
    dual_dt_u: float
    l2_dt_w: float
    l2_dt_u: float
    combined_xy: float


@dataclass(frozen=True)
class UpperBoundRow:
    time: float
    error: float
    estimator: float
    effectivity: float


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float           # cell width 1/n
    h_max: float       # true max triangle diameter
    tau: float
    error: float
    estimator: float
    effectivity: float


@dataclass
class StudyResult:
    """Convergence-ladder rows (coarsest first) and fitted log-log orders;
    the orders are None for a single-rung ladder."""

    rows: list
    error_order: float
    estimator_order: float


@dataclass(frozen=True)
class NewtonStudyRow:
    time: float
    k: int
    gamma: float
    error_u_h1: float
    error_w_l2: float
    error_combined: float


def build_reference(mesh, tau, t_end, p, tol=REFERENCE_TOL, initial=None):
    """High-fidelity trajectory on `mesh`.

    Newton is driven to `tol` (rounding level) so the linearization error
    is negligible; the march is :func:`time_march`, which factors no
    matrix, and the penultimate iterates are not stored.
    """
    cfg = NewtonConfig(mode="increment_tolerance", tol=tol,
                       max_iterations=40)
    return time_march(mesh, p, tau, t_end, cfg=cfg, initial=initial,
                      store_penultimate=False)


def _interpolator(traj, P=None):
    """Piecewise-linear-in-time evaluation of a trajectory, prolonged to
    the reference mesh when P is given."""
    U = traj.U if P is None else traj.U @ P.T
    W = traj.W if P is None else traj.W @ P.T
    times = traj.times

    def at(t):
        j = np.searchsorted(times, t + _TIME_ATOL) - 1
        j = min(max(j, 0), len(times) - 2)
        s = (t - times[j]) / (times[j + 1] - times[j])
        s = min(max(s, 0.0), 1.0)
        return ((1.0 - s) * U[j] + s * U[j + 1],
                (1.0 - s) * W[j] + s * W[j + 1])

    return at


def _union_grid(a, b, t_max):
    pts = np.concatenate([a[a <= t_max + _TIME_ATOL],
                          b[b <= t_max + _TIME_ATOL]])
    pts = np.sort(pts)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.diff(pts) > _TIME_ATOL
    return pts[keep]


def error_curve(coarse, ref, eval_times):
    """ErrorNorms of coarse-vs-reference on (0, t] for each requested t.

    Both trajectories must start at t=0, on structured grids whose
    widths nest: the coarse width divides the reference width
    (:func:`mesh.prolongation`), whichever way the meshes were built, so
    a trajectory loaded from a checkpoint scores against a reference
    built apart from it.  Requested times
    must lie on the union of the two time grids (any accepted timestep of
    either run qualifies).  Single pass over the union grid.
    """
    eval_times = np.sort(np.asarray(eval_times, dtype=float))
    if len(eval_times) == 0:
        return []
    t_max = eval_times[-1]
    for traj in (coarse, ref):
        if traj.times[-1] + _TIME_ATOL < t_max:
            raise ValueError("trajectory ends before the requested time")

    P = None if coarse.mesh is ref.mesh else prolongation(coarse.mesh,
                                                          ref.mesh)
    coarse_at = _interpolator(coarse, P)
    ref_at = _interpolator(ref)
    ops = DiscreteOperators(ref.mesh)
    mass, stiff = ops.mass, ops.stiffness
    gram_lu = spla.splu(ops.h1_gram.tocsc(), permc_spec=_PERMC_SPEC)

    grid = _union_grid(coarse.times, ref.times, t_max)
    missing = eval_times[~np.isclose(eval_times[:, None], grid[None, :],
                                     rtol=0.0, atol=_TIME_ATOL).any(axis=1)]
    if len(missing):
        raise ValueError(f"evaluation times {missing} are not grid points "
                         "of either trajectory")

    def endpoint(t):
        uc, wc = coarse_at(t)
        ur, wr = ref_at(t)
        eu, ew = uc - ur, wc - wr
        return eu, ew, mass @ eu, stiff @ eu, mass @ ew

    l2h1 = dual2 = dtw2 = dtu2 = 0.0
    eu_a, ew_a, Mu_a, Ku_a, Mw_a = endpoint(grid[0])
    linf_u2 = float(eu_a @ Mu_a)
    linf_w2 = float(ew_a @ Mw_a)
    out = []
    next_eval = 0
    if np.isclose(grid[0], eval_times[0], rtol=0.0, atol=_TIME_ATOL):
        # degenerate request at t=0
        out.append(ErrorNorms(float(grid[0]), 0.0, np.sqrt(linf_u2),
                              np.sqrt(linf_w2), 0.0, 0.0, 0.0,
                              np.sqrt(linf_u2 + linf_w2)))
        next_eval = 1

    for a, b in zip(grid[:-1], grid[1:]):
        dt = b - a
        eu_b, ew_b, Mu_b, Ku_b, Mw_b = endpoint(b)
        # exact integral of the quadratic t -> |e_u(t)|_H1^2 on the cell
        qa = eu_a @ (Mu_a + Ku_a)
        qab = eu_a @ (Mu_b + Ku_b)
        qb = eu_b @ (Mu_b + Ku_b)
        l2h1 += dt / 3.0 * (qa + qab + qb)
        # piecewise-constant time derivatives
        r = (Mu_b - Mu_a) / dt
        dual2 += dt * float(r @ gram_lu.solve(r))
        dtu2 += float((eu_b - eu_a) @ (Mu_b - Mu_a)) / dt
        dtw2 += float((ew_b - ew_a) @ (Mw_b - Mw_a)) / dt
        linf_u2 = max(linf_u2, float(eu_b @ Mu_b))
        linf_w2 = max(linf_w2, float(ew_b @ Mw_b))
        eu_a, ew_a, Mu_a, Ku_a, Mw_a = eu_b, ew_b, Mu_b, Ku_b, Mw_b

        while (next_eval < len(eval_times)
               and b + _TIME_ATOL >= eval_times[next_eval]):
            combined = np.sqrt(l2h1 + linf_u2 + dual2 + linf_w2 + dtw2)
            out.append(ErrorNorms(
                time=float(eval_times[next_eval]),
                l2h1=float(np.sqrt(l2h1)),
                linf_l2_u=float(np.sqrt(linf_u2)),
                linf_l2_w=float(np.sqrt(linf_w2)),
                dual_dt_u=float(np.sqrt(dual2)),
                l2_dt_w=float(np.sqrt(dtw2)),
                l2_dt_u=float(np.sqrt(dtu2)),
                combined_xy=float(combined)))
            next_eval += 1
        if next_eval == len(eval_times):
            break
    return out


def upper_bound_study(coarse, ref, p=None):
    """Per-timestep comparison of the error curve with the cumulative
    simplified-indicator bound; returns UpperBoundRow per accepted coarse
    step."""
    p = p or coarse.params
    est = estimate_trajectory(coarse, p, simplified=True)
    errors = error_curve(coarse, ref, coarse.times[1:])
    rows = []
    for err, bound in zip(errors, est.cumulative):
        eff = float(bound / err.combined_xy) if err.combined_xy > 0 \
            else np.inf
        rows.append(UpperBoundRow(err.time, err.combined_xy, float(bound),
                                  eff))
    return rows


def _fit_order(hs, values):
    if len(hs) < 2:
        return None
    return float(np.polyfit(np.log(hs), np.log(values), 1)[0])


def convergence_study(rungs, t_end, p, ref_levels=2, ref_tau=None,
                      ref_tol=REFERENCE_TOL, newton_cfg=None):
    """Halving ladder of (n, tau) runs against one fixed reference.

    `rungs` is a list of (n, tau) with each n doubling the previous one.
    Each rung marches on unit_square_mesh(n).  The reference is built on
    the grid ref_levels refinements above the finest rung,
    unit_square_mesh(n 2^ref_levels), with timestep ref_tau (default: a
    quarter of the finest rung's tau).  Each rung is scored
    at t_end by :func:`upper_bound_study`, with the simplified-indicator
    bound.
    """
    ns = [n for n, _ in rungs]
    for i, n in enumerate(ns):
        if n != ns[0] * 2 ** i:
            raise ValueError("ladder mesh sizes must double at each rung")

    if ref_tau is None:
        ref_tau = rungs[-1][1] / 4.0
    reference = build_reference(unit_square_mesh(ns[-1] * 2 ** ref_levels),
                                ref_tau, t_end, p, tol=ref_tol)

    newton_cfg = newton_cfg or NewtonConfig()
    rows = []
    for n, tau in rungs:
        mesh = unit_square_mesh(n)
        traj = time_march(mesh, p, tau, t_end, cfg=newton_cfg)
        last = upper_bound_study(traj, reference, p)[-1]
        rows.append(ConvergenceRow(n=n, h=1.0 / n,
                                   h_max=mesh.max_diameter, tau=tau,
                                   error=last.error, estimator=last.estimator,
                                   effectivity=last.effectivity))

    hs = [r.h for r in rows]
    return StudyResult(rows=rows,
                       error_order=_fit_order(hs, [r.error for r in rows]),
                       estimator_order=_fit_order(
                           hs, [r.estimator for r in rows]))


def newton_study(mesh, tau, instants, p, tol=REFERENCE_TOL):
    """Per-iterate linearization indicator against the true linearization
    error at selected instants.

    Marches from the default initial data at reference-grade tolerance,
    on the march loop of :func:`time_march` and its extrapolated Newton
    starts.  The step that ends at a requested instant is solved once
    more from the accepted state x^(n-1) before it, the start
    :func:`solver.newton_solve` takes alone: from the march's start the
    first iterate already lands on the solution and leaves nothing to
    study.  Its converged Newton iterate serves as ground truth, and each
    iterate k >= 1 yields a row with its indicator and its (H1 for u, L2
    for w) distance from the converged pair.  Instants must be positive
    multiples of tau, in the sense of :func:`solver.step_count`;
    ValueError otherwise.
    """
    try:
        at_step = {step_count(tau, t): float(t) for t in instants}
    except SolverError as exc:
        raise ValueError(f"instants: {exc}") from exc

    ops = DiscreteOperators(mesh)
    cfg = NewtonConfig(mode="increment_tolerance", tol=tol,
                       max_iterations=60)
    accepted = initial_state(ops)
    steps = _march_steps(accepted, tau, max(at_step), p, cfg, ops)

    tables = {}
    for n, (_, iterates) in enumerate(steps, start=1):
        prev, accepted = accepted, iterates[-1]
        if n not in at_step:
            continue
        t_n = n * tau
        states = newton_solve(prev, tau, p, cfg, ops=ops)[2]
        conv = states[-1]
        rows = []
        for k in range(1, len(states)):
            gamma = linearization_indicator((states[k - 1], states[k]), p,
                                            ops=ops)
            err_u = ops.h1_norm(states[k].u - conv.u)
            err_w = ops.l2_norm(states[k].w - conv.w)
            rows.append(NewtonStudyRow(
                time=t_n, k=k, gamma=gamma, error_u_h1=err_u,
                error_w_l2=err_w,
                error_combined=float(np.hypot(err_u, err_w))))
        tables[at_step[n]] = rows
    return tables
