"""Residual-based a posteriori indicators for the Newton-Galerkin scheme.

Three computable quantities per timestep: a space indicator (element
residuals weighted by h_K, conormal-derivative jumps weighted by sqrt(h_E),
plus the L2 residual of the recovery ODE), a time indicator (gradient
increment between accepted states plus the time-integrated reaction
mismatch along the linear-in-time interpolant), and a linearization
indicator (the Taylor remainder between the last two Newton iterates).
The cumulative upper-bound aggregate combines them with the initial
projection defects.

All residual norms are integrated exactly: the integrands are piecewise
polynomials of degree at most 6 in space (cubic reaction times linears,
squared) and in time, covered by the degree-6 triangle rule and 4-point
Gauss on each time interval.

Each indicator is a private kernel (`_space_terms`, `_time_terms`,
`_gamma`) on the values at the degree-6 points (`_at`) of the previous
state, the penultimate iterate and the accepted state, and on the
reaction there: :func:`ionic.react` at the penultimate values and (f, g)
at the accepted ones, which the caller evaluates once and hands to every
kernel that needs them.  The public indicators evaluate their states and
call the kernels.  :func:`estimate_trajectory` evaluates each accepted
state once and carries its values forward as the next step's previous
state.  Its simplified bound takes the accepted state as the penultimate
iterate: the space residual's reaction is then (f, g) at the accepted
state, and gamma is 0.0, so that bound calls no `react`.  The Newton
loop's balance mode gets both indicators of each iterate from one call
of `_iterate_indicators`, on values it evaluates once per state.
"""

import numpy as np
from dataclasses import dataclass

from . import ionic
from .assembly import DiscreteOperators, quadrature_coords

__all__ = [
    "EstimatorReport",
    "TrajectoryEstimate",
    "space_indicator",
    "time_indicator",
    "linearization_indicator",
    "simplified_indicators",
    "space_residual_functional",
    "initial_projection_terms",
    "cumulative_bound",
    "estimate_trajectory",
]

# 4-point Gauss-Legendre on [0, 1], exact through degree 7
_TIME_GAUSS_X = 0.5 + 0.5 * np.array([
    -0.8611363115940526, -0.3399810435848563,
    0.3399810435848563, 0.8611363115940526])
_TIME_GAUSS_W = 0.5 * np.array([
    0.3478548451374538, 0.6521451548625461,
    0.6521451548625461, 0.3478548451374538])


@dataclass
class EstimatorReport:
    """Indicator values of one timestep with their sub-terms.

    All `*_terms` entries are squared contributions; eta**2 equals the sum
    of element, edge and ODE terms by construction.  `time_parts` is the
    squared (gradient, P1, P2) decomposition of theta.
    """

    step: int
    time: float
    eta: float
    theta: float
    gamma: float
    element_terms: np.ndarray
    edge_terms: np.ndarray
    ode_term: float
    time_parts: tuple


@dataclass
class TrajectoryEstimate:
    """Per-step reports plus the cumulative upper-bound curve.

    `cumulative[n]` is the bound aggregate over (0, times[n+1]]: the square
    root of the initial projection defects plus the tau-weighted sum of the
    squared indicators up to that step; nondecreasing by construction.
    """

    reports: list
    initial_u2: float
    initial_w2: float
    cumulative: np.ndarray


def _operators(ops, p, *states):
    """`ops`, else the operators of `p`, on the mesh of `states`;
    ValueError when a state or `ops` lives on another mesh."""
    mesh = states[0].mesh if ops is None else ops.mesh
    if any(s.mesh is not mesh for s in states):
        raise ValueError("states and operators live on different meshes")
    return ops if ops is not None else DiscreteOperators.for_params(mesh, p)


def _at(ops, state):
    """(u, w) of `state` at the points of ops.rule6, each (nt, nq)."""
    return ops.field_at(state.u, ops.rule6), ops.field_at(state.w, ops.rule6)


def _edge_jump_terms(ops, u):
    """h_E * ||conormal jump of u||^2_{L2(E)} per edge.

    The jump uses the fixed normal of the lower-indexed incident triangle;
    boundary edges contribute their full conormal derivative (homogeneous
    Neumann residual).  For P1 the jump is constant along each edge, so the
    L2(E) norm is exact.
    """
    mesh = ops.mesh
    grads = np.einsum("ei,eid->ed", u[mesh.triangles], mesh.basis_gradients)
    flux = ops.conductivity * grads
    t1, t2 = mesh.edge_triangles.T
    jump = np.einsum("ed,ed->e", mesh.edge_normals, flux[t1])
    interior = t2 >= 0
    jump[interior] -= np.einsum("ed,ed->e", mesh.edge_normals[interior],
                                flux[t2[interior]])
    return mesh.edge_lengths ** 2 * jump ** 2


def _elementwise_l2sq(ops, values):
    """Squared L2 norm on each element of a quantity given at the points
    of ops.rule6."""
    return (np.einsum("eq,q->e", values ** 2, ops.rule6.weights)
            * ops.mesh.areas)


def _l2sq(ops, values):
    """Squared L2 norm of a quantity given at the points of ops.rule6."""
    return float(_elementwise_l2sq(ops, values).sum())


def _reaction(p, values):
    """(f, g) at the values (u, w)."""
    u, w = values
    return ionic.f_value(u, w, p), ionic.g_value(u, w, p)


def _linearized_reaction(r, pen, acc):
    """(f, g) linearized at the values `pen`, where `r` is their
    :func:`ionic.react`, and taken at the values `acc`."""
    (u1, w1), (u2, w2) = pen, acc
    return (r.f + r.f_u * (u2 - u1) + r.f_w * (w2 - w1),
            r.g + r.g_u * (u2 - u1) + r.g_w * (w2 - w1))


def _space_terms(ops, tau, acc_u, prev, acc, lin):
    """(eta, element_terms, edge_terms, ode_term) from the values of the
    previous and the accepted state, the nodal u of the accepted state,
    and the reaction `lin` (f, g) of the space residual: linearized at
    the penultimate iterate, or at the accepted state itself, where it is
    (f, g) there."""
    lin_f, lin_g = lin
    res_pde = -(acc[0] - prev[0]) / tau - lin_f
    res_ode = -(acc[1] - prev[1]) / tau - lin_g
    element_terms = ops.mesh.diameters ** 2 * _elementwise_l2sq(ops, res_pde)
    edge_terms = _edge_jump_terms(ops, acc_u)
    ode_term = _l2sq(ops, res_ode)
    eta = float(np.sqrt(element_terms.sum() + edge_terms.sum() + ode_term))
    return eta, element_terms, edge_terms, ode_term


def _time_terms(ops, p, du, prev, acc, fg_acc):
    """(theta, parts) from the nodal increment of u, the values of the
    two accepted states and (f, g) at the second; the reaction mismatch is
    integrated along the linear-in-time interpolant by 4-point Gauss."""
    grad_part = float(du @ (ops.stiffness @ du)) / 3.0
    (up, wp), (ua, wa) = prev, acc
    f_acc, g_acc = fg_acc
    p1_part = p2_part = 0.0
    for s, ws in zip(_TIME_GAUSS_X, _TIME_GAUSS_W):
        u_s = up + s * (ua - up)
        w_s = wp + s * (wa - wp)
        p1_part += ws * _l2sq(ops, ionic.f_value(u_s, w_s, p) - f_acc)
        p2_part += ws * _l2sq(ops, ionic.g_value(u_s, w_s, p) - g_acc)
    theta = float(np.sqrt(grad_part + p1_part + p2_part))
    return theta, (grad_part, p1_part, p2_part)


def _gamma(ops, r, pen, acc, fg_acc):
    """L2 norm of the Taylor remainder of (f, g) from the values `pen`,
    whose :func:`ionic.react` is `r`, to the values `acc`, where (f, g) is
    `fg_acc`, summed left to right.  As f(acc) minus
    :func:`_linearized_reaction` it would round otherwise, which moves the
    gammas near 4e-17 and changes newton_study.csv."""
    (u1, w1), (u2, w2) = pen, acc
    du, dw = u2 - u1, w2 - w1
    q1 = fg_acc[0] - r.f - r.f_u * du - r.f_w * dw
    q2 = fg_acc[1] - r.g - r.g_u * du - r.g_w * dw
    return float(np.sqrt(_l2sq(ops, q1) + _l2sq(ops, q2)))


def _iterate_indicators(ops, p, tau, prev_q, pen_q, acc_q, acc_u):
    """(gamma, eta) of one Newton iterate of a step: the linearization
    indicator from the values `pen_q` of the iterate before it to its own
    values `acc_q`, and the space indicator of the step from the values
    `prev_q` of the previous state with the iterate, whose nodal u is
    `acc_u`, as the accepted state.  One :func:`ionic.react`, at `pen_q`,
    serves both."""
    r = ionic.react(*pen_q, p)
    gamma = _gamma(ops, r, pen_q, acc_q, _reaction(p, acc_q))
    lin = _linearized_reaction(r, pen_q, acc_q)
    return gamma, _space_terms(ops, tau, acc_u, prev_q, acc_q, lin)[0]


def space_indicator(prev, last_two_iterates, tau, p, ops=None):
    """Space indicator of one step from the last two Newton iterates.

    Returns (eta, element_terms, edge_terms, ode_term); the squared terms
    satisfy eta**2 = sum(element) + sum(edge) + ode exactly.  The element
    residual has no diffusion part: div(M grad u_h) vanishes on each
    element for P1 and the scalar conductivity M; the conductivity enters
    through the conormal jumps of the edge terms.  `ops` defaults to the
    operators of `p` on the states' mesh.
    """
    pen, acc = last_two_iterates
    ops = _operators(ops, p, prev, pen, acc)
    pen_q, acc_q = _at(ops, pen), _at(ops, acc)
    lin = _linearized_reaction(ionic.react(*pen_q, p), pen_q, acc_q)
    return _space_terms(ops, tau, acc.u, _at(ops, prev), acc_q, lin)


def time_indicator(prev, accepted, tau, p, ops=None):
    """Time indicator of one step.

    theta**2 = (1/3) |M^(1/2) grad(u^n - u^(n-1))|^2 plus the mean squared
    L2 mismatch of f and g along the linear-in-time interpolant; returns
    (theta, (gradient_part, p1_part, p2_part)) with squared parts.  `ops`
    defaults to the operators of `p` on the states' mesh.
    """
    ops = _operators(ops, p, prev, accepted)
    acc_q = _at(ops, accepted)
    return _time_terms(ops, p, accepted.u - prev.u, _at(ops, prev), acc_q,
                       _reaction(p, acc_q))


def linearization_indicator(last_two_iterates, p, ops=None):
    """L2 norm of the Taylor remainder of (f, g) between two Newton
    iterates."""
    pen, acc = last_two_iterates
    ops = _operators(ops, p, pen, acc)
    pen_q, acc_q = _at(ops, pen), _at(ops, acc)
    return _gamma(ops, ionic.react(*pen_q, p), pen_q, acc_q,
                  _reaction(p, acc_q))


def simplified_indicators(prev, accepted, tau, p, ops=None):
    """Space and time indicators with the linearization disregarded.

    The reaction terms are evaluated at the accepted state itself, which is
    the appropriate form once Newton has converged to rounding level: the
    space indicator with the accepted state as both of the last two
    iterates.  Returns ((eta, element_terms, edge_terms, ode_term),
    (theta, parts)).  `ops` defaults to the operators of `p` on the
    states' mesh.
    """
    ops = _operators(ops, p, prev, accepted)
    prev_q, acc_q = _at(ops, prev), _at(ops, accepted)
    fg_acc = _reaction(p, acc_q)
    return (_space_terms(ops, tau, accepted.u, prev_q, acc_q, fg_acc),
            _time_terms(ops, p, accepted.u - prev.u, prev_q, acc_q, fg_acc))


def space_residual_functional(prev, last_two_iterates, tau, p, ops=None):
    """Nodal vectors (r1, r2) representing the space residual pair on V_h.

    `r1 . phi` equals the space residual applied to the P1 function with
    nodal values phi (same for r2/psi); both vanish up to the linear-solver
    residual because the Newton system enforces exactly this orthogonality.
    `ops` defaults to the operators of `p` on the states' mesh.
    """
    pen, acc = last_two_iterates
    ops = _operators(ops, p, prev, pen, acc)
    pen_q, acc_q = _at(ops, pen), _at(ops, acc)
    lin_f, lin_g = _linearized_reaction(ionic.react(*pen_q, p), pen_q,
                                        acc_q)
    r1 = -(ops.mass @ ((acc.u - prev.u) / tau)
           + ops.stiffness @ acc.u
           + ops.load(lin_f, ops.rule6))
    r2 = -(ops.mass @ ((acc.w - prev.w) / tau)
           + ops.load(lin_g, ops.rule6))
    return r1, r2


def initial_projection_terms(state, initial=None, ops=None):
    """Squared L2 defects of the initial data against the t=0 state.

    Returns (|u0 - u_h|^2, |w0 - w_h|^2) where (u_h, w_h) is the
    StateField `state` and (u0, w0) is :func:`ionic.initial_pair` of
    `initial`; the integrals use the degree-6 rule.  For a march the
    state is the L2-orthogonal projection of the initial data onto V_h.
    Only the quadrature of `ops` is used, so any operators on the state's
    mesh give the same result.
    """
    ops = _operators(ops if ops is not None else DiscreteOperators(
        state.mesh), None, state)
    xy = quadrature_coords(state.mesh, ops.rule6)
    out = []
    for f, vals in zip(ionic.initial_pair(initial), _at(ops, state)):
        exact = np.broadcast_to(np.asarray(f(xy[:, :, 0], xy[:, :, 1]),
                                           dtype=float), xy.shape[:2])
        out.append(_l2sq(ops, exact - vals))
    return out[0], out[1]


def cumulative_bound(taus, etas, thetas, gammas, initial_terms=(0.0, 0.0)):
    """Running value of the a posteriori upper bound.

    Entry n is sqrt(initial defects + sum_{m<=n} tau_m (eta_m^2 + theta_m^2
    + gamma_m^2)); nondecreasing in n.
    """
    taus = np.asarray(taus, dtype=float)
    body = taus * (np.asarray(etas) ** 2 + np.asarray(thetas) ** 2
                   + np.asarray(gammas) ** 2)
    return np.sqrt(sum(initial_terms) + np.cumsum(body))


def estimate_trajectory(traj, p=None, simplified=None, initial=None):
    """Indicator reports and cumulative bound for a marched trajectory.

    `p` defaults to the trajectory's parameters and `initial` to the
    initial data it was marched from; a ValueError is raised when neither
    is known, as for a trajectory read back from a checkpoint.  With
    simplified=None the linearization-aware indicators are used when the
    trajectory stored its penultimate Newton iterates, otherwise the
    simplified ones (gamma = 0) of the converged-Newton regime.
    """
    p = p or traj.params
    if initial is None:
        initial = traj.initial
    if initial is None:
        raise ValueError("the initial data of the trajectory is unknown; "
                         "pass initial=")
    ops = DiscreteOperators.for_params(traj.mesh, p)
    if simplified is None:
        simplified = traj.penultimate is None
    if not simplified and traj.penultimate is None:
        raise ValueError("trajectory has no stored Newton iterates; "
                         "use simplified=True")

    reports = []
    prev = traj.state(0)
    prev_q = _at(ops, prev)
    for n in range(1, traj.num_steps + 1):
        tau = float(traj.times[n] - traj.times[n - 1])
        acc = traj.state(n)
        acc_q = _at(ops, acc)
        fg_acc = _reaction(p, acc_q)
        if simplified:
            lin, gamma = fg_acc, 0.0
        else:
            pen_q = _at(ops, type(acc)(traj.mesh, *traj.penultimate[n],
                                       acc.time))
            r_pen = ionic.react(*pen_q, p)
            lin = _linearized_reaction(r_pen, pen_q, acc_q)
            gamma = _gamma(ops, r_pen, pen_q, acc_q, fg_acc)
        eta, el, ed, ode = _space_terms(ops, tau, acc.u, prev_q, acc_q, lin)
        theta, parts = _time_terms(ops, p, acc.u - prev.u, prev_q, acc_q,
                                   fg_acc)
        reports.append(EstimatorReport(n, float(traj.times[n]), eta, theta,
                                       gamma, el, ed, ode, parts))
        prev, prev_q = acc, acc_q

    init_u2, init_w2 = initial_projection_terms(traj.state(0),
                                                initial=initial, ops=ops)
    cum = cumulative_bound(np.diff(traj.times), [r.eta for r in reports],
                           [r.theta for r in reports],
                           [r.gamma for r in reports], (init_u2, init_w2))
    return TrajectoryEstimate(reports, init_u2, init_w2, cum)

