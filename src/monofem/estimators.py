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


def _ops_for(mesh, p, ops):
    return ops if ops is not None else DiscreteOperators.for_params(mesh, p)


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
    t1 = mesh.edge_triangles[:, 0]
    t2 = mesh.edge_triangles[:, 1]
    jump = np.einsum("ed,ed->e", mesh.edge_normals, flux[t1])
    interior = t2 >= 0
    jump[interior] -= np.einsum("ed,ed->e", mesh.edge_normals[interior],
                                flux[t2[interior]])
    return mesh.edge_lengths ** 2 * jump ** 2


def _elementwise_l2sq(ops, values_sq, rule):
    """integral over each element of a squared quantity given at
    quadrature points."""
    return np.einsum("eq,q->e", values_sq, rule.weights) * ops.mesh.areas


def _linearized_reaction(ops, last_two_iterates, p, rule):
    """The last iterate at the rule's points and the reaction linearized
    at the one before it: (u2_q, w2_q, lin_f, lin_g)."""
    it_prev, it_cur = last_two_iterates
    u1_q = ops.field_at(it_prev.u, rule)
    w1_q = ops.field_at(it_prev.w, rule)
    u2_q = ops.field_at(it_cur.u, rule)
    w2_q = ops.field_at(it_cur.w, rule)
    r = ionic.react(u1_q, w1_q, p)
    lin_f = r.f + r.f_u * (u2_q - u1_q) + r.f_w * (w2_q - w1_q)
    lin_g = r.g + r.g_u * (u2_q - u1_q) + r.g_w * (w2_q - w1_q)
    return u2_q, w2_q, lin_f, lin_g


def space_indicator(prev, last_two_iterates, tau, p, ops=None):
    """Space indicator of one step from the last two Newton iterates.

    Returns (eta, element_terms, edge_terms, ode_term); the squared terms
    satisfy eta**2 = sum(element) + sum(edge) + ode exactly.  The element
    residual has no diffusion part: div(M grad u_h) vanishes on each
    element for P1 and the scalar conductivity M; the conductivity enters
    through the conormal jumps of the edge terms.  `ops` defaults to the
    operators of `p` on the states' mesh.
    """
    it_prev, it_cur = last_two_iterates
    mesh = it_cur.mesh
    if prev.mesh is not mesh or it_prev.mesh is not mesh:
        raise ValueError("states live on different meshes")
    ops = _ops_for(mesh, p, ops)
    rule = ops.rule6

    up_q = ops.field_at(prev.u, rule)
    wp_q = ops.field_at(prev.w, rule)
    u2_q, w2_q, lin_f, lin_g = _linearized_reaction(ops, last_two_iterates,
                                                    p, rule)

    res_pde = -(u2_q - up_q) / tau - lin_f
    res_ode = -(w2_q - wp_q) / tau - lin_g

    element_terms = (mesh.diameters ** 2
                     * _elementwise_l2sq(ops, res_pde ** 2, rule))
    edge_terms = _edge_jump_terms(ops, it_cur.u)
    ode_term = float(_elementwise_l2sq(ops, res_ode ** 2, rule).sum())
    eta = float(np.sqrt(element_terms.sum() + edge_terms.sum() + ode_term))
    return eta, element_terms, edge_terms, ode_term


def time_indicator(prev, accepted, tau, p, ops=None):
    """Time indicator of one step.

    theta**2 = (1/3) |M^(1/2) grad(u^n - u^(n-1))|^2 plus the mean squared
    L2 mismatch of f and g along the linear-in-time interpolant; returns
    (theta, (gradient_part, p1_part, p2_part)) with squared parts.  `ops`
    defaults to the operators of `p` on the states' mesh.
    """
    mesh = accepted.mesh
    if prev.mesh is not mesh:
        raise ValueError("states live on different meshes")
    ops = _ops_for(mesh, p, ops)
    rule = ops.rule6

    du = accepted.u - prev.u
    grad_part = float(du @ (ops.stiffness @ du)) / 3.0

    up_q = ops.field_at(prev.u, rule)
    wp_q = ops.field_at(prev.w, rule)
    ua_q = ops.field_at(accepted.u, rule)
    wa_q = ops.field_at(accepted.w, rule)
    f_acc = ionic.f_value(ua_q, wa_q, p)
    g_acc = ionic.g_value(ua_q, wa_q, p)
    p1_part = 0.0
    p2_part = 0.0
    for s, ws in zip(_TIME_GAUSS_X, _TIME_GAUSS_W):
        u_s = up_q + s * (ua_q - up_q)
        w_s = wp_q + s * (wa_q - wp_q)
        df = ionic.f_value(u_s, w_s, p) - f_acc
        dg = ionic.g_value(u_s, w_s, p) - g_acc
        p1_part += ws * float(_elementwise_l2sq(ops, df ** 2, rule).sum())
        p2_part += ws * float(_elementwise_l2sq(ops, dg ** 2, rule).sum())

    theta = float(np.sqrt(grad_part + p1_part + p2_part))
    return theta, (grad_part, p1_part, p2_part)


def linearization_indicator(last_two_iterates, p, ops=None):
    """L2 norm of the Taylor remainder of (f, g) between two Newton
    iterates."""
    it_prev, it_cur = last_two_iterates
    mesh = it_cur.mesh
    if it_prev.mesh is not mesh:
        raise ValueError("states live on different meshes")
    ops = _ops_for(mesh, p, ops)
    rule = ops.rule6

    u1_q = ops.field_at(it_prev.u, rule)
    w1_q = ops.field_at(it_prev.w, rule)
    u2_q = ops.field_at(it_cur.u, rule)
    w2_q = ops.field_at(it_cur.w, rule)
    r = ionic.react(u1_q, w1_q, p)
    du, dw = u2_q - u1_q, w2_q - w1_q
    q1 = ionic.f_value(u2_q, w2_q, p) - r.f - r.f_u * du - r.f_w * dw
    q2 = ionic.g_value(u2_q, w2_q, p) - r.g - r.g_u * du - r.g_w * dw
    q1_sq = float(_elementwise_l2sq(ops, q1 ** 2, rule).sum())
    q2_sq = float(_elementwise_l2sq(ops, q2 ** 2, rule).sum())
    return float(np.sqrt(q1_sq + q2_sq))


def simplified_indicators(prev, accepted, tau, p, ops=None):
    """Space and time indicators with the linearization disregarded.

    The reaction terms are evaluated at the accepted state itself, which is
    the appropriate form once Newton has converged to rounding level: the
    space indicator with the accepted state as both of the last two
    iterates.  Returns ((eta, element_terms, edge_terms, ode_term),
    (theta, parts)).  `ops` defaults to the operators of `p` on the
    states' mesh.
    """
    ops = _ops_for(accepted.mesh, p, ops)
    space = space_indicator(prev, (accepted, accepted), tau, p, ops=ops)
    return space, time_indicator(prev, accepted, tau, p, ops=ops)


def space_residual_functional(prev, last_two_iterates, tau, p, ops=None):
    """Nodal vectors (r1, r2) representing the space residual pair on V_h.

    `r1 . phi` equals the space residual applied to the P1 function with
    nodal values phi (same for r2/psi); both vanish up to the linear-solver
    residual because the Newton system enforces exactly this orthogonality.
    `ops` defaults to the operators of `p` on the states' mesh.
    """
    it_cur = last_two_iterates[1]
    ops = _ops_for(it_cur.mesh, p, ops)
    rule = ops.rule6
    _, _, lin_f, lin_g = _linearized_reaction(ops, last_two_iterates, p,
                                              rule)

    r1 = -(ops.mass @ ((it_cur.u - prev.u) / tau)
           + ops.stiffness @ it_cur.u
           + ops.load(lin_f, rule))
    r2 = -(ops.mass @ ((it_cur.w - prev.w) / tau)
           + ops.load(lin_g, rule))
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
    mesh = state.mesh
    ops = ops if ops is not None else DiscreteOperators(mesh)
    rule = ops.rule6
    xy = quadrature_coords(mesh, rule)
    out = []
    for f, vec in zip(ionic.initial_pair(initial), (state.u, state.w)):
        exact = np.broadcast_to(np.asarray(f(xy[:, :, 0], xy[:, :, 1]),
                                           dtype=float), xy.shape[:2])
        out.append(float(_elementwise_l2sq(
            ops, (exact - ops.field_at(vec, rule)) ** 2, rule).sum()))
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
    for n in range(1, traj.num_steps + 1):
        tau = float(traj.times[n] - traj.times[n - 1])
        prev = traj.state(n - 1)
        acc = traj.state(n)
        if simplified:
            (eta, el, ed, ode), (theta, parts) = simplified_indicators(
                prev, acc, tau, p, ops=ops)
            gamma = 0.0
        else:
            pen_u, pen_w = traj.penultimate[n]
            pen = type(acc)(traj.mesh, pen_u, pen_w, acc.time)
            eta, el, ed, ode = space_indicator(prev, (pen, acc), tau, p,
                                               ops=ops)
            theta, parts = time_indicator(prev, acc, tau, p, ops=ops)
            gamma = linearization_indicator((pen, acc), p, ops=ops)
        reports.append(EstimatorReport(step=n, time=float(traj.times[n]),
                                       eta=eta, theta=theta, gamma=gamma,
                                       element_terms=el, edge_terms=ed,
                                       ode_term=ode, time_parts=parts))

    init_u2, init_w2 = initial_projection_terms(traj.state(0),
                                                initial=initial, ops=ops)
    cum = cumulative_bound(
        np.diff(traj.times),
        [r.eta for r in reports],
        [r.theta for r in reports],
        [r.gamma for r in reports],
        (init_u2, init_w2))
    return TrajectoryEstimate(reports, init_u2, init_w2, cum)

