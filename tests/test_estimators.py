import numpy as np
import pytest

from monofem.assembly import DiscreteOperators
from monofem.estimators import (EstimatorReport, cumulative_bound,
                                estimate_trajectory,
                                initial_projection_terms,
                                linearization_indicator,
                                simplified_indicators, space_indicator,
                                space_residual_functional, time_indicator)
from monofem.ionic import AlievPanfilovParams, f_value, g_value, react
from monofem.mesh import TriMesh, prolongation, refine_uniform, \
    unit_square_mesh
from monofem.solver import NewtonConfig, StateField, initial_state, \
    newton_solve, time_march

from oracles import barycentric_at, p1_gradients, triangle_quadrature


def _random_states(mesh, rng, time=0.1):
    nv = mesh.num_vertices
    return StateField(mesh, rng.uniform(0.0, 1.0, nv),
                      rng.uniform(0.0, 1.0, nv), time)


def _marched(params, n=8, tau=0.1, t_end=0.5):
    return time_march(unit_square_mesh(n), params, tau, t_end,
                      NewtonConfig(tol=1e-14))


def test_equilibrium_trajectory_all_indicators_vanish(params):
    mesh = unit_square_mesh(4)
    zero = (lambda x, y: 0.0 * x, lambda x, y: 0.0 * x)
    traj = time_march(mesh, params, 0.25, 0.5, initial=zero)
    est = estimate_trajectory(traj, simplified=False)
    for r in est.reports:
        assert r.eta == 0.0
        assert r.theta == 0.0
        assert r.gamma == 0.0
    assert np.all(est.cumulative == 0.0)


def test_eta_squared_equals_sum_of_parts(params):
    traj = _marched(params)
    est = estimate_trajectory(traj, simplified=False)
    for r in est.reports:
        total = r.element_terms.sum() + r.edge_terms.sum() + r.ode_term
        assert r.eta ** 2 == pytest.approx(total, rel=1e-12)


def test_affine_state_has_zero_interior_jumps(params):
    # a globally affine potential has a continuous gradient, so only
    # boundary edges contribute to the jump terms
    mesh = unit_square_mesh(4)
    nodal = 0.3 * mesh.vertices[:, 0] + 0.1 * mesh.vertices[:, 1]
    state = StateField(mesh, nodal, np.zeros(mesh.num_vertices), 0.1)
    prev = StateField(mesh, nodal, np.zeros(mesh.num_vertices), 0.0)
    _, _, edge_terms, _ = space_indicator(prev, (state, state), 0.1, params)
    assert np.all(edge_terms[~mesh.boundary_edge] < 1e-28)
    assert edge_terms[mesh.boundary_edge].sum() > 0


def test_edge_terms_scale_with_the_square_of_the_conductivity(params):
    # the conormal flux is M grad u_h; the element and ODE terms hold no M
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(6)
    prev, acc = _random_states(mesh, rng, 0.0), _random_states(mesh, rng)
    terms = [space_indicator(prev, (acc, acc), 0.1, params,
                             ops=DiscreteOperators(mesh, m))
             for m in (1.0, 2.5)]
    assert np.allclose(terms[1][2], 2.5 ** 2 * terms[0][2], rtol=1e-13,
                       atol=0.0)
    assert np.array_equal(terms[1][1], terms[0][1])
    assert terms[1][3] == terms[0][3]


def test_space_indicator_against_bruteforce_quadrature(params):
    # independent high-order quadrature of the same integrals on the n=1
    # mesh with a manufactured configuration
    mesh = unit_square_mesh(1)
    rng = np.random.default_rng(23)
    prev = _random_states(mesh, rng, 0.0)
    it_a = _random_states(mesh, rng, 0.1)
    it_b = _random_states(mesh, rng, 0.1)
    tau = 0.1

    eta, element_terms, edge_terms, ode_term = space_indicator(
        prev, (it_a, it_b), tau, params)

    el_oracle = np.zeros(mesh.num_triangles)
    ode_oracle = 0.0
    for k, tri in enumerate(mesh.triangles):
        verts = mesh.vertices[tri]
        pts, wts = triangle_quadrature(verts, order=12)
        lam = barycentric_at(verts, pts)
        up, wp = lam @ prev.u[tri], lam @ prev.w[tri]
        u1, w1 = lam @ it_a.u[tri], lam @ it_a.w[tri]
        u2, w2 = lam @ it_b.u[tri], lam @ it_b.w[tri]
        r = react(u1, w1, params)
        lin_f = r.f + r.f_u * (u2 - u1) + r.f_w * (w2 - w1)
        lin_g = r.g + r.g_u * (u2 - u1) + r.g_w * (w2 - w1)
        res_pde = -(u2 - up) / tau - lin_f
        res_ode = -(w2 - wp) / tau - lin_g
        h_k = mesh.diameters[k]
        el_oracle[k] = h_k ** 2 * np.dot(wts, res_pde ** 2)
        ode_oracle += np.dot(wts, res_ode ** 2)

    edge_oracle = np.zeros(mesh.num_edges)
    grads = {k: p1_gradients(mesh.vertices[mesh.triangles[k]])
             for k in range(mesh.num_triangles)}
    for e, (a, b) in enumerate(mesh.edges):
        t1, t2 = mesh.edge_triangles[e]
        nrm = mesh.edge_normals[e]
        g1 = grads[t1].T @ it_b.u[mesh.triangles[t1]]
        jump = nrm @ g1 * params.M_scalar
        if t2 >= 0:
            g2 = grads[t2].T @ it_b.u[mesh.triangles[t2]]
            jump -= nrm @ g2 * params.M_scalar
        edge_oracle[e] = mesh.edge_lengths[e] ** 2 * jump ** 2

    assert np.allclose(element_terms, el_oracle, rtol=1e-10)
    assert np.allclose(edge_terms, edge_oracle, rtol=1e-10)
    assert ode_term == pytest.approx(ode_oracle, rel=1e-10)
    total = el_oracle.sum() + edge_oracle.sum() + ode_oracle
    assert eta ** 2 == pytest.approx(total, rel=1e-10)


def test_time_indicator_zero_for_steady_step(params):
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(1)
    s = _random_states(mesh, rng)
    theta, parts = time_indicator(s, s, 0.1, params)
    assert theta == 0.0
    assert parts == (0.0, 0.0, 0.0)


def test_time_indicator_gradient_part_is_stiffness_form(params):
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(2)
    prev = _random_states(mesh, rng, 0.0)
    acc = _random_states(mesh, rng, 0.1)
    _, (grad_part, _, _) = time_indicator(prev, acc, 0.1, params)
    ops = DiscreteOperators(mesh)
    du = acc.u - prev.u
    assert grad_part == pytest.approx(du @ (ops.stiffness @ du) / 3.0,
                                      rel=1e-12)


def test_time_indicator_matches_dense_time_quadrature(params):
    # oracle: dense trapezoid in time over the same spatial integrals
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(3)
    prev = _random_states(mesh, rng, 0.0)
    acc = _random_states(mesh, rng, 0.1)
    _, (_, p1_part, p2_part) = time_indicator(prev, acc, 0.1, params)

    ops = DiscreteOperators(mesh)
    rule = ops.rule6
    up, wp = ops.field_at(prev.u, rule), ops.field_at(prev.w, rule)
    ua, wa = ops.field_at(acc.u, rule), ops.field_at(acc.w, rule)
    f_acc, g_acc = f_value(ua, wa, params), g_value(ua, wa, params)
    ss = np.linspace(0.0, 1.0, 20001)
    vals1 = np.empty_like(ss)
    vals2 = np.empty_like(ss)
    for i, s in enumerate(ss):
        u_s, w_s = (1 - s) * up + s * ua, (1 - s) * wp + s * wa
        df = f_value(u_s, w_s, params) - f_acc
        dg = g_value(u_s, w_s, params) - g_acc
        vals1[i] = np.dot(np.einsum("eq,q->e", df ** 2, rule.weights),
                          mesh.areas)
        vals2[i] = np.dot(np.einsum("eq,q->e", dg ** 2, rule.weights),
                          mesh.areas)
    assert p1_part == pytest.approx(np.trapezoid(vals1, ss), rel=1e-8)
    assert p2_part == pytest.approx(np.trapezoid(vals2, ss), rel=1e-8)


def test_linearization_indicator_zero_for_equal_iterates(params):
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(4)
    s = _random_states(mesh, rng)
    assert linearization_indicator((s, s), params) == 0.0


def test_linearization_indicator_matches_symbolic_remainder(params):
    # exact Taylor remainders: Q1 = A(3u + du)du^2 - A(1+a)du^2 + du dw,
    # Q2 = eps A du^2 (g is quadratic in u, linear in w)
    mesh = unit_square_mesh(3)
    rng = np.random.default_rng(5)
    it_a = _random_states(mesh, rng)
    it_b = _random_states(mesh, rng)
    gamma = linearization_indicator((it_a, it_b), params)

    ops = DiscreteOperators(mesh)
    rule = ops.rule6
    u1, w1 = ops.field_at(it_a.u, rule), ops.field_at(it_a.w, rule)
    u2, w2 = ops.field_at(it_b.u, rule), ops.field_at(it_b.w, rule)
    du, dw = u2 - u1, w2 - w1
    A, a, eps = params.A, params.a, params.eps
    q1 = A * (3.0 * u1 + du) * du ** 2 - A * (1.0 + a) * du ** 2 + du * dw
    q2 = eps * A * du ** 2
    q1_sq = np.dot(np.einsum("eq,q->e", q1 ** 2, rule.weights), mesh.areas)
    q2_sq = np.dot(np.einsum("eq,q->e", q2 ** 2, rule.weights), mesh.areas)
    assert gamma == pytest.approx(np.sqrt(q1_sq + q2_sq), rel=1e-12)


def test_gamma_decays_quadratically_along_newton(params):
    mesh = unit_square_mesh(16)
    from monofem.assembly import l2_project
    from monofem.ionic import initial_data

    u0, = l2_project(mesh, [lambda x, y: initial_data(x, y)[0]])
    prev = StateField(mesh, u0, np.zeros(mesh.num_vertices), 0.0)
    _, _, states = newton_solve(prev, 0.05, params, NewtonConfig(tol=1e-14))
    gammas = [linearization_indicator((a, b), params)
              for a, b in zip(states, states[1:])]
    gammas = [g for g in gammas if g > 1e-13]
    assert len(gammas) >= 3
    for g_prev, g_next in zip(gammas[1:], gammas[2:]):
        # log-log contraction ratio of a quadratically converging sequence
        assert np.log(g_next) / np.log(g_prev) >= 1.5


def test_galerkin_orthogonality_random_test_functions(params):
    # the space residual annihilates V_h up to the linear-solver residual
    traj = _marched(params, n=8, tau=0.1, t_end=0.3)
    ops = DiscreteOperators(traj.mesh)
    rng = np.random.default_rng(17)
    for n in range(1, traj.num_steps + 1):
        prev, acc = traj.state(n - 1), traj.state(n)
        pen_u, pen_w = traj.penultimate[n]
        pen = StateField(traj.mesh, pen_u, pen_w, acc.time)
        r1, r2 = space_residual_functional(prev, (pen, acc), traj.tau,
                                           params, ops=ops)
        for _ in range(20):
            phi = rng.standard_normal(traj.mesh.num_vertices)
            psi = rng.standard_normal(traj.mesh.num_vertices)
            assert abs(r1 @ phi) <= 1e-10 * ops.h1_norm(phi)
            assert abs(r2 @ psi) <= 1e-10 * ops.l2_norm(psi)


def test_simplified_matches_full_at_converged_newton(params):
    traj = _marched(params, n=8, tau=0.1, t_end=0.3)
    est_full = estimate_trajectory(traj, simplified=False)
    est_simp = estimate_trajectory(traj, simplified=True)
    for rf, rs in zip(est_full.reports, est_simp.reports):
        assert abs(rs.eta - rf.eta) / rf.eta < 1e-8
        assert rs.theta == pytest.approx(rf.theta, rel=1e-12)
        assert rf.gamma < 1e-12
        assert rs.gamma == 0.0


def test_simplified_reaction_free_identity(params):
    # with negligible reactions the simplified indicator reduces to time
    # differences and jumps only; expected value built by hand
    tiny = AlievPanfilovParams(A=1e-300, a=0.15, eps=1e-300, M_scalar=1.0)
    mesh = unit_square_mesh(4)
    traj = time_march(mesh, tiny, 0.25, 0.25)
    prev, acc = traj.state(0), traj.state(1)
    (eta, element_terms, edge_terms, ode_term), _ = simplified_indicators(
        prev, acc, 0.25, tiny)

    du = (acc.u - prev.u) / 0.25
    dw = (acc.w - prev.w) / 0.25
    el_expected = np.zeros(mesh.num_triangles)
    ode_expected = 0.0
    for k, tri in enumerate(mesh.triangles):
        verts = mesh.vertices[tri]
        pts, wts = triangle_quadrature(verts, order=6)
        lam = barycentric_at(verts, pts)
        el_expected[k] = mesh.diameters[k] ** 2 * np.dot(wts,
                                                         (lam @ du[tri]) ** 2)
        ode_expected += np.dot(wts, (lam @ dw[tri]) ** 2)
    assert np.allclose(element_terms, el_expected, rtol=1e-10, atol=1e-300)
    assert ode_term == pytest.approx(ode_expected, abs=1e-300)
    expected = el_expected.sum() + edge_terms.sum() + ode_expected
    assert eta ** 2 == pytest.approx(expected, rel=1e-10)


def test_indicator_scaling_under_refinement(params):
    # prolonging states to the refined mesh keeps the residual functions
    # pointwise equal: element terms scale by 1/4 (h_K halves), edge terms
    # by 1/2, the ODE term is unchanged (geometric factors, not a paper
    # claim)
    coarse = unit_square_mesh(4)
    fine = refine_uniform(coarse)
    P = prolongation(coarse, fine)
    rng = np.random.default_rng(8)
    states_c = [_random_states(coarse, rng, t) for t in (0.0, 0.1, 0.1)]
    states_f = [StateField(fine, P @ s.u, P @ s.w, s.time)
                for s in states_c]
    tau = 0.1
    _, el_c, ed_c, ode_c = space_indicator(states_c[0],
                                           (states_c[1], states_c[2]),
                                           tau, params)
    _, el_f, ed_f, ode_f = space_indicator(states_f[0],
                                           (states_f[1], states_f[2]),
                                           tau, params)
    assert el_f.sum() == pytest.approx(el_c.sum() / 4.0, rel=1e-12)
    assert ed_f.sum() == pytest.approx(ed_c.sum() / 2.0, rel=1e-12)
    assert ode_f == pytest.approx(ode_c, rel=1e-12)


def test_indicators_invariant_under_vertex_renumbering(params):
    mesh = unit_square_mesh(3)
    rng = np.random.default_rng(13)
    perm = rng.permutation(mesh.num_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    mesh2 = TriMesh(mesh.vertices[perm], inv[mesh.triangles])

    prev = _random_states(mesh, rng, 0.0)
    it_a = _random_states(mesh, rng, 0.1)
    it_b = _random_states(mesh, rng, 0.1)
    prev2 = StateField(mesh2, prev.u[perm], prev.w[perm], 0.0)
    it_a2 = StateField(mesh2, it_a.u[perm], it_a.w[perm], 0.1)
    it_b2 = StateField(mesh2, it_b.u[perm], it_b.w[perm], 0.1)

    tau = 0.1
    eta1, *_ = space_indicator(prev, (it_a, it_b), tau, params)
    eta2, *_ = space_indicator(prev2, (it_a2, it_b2), tau, params)
    assert eta1 == pytest.approx(eta2, rel=1e-12)
    th1, _ = time_indicator(prev, it_b, tau, params)
    th2, _ = time_indicator(prev2, it_b2, tau, params)
    assert th1 == pytest.approx(th2, rel=1e-12)
    g1 = linearization_indicator((it_a, it_b), params)
    g2 = linearization_indicator((it_a2, it_b2), params)
    assert g1 == pytest.approx(g2, rel=1e-12)


def test_gamma_negligible_at_machine_converged_newton(params):
    traj = _marched(params, n=8, tau=0.1, t_end=0.3)
    est = estimate_trajectory(traj, simplified=False)
    for r in est.reports:
        assert r.gamma < 1e-12


def test_cumulative_bound_arithmetic():
    assert cumulative_bound([0.25], [3.0], [4.0], [0.0])[0] == \
        pytest.approx(2.5)
    zero = cumulative_bound([0.1, 0.1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    assert np.all(zero == 0.0)


def test_cumulative_bound_nondecreasing(params):
    traj = _marched(params)
    est = estimate_trajectory(traj, simplified=False)
    assert np.all(np.diff(est.cumulative) >= 0.0)


def test_initial_projection_terms():
    mesh = unit_square_mesh(8)
    state = initial_state(DiscreteOperators(mesh))
    u2, w2 = initial_projection_terms(state)
    assert u2 > 0.0
    assert w2 == 0.0
    fine = refine_uniform(mesh)
    fine_u2, _ = initial_projection_terms(initial_state(
        DiscreteOperators(fine)))
    assert fine_u2 < u2 / 8.0     # O(h^2) defect in L2, squared: factor 16
    # the defect is measured against the state it is given, which the
    # projection minimizes
    moved = StateField(mesh, state.u + 1e-3, state.w, 0.0)
    assert initial_projection_terms(moved)[0] > u2


def test_mesh_mismatch_raises(params):
    a = unit_square_mesh(2)
    b = unit_square_mesh(2)
    sa = StateField(a, np.zeros(a.num_vertices), np.zeros(a.num_vertices))
    sb = StateField(b, np.zeros(b.num_vertices), np.zeros(b.num_vertices))
    with pytest.raises(ValueError):
        space_indicator(sb, (sa, sa), 0.1, AlievPanfilovParams())
    with pytest.raises(ValueError):
        time_indicator(sb, sa, 0.1, AlievPanfilovParams())
    with pytest.raises(ValueError):
        linearization_indicator((sb, sa), AlievPanfilovParams())
    with pytest.raises(ValueError):
        simplified_indicators(sb, sa, 0.1, AlievPanfilovParams())
    with pytest.raises(ValueError):
        space_residual_functional(sb, (sa, sa), 0.1, AlievPanfilovParams())


def test_operators_on_another_mesh_raise(params):
    # b has the vertex count of a, so only the mesh check can tell
    a = unit_square_mesh(2)
    ops_b = DiscreteOperators(unit_square_mesh(2))
    s = StateField(a, np.zeros(a.num_vertices), np.zeros(a.num_vertices))
    calls = [
        lambda: space_indicator(s, (s, s), 0.1, params, ops=ops_b),
        lambda: time_indicator(s, s, 0.1, params, ops=ops_b),
        lambda: linearization_indicator((s, s), params, ops=ops_b),
        lambda: simplified_indicators(s, s, 0.1, params, ops=ops_b),
        lambda: space_residual_functional(s, (s, s), 0.1, params,
                                          ops=ops_b),
        lambda: initial_projection_terms(s, ops=ops_b),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def _assert_reports_equal(r, other):
    assert r.eta == other.eta and r.theta == other.theta
    assert r.gamma == other.gamma and r.ode_term == other.ode_term
    assert np.array_equal(r.element_terms, other.element_terms)
    assert np.array_equal(r.edge_terms, other.edge_terms)
    assert r.time_parts == other.time_parts


def test_trajectory_reports_equal_the_public_indicators(params):
    # the step loop carries each accepted state's values forward; every
    # report must be bit for bit what the public wrappers give that step
    traj = _marched(params, n=8, tau=0.1, t_end=0.5)
    ops = DiscreteOperators.for_params(traj.mesh, params)
    simp = estimate_trajectory(traj, simplified=True).reports
    full = estimate_trajectory(traj, simplified=False).reports
    for n in range(1, traj.num_steps + 1):
        prev, acc = traj.state(n - 1), traj.state(n)
        pen = StateField(traj.mesh, *traj.penultimate[n], acc.time)
        tau = float(traj.times[n] - traj.times[n - 1])
        (eta, el, ed, ode), (theta, parts) = simplified_indicators(
            prev, acc, tau, params, ops=ops)
        _assert_reports_equal(simp[n - 1], EstimatorReport(
            n, acc.time, eta, theta, 0.0, el, ed, ode, parts))
        eta, el, ed, ode = space_indicator(prev, (pen, acc), tau, params,
                                           ops=ops)
        theta, parts = time_indicator(prev, acc, tau, params, ops=ops)
        gamma = linearization_indicator((pen, acc), params, ops=ops)
        _assert_reports_equal(full[n - 1], EstimatorReport(
            n, acc.time, eta, theta, gamma, el, ed, ode, parts))


def test_trajectory_evaluates_each_state_once(params, monkeypatch):
    # 2 (N+1) accepted-state fields, 2 for the initial projection defects,
    # and on the full path 2 N penultimate fields
    traj = _marched(params, n=4, tau=0.1, t_end=0.5)
    N = traj.num_steps
    calls = []
    field_at = DiscreteOperators.field_at
    monkeypatch.setattr(DiscreteOperators, "field_at",
                        lambda self, *a: calls.append(1) or field_at(self, *a))
    estimate_trajectory(traj, simplified=True)
    assert len(calls) == 2 * (N + 1) + 2
    calls.clear()
    estimate_trajectory(traj, simplified=False)
    assert len(calls) == 2 * (N + 1) + 2 * N + 2
