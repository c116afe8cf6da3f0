import numpy as np
import pytest

from monofem.mesh import mesh_chain, unit_square_mesh
from monofem.solver import NewtonConfig, TrajectorySolution, time_march
from monofem.verify import (build_reference, convergence_study, error_curve,
                            newton_study, upper_bound_study)


def xy_error(coarse, ref, up_to=None):
    """ErrorNorms of `coarse` against `ref` on (0, up_to], by default the
    whole common horizon."""
    if up_to is None:
        up_to = min(coarse.times[-1], ref.times[-1])
    return error_curve(coarse, ref, [up_to])[0]


def _mini_reference(params, chain, tau=1.0 / 32.0, t_end=0.5):
    return build_reference(chain[-1], tau, t_end, params, tol=1e-13)


@pytest.fixture(scope="module")
def setup(params=None):
    from monofem.ionic import AlievPanfilovParams

    params = AlievPanfilovParams()
    chain = mesh_chain(4, 2)              # 4, 8, 16
    coarse = time_march(chain[0], params, 0.125, 0.5,
                        NewtonConfig(tol=1e-14))
    ref = _mini_reference(params, chain)
    return params, chain, coarse, ref


def test_self_error_is_zero(setup):
    _, _, coarse, ref = setup
    err = xy_error(ref, ref)
    assert err.combined_xy == 0.0
    assert err.l2h1 == 0.0
    assert err.dual_dt_u == 0.0


def test_error_against_prolonged_self_is_zero(setup):
    # prolongation creates no error: compare a run against its own states
    params, chain, coarse, _ = setup
    err = xy_error(coarse, coarse)
    assert err.combined_xy == 0.0


def test_constant_shift_error_hand_computed(setup):
    # e_u constant c in space and time: L2H1 part c sqrt(t), Linf part c,
    # dual part 0 (|Omega| = 1)
    params, chain, coarse, _ = setup
    c = 0.3
    shifted = TrajectorySolution(coarse.mesh, coarse.times, coarse.U + c,
                                 coarse.W.copy(), params, tau=coarse.tau)
    err = xy_error(shifted, coarse, up_to=0.5)
    assert err.l2h1 == pytest.approx(c * np.sqrt(0.5), rel=1e-12)
    assert err.linf_l2_u == pytest.approx(c, rel=1e-12)
    assert err.dual_dt_u == pytest.approx(0.0, abs=1e-13)
    assert err.l2_dt_w == pytest.approx(0.0, abs=1e-13)
    assert err.linf_l2_w == pytest.approx(0.0, abs=1e-13)
    assert err.combined_xy == pytest.approx(
        np.sqrt(c ** 2 * 0.5 + c ** 2), rel=1e-12)


def test_error_norm_triangle_inequality(setup):
    params, chain, coarse, _ = setup
    rng = np.random.default_rng(6)
    mesh = coarse.mesh

    def perturbed(base, scale):
        return TrajectorySolution(
            mesh, base.times,
            base.U + scale * rng.standard_normal(base.U.shape),
            base.W + scale * rng.standard_normal(base.W.shape),
            params, tau=base.tau)

    t1 = perturbed(coarse, 0.05)
    t2 = perturbed(t1, 0.02)
    d20 = xy_error(t2, coarse).combined_xy
    d21 = xy_error(t2, t1).combined_xy
    d10 = xy_error(t1, coarse).combined_xy
    assert d20 <= d21 + d10 + 1e-12


def test_dual_norm_weaker_than_l2(setup):
    # discrete Riesz surrogate: r' (K+M)^-1 r <= d' M d exactly
    params, chain, coarse, ref = setup
    err = xy_error(coarse, ref)
    assert err.dual_dt_u <= err.l2_dt_u + 1e-15


def test_error_curve_snapshots_match_single_calls(setup):
    params, chain, coarse, ref = setup
    times = coarse.times[1:]
    curve = error_curve(coarse, ref, times)
    for at in (1, len(times) - 1):
        single = xy_error(coarse, ref, up_to=times[at])
        assert curve[at].combined_xy == pytest.approx(single.combined_xy,
                                                      rel=1e-12)
        assert curve[at].l2h1 == pytest.approx(single.l2h1, rel=1e-12)


def test_error_curve_is_nondecreasing_in_time(setup):
    params, chain, coarse, ref = setup
    curve = error_curve(coarse, ref, coarse.times[1:])
    values = [r.combined_xy for r in curve]
    assert np.all(np.diff(values) >= -1e-15)


def test_same_grid_reference_reproduces_run(setup):
    # identical discrete problem solved at two Newton tolerances
    params, chain, coarse, _ = setup
    ref_same = build_reference(chain[0], 0.125, 0.5, params, tol=1e-13)
    err = xy_error(coarse, ref_same)
    assert err.combined_xy < 1e-9


def test_doubling_reference_changes_error_mildly(setup):
    # reference-convergence sanity; needs the reference clearly finer than
    # the run (here 8x/16x in h and 16x/32x in tau)
    params, chain, coarse, _ = setup
    chain_deep = mesh_chain(4, 4)
    coarse2 = time_march(chain_deep[0], params, 0.125, 0.25,
                         NewtonConfig(tol=1e-14))
    ref1 = build_reference(chain_deep[3], 1.0 / 128.0, 0.25, params,
                           tol=1e-13)
    ref2 = build_reference(chain_deep[4], 1.0 / 256.0, 0.25, params,
                           tol=1e-13)
    e1 = xy_error(coarse2, ref1).combined_xy
    e2 = xy_error(coarse2, ref2).combined_xy
    assert abs(e1 - e2) / e2 < 0.05


def test_non_nested_meshes_rejected(setup):
    # width 3 does not divide the reference width 16
    params, chain, coarse, ref = setup
    stranger = time_march(unit_square_mesh(3), params, 0.25, 0.5,
                          NewtonConfig(tol=1e-12))
    from monofem.mesh import MeshError
    with pytest.raises(MeshError):
        xy_error(stranger, ref)


def test_loaded_checkpoint_scores_against_a_reference_built_apart(
        tmp_path, params):
    # the reference marches on a grid of its own; the loaded trajectory's
    # mesh is rebuilt from the checkpoint: the grid widths alone nest them
    run = time_march(unit_square_mesh(4), params, 0.125, 0.25)
    run.save(tmp_path / "run.npz")
    loaded = TrajectorySolution.load(tmp_path / "run.npz")
    ref = build_reference(unit_square_mesh(8), 1.0 / 16.0, 0.25, params)
    assert loaded.mesh is not run.mesh
    expected = error_curve(run, ref, [0.125, 0.25])
    assert error_curve(loaded, ref, [0.125, 0.25]) == expected
    assert expected[-1].combined_xy > 0.0


def test_requested_time_must_be_a_grid_point(setup):
    params, chain, coarse, ref = setup
    with pytest.raises(ValueError):
        error_curve(coarse, ref, [0.1234567])
    with pytest.raises(ValueError):
        error_curve(coarse, ref, [7.5])


def test_upper_bound_study_rows(setup):
    params, chain, coarse, ref = setup
    rows = upper_bound_study(coarse, ref, params)
    assert len(rows) == coarse.num_steps
    for row in rows:
        assert row.estimator >= row.error
        assert row.effectivity >= 1.0
    bounds = [r.estimator for r in rows]
    assert np.all(np.diff(bounds) >= 0.0)


def test_convergence_study_mini_ladder(params):
    result = convergence_study([(4, 0.125), (8, 0.0625)], 0.5, params,
                               ref_levels=2, ref_tau=1.0 / 64.0,
                               ref_tol=1e-13)
    assert len(result.rows) == 2
    assert result.rows[0].h == pytest.approx(0.25)
    assert result.rows[1].h == pytest.approx(0.125)
    assert result.rows[1].error < result.rows[0].error
    assert 0.5 < result.error_order < 1.6
    assert result.error_order == pytest.approx(result.estimator_order,
                                               abs=0.5)


def test_three_rung_ladder_keeps_effectivity_and_order(params):
    # h and tau halve at each rung; the reference is two refinements above
    # the finest rung (n=64) with a quarter of its tau.  Before the sparse
    # factors were ordered by the mesh, this ladder gave effectivities
    # 2.217, 2.475 and 2.768 and fitted orders 1.0086 (error) and 0.8485
    # (estimator).  The bound is reliable (effectivity >= 1) and stays
    # efficient: the effectivity stays in [2, 3] as the ladder refines.
    result = convergence_study([(4, 0.1), (8, 0.05), (16, 0.025)], 0.2,
                               params)
    effectivities = [r.effectivity for r in result.rows]
    assert all(2.0 <= eff <= 3.0 for eff in effectivities)
    assert result.error_order == pytest.approx(1.0086, abs=0.01)
    assert result.estimator_order == pytest.approx(0.8485, abs=0.01)


def test_convergence_study_single_rung_has_no_order(params):
    result = convergence_study([(4, 0.25)], 0.5, params, ref_levels=1,
                               ref_tau=0.125, ref_tol=1e-12)
    assert len(result.rows) == 1
    assert result.error_order is None
    assert result.estimator_order is None


def test_convergence_study_rejects_bad_ladder(params):
    with pytest.raises(ValueError):
        convergence_study([(4, 0.25), (12, 0.125)], 0.5, params)


def _assert_gamma_tracks_the_error(tables):
    assert sorted(tables) == [0.25, 0.5]
    for rows in tables.values():
        meaningful = [r for r in rows if r.error_combined >= 1e-12]
        assert len(meaningful) >= 2
        for r in meaningful:
            assert r.gamma >= r.error_combined
        # converged iterate: both columns at rounding level
        assert rows[-1].gamma < 1e-12
        assert rows[-1].error_combined < 1e-12


def test_newton_study_tracks_linearization_error(params):
    mesh = unit_square_mesh(8)
    _assert_gamma_tracks_the_error(
        newton_study(mesh, 0.125, [0.25, 0.5], params, tol=1e-15))


def test_newton_study_solves_the_studied_step_from_the_previous_state(
        params):
    # from the march's extrapolated start the first iterate lands on the
    # solution; from the state before the step each instant keeps two
    # iterates with an error to study
    mesh = unit_square_mesh(16)
    _assert_gamma_tracks_the_error(
        newton_study(mesh, 1.0 / 16.0, [0.25, 0.5], params, tol=1e-15))


def test_newton_study_validates_instants(params):
    mesh = unit_square_mesh(4)
    for instants in ([0.3], [0.0], [-0.125, 0.25]):
        with pytest.raises(ValueError):
            newton_study(mesh, 0.125, instants, params)


def test_rising_then_falling_defect_hand_computed(setup):
    # coarse = reference + c(t) phi in u and + d(t) psi in w at the grid
    # times, linear in between; every ErrorNorms field against its closed
    # form.  c peaks at t = 0.25 and falls after it, so the running maximum
    # of |e_u|_L2 is not its last value
    from monofem.assembly import DiscreteOperators

    params, _, ref, _ = setup
    ops = DiscreteOperators(ref.mesh)
    M, K = ops.mass.toarray(), ops.stiffness.toarray()
    x, y = ref.mesh.vertices.T
    phi, psi = x * x + y, np.cos(2.0 * x) * (1.0 - y)
    c = np.array([0.1, 0.3, 0.5, 0.2, 0.1])
    d = np.array([0.0, 0.4, 0.1, -0.2, 0.3])
    coarse = TrajectorySolution(ref.mesh, ref.times,
                                ref.U + c[:, None] * phi,
                                ref.W + d[:, None] * psi, params,
                                tau=ref.tau)
    dt = np.diff(ref.times)
    dc, dd = np.diff(c), np.diff(d)
    phi_m, phi_h, psi_m = phi @ M @ phi, phi @ (M + K) @ phi, psi @ M @ psi
    phi_dual = (M @ phi) @ np.linalg.solve(M + K, M @ phi)
    times = ref.times[1:]
    got = error_curve(coarse, ref, times)
    for n, row in enumerate(got, start=1):
        cells = slice(0, n)
        l2h1 = np.sum(dt[cells] / 3.0 * (c[:n] ** 2 + c[:n] * c[1:n + 1]
                                         + c[1:n + 1] ** 2)) * phi_h
        linf_u = np.max(c[:n + 1] ** 2) * phi_m
        linf_w = np.max(d[:n + 1] ** 2) * psi_m
        dual = np.sum(dc[cells] ** 2 / dt[cells]) * phi_dual
        dtu = np.sum(dc[cells] ** 2 / dt[cells]) * phi_m
        dtw = np.sum(dd[cells] ** 2 / dt[cells]) * psi_m
        assert row.time == times[n - 1]
        assert row.l2h1 == pytest.approx(np.sqrt(l2h1), rel=1e-12)
        assert row.linf_l2_u == pytest.approx(np.sqrt(linf_u), rel=1e-12)
        assert row.linf_l2_w == pytest.approx(np.sqrt(linf_w), rel=1e-12)
        assert row.dual_dt_u == pytest.approx(np.sqrt(dual), rel=1e-12)
        assert row.l2_dt_u == pytest.approx(np.sqrt(dtu), rel=1e-12)
        assert row.l2_dt_w == pytest.approx(np.sqrt(dtw), rel=1e-12)
        assert row.combined_xy == pytest.approx(
            np.sqrt(l2h1 + linf_u + dual + linf_w + dtw), rel=1e-12)
    # at the end the maximum of c is 0.5, its last value 0.1
    assert got[-1].linf_l2_u == pytest.approx(0.5 * np.sqrt(phi_m),
                                              rel=1e-12)


def test_a_request_at_t0_gets_the_initial_defect(setup):
    # the row at t = 0 holds the L-infinity parts of the initial error
    # and nothing integrated over time; the rows after it are those of a
    # request that leaves t = 0 out
    from monofem.assembly import DiscreteOperators

    params, _, ref, _ = setup
    M = DiscreteOperators(ref.mesh).mass
    x, y = ref.mesh.vertices.T
    phi, psi = 0.2 * (x + y * y), 0.3 * np.sin(3.0 * x) * y
    coarse = TrajectorySolution(ref.mesh, ref.times, ref.U + phi,
                                ref.W + psi, params, tau=ref.tau)
    first, *rest = error_curve(coarse, ref, [0.0, 0.125, 0.25])
    u0, w0 = np.sqrt(phi @ (M @ phi)), np.sqrt(psi @ (M @ psi))
    assert first.time == 0.0
    assert first.linf_l2_u == pytest.approx(u0, rel=1e-12)
    assert first.linf_l2_w == pytest.approx(w0, rel=1e-12)
    assert first.combined_xy == pytest.approx(np.hypot(u0, w0), rel=1e-12)
    assert (first.l2h1, first.dual_dt_u, first.l2_dt_w,
            first.l2_dt_u) == (0.0, 0.0, 0.0, 0.0)
    assert rest == error_curve(coarse, ref, [0.125, 0.25])


def test_a_request_within_the_time_tolerance_is_scored_at_its_grid_point(
        setup):
    # requested times up to 1e-9 past a grid point are that point's rows,
    # the last one included, under the time they were requested at
    import dataclasses

    _, _, coarse, ref = setup
    exact = error_curve(coarse, ref, [0.125, 0.5])
    late = [0.125 + 4e-10, 0.5 + 4e-10]
    assert error_curve(coarse, ref, late) == [
        dataclasses.replace(row, time=t) for row, t in zip(exact, late)]
