import dataclasses
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from monofem import assembly, solver
from monofem.assembly import DiscreteOperators
from monofem.ionic import AlievPanfilovParams, react
from monofem.mesh import TriMesh, grid_cells, mesh_chain, unit_square_mesh
from monofem.solver import (DirectSolver, FrozenLUSolver, NewtonConfig,
                            NewtonError, SolverError, StateField,
                            TrajectorySolution, initial_state, newton_solve,
                            time_march, trajectory_nbytes)
from monofem.verify import build_reference, newton_study

from oracles import (chebyshev_mass_inverse_reference, direct_march,
                     newton_system_reference)


def test_sparse_solve_identity():
    A = sp.identity(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(DirectSolver().solve(A, b), b)


def test_sparse_solve_hand_checked():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = DirectSolver().solve(A, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_sparse_solve_random_spd_residual():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((50, 50))
    A = sp.csr_matrix(B @ B.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = DirectSolver().solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_sparse_solve_errors():
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        DirectSolver().solve(singular, np.array([1.0, 0.0]))


def _projected_initial_state(mesh, params):
    from monofem.assembly import l2_project
    from monofem.ionic import initial_data

    u0, = l2_project(mesh, [lambda x, y: initial_data(x, y)[0]])
    return StateField(mesh, u0, np.zeros(mesh.num_vertices), 0.0)


def test_newton_step_matches_scalar_oracle(params):
    # constant states remove diffusion: the FEM step equals the 2x2 Newton
    # step of the pointwise ODE system
    mesh = unit_square_mesh(4)
    nv = mesh.num_vertices
    tau = 0.2
    c_u, c_w = 0.4, 0.0
    prev = StateField(mesh, np.full(nv, c_u), np.full(nv, c_w), 0.0)
    _, _, iterates = newton_solve(prev, tau, params, NewtonConfig())
    result = iterates[1]

    r = react(c_u, c_w, params)
    J = np.array([[1.0 / tau + r.f_u, r.f_w],
                  [r.g_u, 1.0 / tau + r.g_w]])
    rhs = np.array([c_u / tau + r.f_u * c_u + r.f_w * c_w - r.f,
                    c_w / tau + r.g_u * c_u + r.g_w * c_w - r.g])
    u_next, w_next = np.linalg.solve(J, rhs)
    assert np.max(np.abs(result.u - u_next)) < 1e-12
    assert np.max(np.abs(result.w - w_next)) < 1e-12
    assert np.ptp(result.u) < 1e-12          # spatially constant update


def test_newton_solve_rejects_nonpositive_tau(params):
    mesh = unit_square_mesh(2)
    prev = StateField(mesh, np.zeros(mesh.num_vertices),
                      np.zeros(mesh.num_vertices))
    for tau in (-0.1, 0.0):
        with pytest.raises(SolverError, match="tau must be positive"):
            newton_solve(prev, tau, params, NewtonConfig())


def _newton_case(case):
    """(operators, parameters) of one oracle case."""
    mesh = mesh_chain(4, 1)[-1] if case == "refined" else unit_square_mesh(8)
    p = (AlievPanfilovParams(A=5.0, a=0.3, eps=0.05, M_scalar=2.5)
         if case == "params" else AlievPanfilovParams())
    return DiscreteOperators.for_params(mesh, p), p


def _random_states(mesh, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.1, 1.1, mesh.num_vertices) for _ in range(4)]


@pytest.mark.parametrize("case", ["unit_square_8", "refined", "params"])
def test_newton_system_matches_coo_reference(case):
    ops, p = _newton_case(case)
    for seed, tau in ((0, 0.05), (1, 0.3)):
        states = _random_states(ops.mesh, seed)
        A, rhs = ops.newton_system(p, *states, tau)
        A_ref, rhs_ref = newton_system_reference(ops, p, *states, tau)
        for block in (A.a11, A.a12, A.lower_left()):
            assert np.shares_memory(block.indices, ops.mass.indices)
            assert np.shares_memory(block.indptr, ops.mass.indptr)
        assert abs(A.tocsc() - A_ref).max() <= 1e-13 * abs(A_ref).max()
        x = np.random.default_rng(seed).standard_normal(A.shape[0])
        y_ref = A_ref @ x
        assert np.abs(A @ x - y_ref).max() <= 1e-13 * np.abs(y_ref).max()
        assert np.abs(rhs - rhs_ref).max() <= 1e-14 * np.abs(rhs_ref).max()


def test_newton_solve_uses_the_stiffness_of_its_operators(params):
    # the conductivity of the operators passed through ops= must reach the
    # Newton matrix; the parameters' p.M_scalar (1 here) must not
    mesh = unit_square_mesh(8)
    ops = DiscreteOperators(mesh, 2.5)
    prev = _projected_initial_state(mesh, params)
    tau = 0.05
    _, _, iterates = newton_solve(prev, tau, params, NewtonConfig(), ops=ops)
    A, rhs = newton_system_reference(ops, params, prev.u, prev.w, prev.u,
                                     prev.w, tau)
    x = DirectSolver().solve(A, rhs)
    nv = mesh.num_vertices
    scale = np.abs(x).max()
    assert np.abs(iterates[1].u - x[:nv]).max() <= 1e-12 * scale
    assert np.abs(iterates[1].w - x[nv:]).max() <= 1e-12 * scale
    _, _, scalar = newton_solve(prev, tau, params, NewtonConfig())
    assert np.abs(scalar[1].u - x[:nv]).max() > 1e-6 * scale


def test_newton_solve_returns_the_solution_in_mesh_numbering(params):
    # on a refined mesh the first iterate must be the direct solution of
    # the reference system assembled in the mesh's numbering
    mesh = mesh_chain(4, 1)[-1]
    ops = DiscreteOperators.for_params(mesh, params)
    prev = _projected_initial_state(mesh, params)
    tau = 0.05
    _, _, iterates = newton_solve(prev, tau, params, NewtonConfig(), ops=ops)
    A, rhs = newton_system_reference(ops, params, prev.u, prev.w, prev.u,
                                     prev.w, tau)
    x = DirectSolver().solve(A, rhs)
    nv = mesh.num_vertices
    scale = np.abs(x).max()
    assert np.abs(iterates[1].u - x[:nv]).max() <= 1e-12 * scale
    assert np.abs(iterates[1].w - x[nv:]).max() <= 1e-12 * scale


def test_slot_map_is_built_once_per_operators(params, monkeypatch):
    built = []
    real = assembly._slot_map

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(assembly, "_slot_map", counting)
    mesh = unit_square_mesh(4)
    ops = DiscreteOperators.for_params(mesh, params)
    assert built == []                       # nothing before first use
    states = _random_states(mesh, 2)
    for tau in (0.1, 0.05, 0.025, 0.1):
        ops.newton_system(params, *states, tau)
    ones = np.ones((mesh.num_triangles, 6))
    W = ops.weighted_mass(ones)
    assert len(built) == 1
    assert not ops._slots.flags.writeable
    for shared in (ops.mass.indices, ops.mass.indptr):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = shared[0]
    assert np.shares_memory(W.indices, ops.mass.indices)
    assert np.shares_memory(W.indptr, ops.mass.indptr)
    other = DiscreteOperators.for_params(mesh, params)
    other.newton_system(params, *states, 0.1)
    assert len(built) == 2


def test_newton_quadratic_convergence(params):
    # increments contract quadratically once below 0.1 and above roundoff
    mesh = unit_square_mesh(16)
    prev = _projected_initial_state(mesh, params)
    _, rec, _ = newton_solve(prev, 0.05, params, NewtonConfig(tol=1e-14))
    inc = rec.increments
    pairs = [(a, b) for a, b in zip(inc, inc[1:])
             if a < 0.1 and b > 1e-12]
    assert len(pairs) >= 2
    for a, b in pairs:
        assert b <= 10.0 * a * a


def test_newton_iteration_counts_small(params):
    mesh = unit_square_mesh(16)
    traj = time_march(mesh, params, 0.1, 0.5, NewtonConfig(tol=1e-14))
    assert np.all(traj.newton_counts() <= 10)


def test_zero_equilibrium_converges_in_one_iteration(params):
    mesh = unit_square_mesh(8)
    zero = (lambda x, y: 0.0 * x, lambda x, y: 0.0 * x)
    traj = time_march(mesh, params, 0.25, 1.0, initial=zero)
    assert np.all(traj.newton_counts() == 1)
    assert np.max(np.abs(traj.U)) == 0.0
    assert np.max(np.abs(traj.W)) == 0.0


def test_single_step_march(params):
    # degenerate schedule tau = t_end (Newton still converges at this size)
    mesh = unit_square_mesh(4)
    traj = time_march(mesh, params, 0.2, 0.2)
    assert traj.num_steps == 1
    assert traj.U.shape == (2, mesh.num_vertices)


@pytest.mark.parametrize("store_penultimate", [True, False])
def test_trajectory_nbytes_counts_the_stored_arrays(params,
                                                    store_penultimate):
    mesh = unit_square_mesh(3)
    traj = time_march(mesh, params, 0.1, 0.3,
                      store_penultimate=store_penultimate)
    stored = traj.U.nbytes + traj.W.nbytes
    for pair in traj.penultimate or ():
        if pair is not None:
            stored += pair[0].nbytes + pair[1].nbytes
    assert trajectory_nbytes(mesh.num_vertices, 3,
                             store_penultimate) == stored


def test_tau_must_divide_t_end(params):
    with pytest.raises(SolverError):
        time_march(unit_square_mesh(2), params, 0.3, 1.0)


#: reaction terms far below rounding: the pure Neumann heat equation
_NEGLIGIBLE_REACTIONS = AlievPanfilovParams(A=1e-300, a=0.15, eps=1e-300,
                                            M_scalar=1.0)


def test_reactions_off_preserves_constants():
    mesh = unit_square_mesh(8)
    const = (lambda x, y: 0.8 + 0.0 * x, lambda x, y: 0.0 * x)
    traj = time_march(mesh, _NEGLIGIBLE_REACTIONS, 0.25, 1.0, initial=const)
    assert np.max(np.abs(traj.U - 0.8)) < 1e-12
    assert np.max(np.abs(traj.W)) < 1e-12


def test_reactions_off_conserves_mass():
    # pure Neumann heat equation: d/dt integral(u) = 0
    mesh = unit_square_mesh(8)
    traj = time_march(mesh, _NEGLIGIBLE_REACTIONS, 0.125, 0.5)
    ops = DiscreteOperators(mesh)
    ones = np.ones(mesh.num_vertices)
    masses = traj.U @ (ops.mass @ ones)
    assert np.max(np.abs(masses - masses[0])) < 1e-10


def test_a_priori_box_containment(params):
    # Theorem-style invariant region with delta = 0.1 on the paper params
    mesh = unit_square_mesh(16)
    traj = time_march(mesh, params, 0.1, 2.0)
    assert traj.U.min() >= -0.1 and traj.U.max() <= 1.1
    assert traj.W.min() >= -0.1
    assert traj.W.max() <= params.recovery_cap + 0.1


def test_march_is_deterministic(params):
    mesh = unit_square_mesh(8)
    t1 = time_march(mesh, params, 0.125, 0.5)
    t2 = time_march(mesh, params, 0.125, 0.5)
    assert np.array_equal(t1.U, t2.U)
    assert np.array_equal(t1.W, t2.W)


def test_balance_mode_stops_earlier(params):
    mesh = unit_square_mesh(8)
    tol_traj = time_march(mesh, params, 0.1, 0.5,
                          NewtonConfig(mode="increment_tolerance",
                                       tol=1e-14))
    bal_traj = time_march(mesh, params, 0.1, 0.5,
                          NewtonConfig(mode="estimator_balance", sigma=0.1))
    assert np.all(bal_traj.newton_counts() <= tol_traj.newton_counts())
    for rec in bal_traj.newton:
        assert len(rec.gammas) == rec.iterations
        assert rec.gammas[-1] <= 0.1 * rec.etas[-1]


def test_balance_mode_evaluates_the_reaction_once_per_iterate(params,
                                                              monkeypatch):
    # one react per iterate, at the iterate before it, serves both
    # indicators, and they are those of the public indicator functions,
    # bit for bit
    from monofem import estimators, ionic

    calls = []
    real = ionic.react

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ionic, "react", counting)
    mesh = unit_square_mesh(8)
    cfg = NewtonConfig(mode="estimator_balance", sigma=0.1)
    traj = time_march(mesh, params, 0.1, 0.5, cfg)
    assert traj.newton_counts().sum() == 7
    assert len(calls) == 7

    ops = DiscreteOperators.for_params(mesh, params)
    prev = traj.state(0)
    _, rec, iterates = newton_solve(prev, 0.1, params, cfg, ops=ops)
    for k in range(1, rec.iterations + 1):
        pair = (iterates[k - 1], iterates[k])
        assert rec.gammas[k - 1] == estimators.linearization_indicator(
            pair, params, ops=ops)
        assert rec.etas[k - 1] == estimators.space_indicator(
            prev, pair, 0.1, params, ops=ops)[0]


def _renumbered_grid(n):
    """unit_square_mesh(n) with its vertices in a random order, claiming
    the provenance of the grid."""
    mesh = unit_square_mesh(n)
    perm = np.random.default_rng(3).permutation(mesh.num_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    renumbered = TriMesh(mesh.vertices[perm], inv[mesh.triangles])
    renumbered.base_n = n
    return renumbered


def _distorted_grid(n):
    """unit_square_mesh(n) with one interior vertex moved by h/10."""
    mesh = unit_square_mesh(n)
    moved = mesh.vertices.copy()
    moved[n + 2] += 0.1 / n
    return TriMesh(moved, mesh.triangles)


@pytest.mark.parametrize("build", [_renumbered_grid, _distorted_grid],
                         ids=["renumbered", "distorted"])
def test_a_march_refuses_a_mesh_that_is_not_a_grid(params, monkeypatch,
                                                   build):
    # refused before the operators are assembled, by time_march and by a
    # newton_solve that would assemble them itself
    mesh = build(3)
    assert grid_cells(mesh) is None

    def refuse(*args):
        raise AssertionError("assembled on a mesh that is not a grid")

    monkeypatch.setattr(solver, "DiscreteOperators",
                        SimpleNamespace(for_params=refuse))
    with pytest.raises(SolverError, match="structured grids"):
        time_march(mesh, params, 0.1, 0.2)
    zeros = np.zeros(mesh.num_vertices)
    with pytest.raises(SolverError, match="structured grids"):
        newton_solve(StateField(mesh, zeros, zeros), 0.1, params,
                     NewtonConfig())


def test_newton_failure_reports_step(params):
    mesh = unit_square_mesh(8)
    with pytest.raises(NewtonError) as exc:
        time_march(mesh, params, 0.5, 1.0,
                   NewtonConfig(tol=1e-14, max_iterations=2))
    assert exc.value.step == 1


def test_frozen_lu_matches_direct(params):
    mesh = unit_square_mesh(8)
    U, W, _ = direct_march(mesh, params, 0.1, 0.5, NewtonConfig())
    frozen = time_march(mesh, params, 0.1, 0.5)
    assert np.max(np.abs(U - frozen.U)) < 1e-9
    assert np.max(np.abs(W - frozen.W)) < 1e-9


class _CountingLinalg:
    """`scipy.sparse.linalg` as one monofem module sees it, counting its
    sparse LUs."""

    def __init__(self, real):
        self._real = real
        self.factorizations = 0

    def splu(self, A, *args, **kwargs):
        self.factorizations += 1
        return self._real.splu(A, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


@pytest.fixture
def linalg(monkeypatch):
    counting = _CountingLinalg(solver.spla)
    monkeypatch.setattr(solver, "spla", counting)
    return counting


def test_frozen_lu_applies_its_factor_once_per_krylov_vector(params):
    # right-preconditioned GMRES applies the preconditioner, and so its
    # u-block factor, the grid solve, to each Krylov vector and to nothing
    # else: not to b, not to a restart's residual
    ops = DiscreteOperators.for_params(unit_square_mesh(8), params)
    A, rhs = ops.newton_system(params, *_random_states(ops.mesh, 4), 0.05)
    applied = []

    def counted(v):
        applied.append(np.any(v))
        return A.u_solve(v)

    linear = FrozenLUSolver()
    x = linear.solve(dataclasses.replace(A, u_solve=counted), rhs)
    krylov = linear.krylov_iterations
    assert 0 < krylov < solver._MAX_KRYLOV       # one restart cycle
    assert all(applied)
    assert len(applied) == krylov
    assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_gmres_second_cycle_meets_the_contract(params, monkeypatch):
    # a restart length one short of what the solve needs: GMRES restarts
    # from its first cycle's result and converges in its second cycle
    ops = DiscreteOperators.for_params(unit_square_mesh(8), params)
    linear = FrozenLUSolver()
    A, rhs = ops.newton_system(params, *_random_states(ops.mesh, 4), 0.05)
    before = linear.krylov_iterations
    linear.solve(A, rhs)
    needed = linear.krylov_iterations - before
    assert needed >= 3
    monkeypatch.setattr(solver, "_MAX_KRYLOV", needed - 1)
    before = linear.krylov_iterations
    x = linear.solve(A, rhs)
    assert needed - 1 < linear.krylov_iterations - before <= 2 * (needed - 1)
    assert (np.linalg.norm(A @ x - rhs)
            <= solver.LINEAR_RESIDUAL_RTOL * np.linalg.norm(rhs))


def test_frozen_lu_raises_when_gmres_misses_the_contract(params):
    # a preconditioner that leaves out the reaction cannot precondition a
    # system whose reaction is a million times stronger: GMRES misses the
    # contract, and with nothing to factor again the solve raises, in a
    # march with the step it failed at
    ops = DiscreteOperators.for_params(unit_square_mesh(8), params)
    prev = initial_state(ops)
    stiff = AlievPanfilovParams(A=params.A * 1e6)
    B, rhs_b = ops.newton_system(stiff, prev.u, prev.w, prev.u, prev.w,
                                 0.025)
    with pytest.raises(SolverError, match="GMRES missed"):
        FrozenLUSolver().solve(B, rhs_b)
    with pytest.raises(SolverError, match=r"^step 1 \(t=0.025\): GMRES"):
        time_march(ops.mesh, stiff, 0.025, 0.05)

    A, rhs = ops.newton_system(params, prev.u, prev.w, prev.u, prev.w,
                               0.025)
    fresh = FrozenLUSolver()
    zero = fresh.solve(A, np.zeros_like(rhs))
    assert np.array_equal(zero, np.zeros_like(rhs))
    assert fresh.krylov_iterations == 0


#: (mesh n, tau, t_end, Newton settings) of each march the package runs;
#: the reference and the Newton study drive Newton to rounding level
_MARCHES = {
    "time_march": (16, 0.05, 1.0, NewtonConfig()),
    "build_reference": (8, 0.05, 0.5, NewtonConfig(tol=1e-15,
                                                   max_iterations=40)),
    "newton_study": (8, 0.0625, 0.5, NewtonConfig(tol=1e-15,
                                                  max_iterations=60)),
}


@pytest.mark.parametrize("march", sorted(_MARCHES))
def test_no_march_factors_a_matrix(params, linalg, monkeypatch, march):
    # neither through the solver's view of scipy nor anywhere else: the
    # u-block is solved on the grid, the mass matrix by Chebyshev steps,
    # in the preconditioner and in the initial projection
    import scipy.sparse.linalg

    every = _CountingLinalg(SimpleNamespace(splu=scipy.sparse.linalg.splu))
    monkeypatch.setattr(scipy.sparse.linalg, "splu", every.splu)
    n, tau, t_end, cfg = _MARCHES[march]
    mesh = unit_square_mesh(n)
    if march == "time_march":
        counts = time_march(mesh, params, tau, t_end).newton_counts()
    elif march == "build_reference":
        counts = build_reference(mesh, tau, t_end, params).newton_counts()
    else:
        tables = newton_study(mesh, tau, [0.25, t_end], params)
        counts = [len(tables[t]) for t in (0.25, t_end)]
    assert linalg.factorizations == 0
    assert every.factorizations == 0
    oracle = direct_march(mesh, params, tau, t_end, cfg)[2]
    if march == "newton_study":
        oracle = oracle[[3, 7]]               # the steps ending at 0.25, 0.5
    # GMRES started from the current iterate returns an increment at
    # rounding level without adding its own noise of order 1e-12 |b|, so
    # a step may stop one iterate before the oracle's, never after it
    assert len(counts) == len(oracle)
    assert np.all(np.asarray(counts) <= oracle)


def test_a_march_makes_no_splu(params, linalg, monkeypatch):
    # the u-block is solved on the grid and the mass matrix by Chebyshev
    # steps, so neither a march nor the initial projection before it makes
    # a sparse LU, through the solver's view of scipy or through scipy
    import scipy.sparse.linalg

    every = _CountingLinalg(SimpleNamespace(splu=scipy.sparse.linalg.splu))
    monkeypatch.setattr(scipy.sparse.linalg, "splu", every.splu)
    mesh = unit_square_mesh(8)
    assert time_march(mesh, params, 0.1, 0.5).num_steps == 5
    assert linalg.factorizations == 0
    assert every.factorizations == 0

    ops = DiscreteOperators.for_params(mesh, params)
    state = initial_state(ops)
    assert every.factorizations == 0
    steps = list(solver._march_steps(state, 0.1, 2, params, NewtonConfig(),
                                     ops))
    assert len(steps) == 2
    assert linalg.factorizations == 0
    assert every.factorizations == 0


@pytest.mark.parametrize("march", sorted(_MARCHES))
def test_no_march_assembles_the_whole_newton_matrix(params, monkeypatch,
                                                    march):
    # a march multiplies by the Newton blocks; only the DirectSolver
    # oracle assembles the 2N x 2N matrix
    def refuse(self):
        raise AssertionError("a march assembled the whole Newton matrix")

    monkeypatch.setattr(assembly.NewtonMatrix, "tocsc", refuse)
    n, tau, t_end, _ = _MARCHES[march]
    mesh = unit_square_mesh(n)
    if march == "time_march":
        assert time_march(mesh, params, tau, t_end).num_steps == 20
    elif march == "build_reference":
        assert build_reference(mesh, tau, t_end, params).num_steps == 10
    else:
        assert sorted(newton_study(mesh, tau, [0.25, t_end], params)) == [
            0.25, t_end]


@pytest.mark.parametrize("tau", [0.05, 0.5])
def test_block_preconditioner_is_one_fixed_linear_operator(params, tau):
    # right-preconditioned GMRES needs the same P at every Krylov vector:
    # P^-1 is linear, the same input gives the same output, and its
    # w-block is the fixed Chebyshev polynomial, not a solve to a
    # tolerance, scaled by the 1/tau + eps that the backend reads from
    # the Newton matrix it is given
    ops = DiscreteOperators.for_params(unit_square_mesh(8), params)
    linear = FrozenLUSolver()
    linear.solve(*ops.newton_system(params, *_random_states(ops.mesh, 3),
                                    tau))
    nv = ops.mesh.num_vertices
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 2 * nv))
    pa, pb = linear._precondition(a), linear._precondition(b)
    for alpha in (-0.37, 1e6):
        combined = linear._precondition(alpha * a + b)
        scale = np.abs(alpha * pa + pb).max()
        assert np.abs(combined - (alpha * pa + pb)).max() <= 1e-14 * scale
    assert np.array_equal(linear._precondition(b), pb)

    reference, _ = chebyshev_mass_inverse_reference(
        ops.mass, solver._PRECONDITIONER_STEPS)
    r_w = b[nv:]
    y = linear._precondition(np.concatenate([np.zeros(nv), r_w]))
    expected = reference @ r_w / (1.0 / tau + params.eps)
    assert not np.any(y[:nv])
    assert np.abs(y[nv:] - expected).max() <= 1e-13 * np.abs(expected).max()


def test_initial_state_evaluates_the_default_data_once(params, monkeypatch):
    # w0 = 0 is not computed from the Gaussian again; the projection is
    # the one of both components of initial_data, bit for bit
    from monofem import ionic
    from monofem.assembly import l2_project

    ops = DiscreteOperators.for_params(unit_square_mesh(8), params)
    both = [lambda x, y: ionic.initial_data(x, y)[0],
            lambda x, y: ionic.initial_data(x, y)[1]]
    expected = l2_project(ops.mesh, both, mass=ops.mass)
    calls = []
    real = ionic.initial_data

    def counting(x, y):
        calls.append(np.shape(x))
        return real(x, y)

    monkeypatch.setattr(ionic, "initial_data", counting)
    state = initial_state(ops)
    assert len(calls) == 1
    assert np.array_equal(state.u, expected[0])
    assert np.array_equal(state.w, expected[1])


#: (mesh n, tau, t_end) of marches from small to large steps; at tau = 1
#: the u-block M/tau + K + M(f_u) of the first step's middle Newton
#: iterates is indefinite
_TAU_MARCHES = [(8, 0.002, 0.01), (8, 0.25, 1.0), (8, 1.0, 2.0)]


@pytest.mark.parametrize("n, tau, t_end", _TAU_MARCHES)
def test_block_preconditioned_march_matches_the_oracle_across_tau(
        params, linalg, n, tau, t_end):
    mesh = unit_square_mesh(n)
    traj = time_march(mesh, params, tau, t_end)
    assert linalg.factorizations == 0
    U, W, counts = direct_march(mesh, params, tau, t_end, NewtonConfig())
    assert np.max(np.abs(traj.U - U)) <= 1e-9
    assert np.max(np.abs(traj.W - W)) <= 1e-9
    assert np.all(traj.newton_counts() <= counts)


def test_every_accepted_state_meets_the_residual_contract(params):
    # linearized at the accepted state, A(x) x - b(x) is the nonlinear
    # implicit Euler residual of that state, whatever GMRES started from
    mesh = unit_square_mesh(16)
    tau = 0.05
    traj = time_march(mesh, params, tau, 1.0)
    ops = DiscreteOperators.for_params(mesh, params)
    for n in range(1, traj.num_steps + 1):
        A, rhs = ops.newton_system(params, traj.U[n - 1], traj.W[n - 1],
                                   traj.U[n], traj.W[n], tau)
        x = np.concatenate([traj.U[n], traj.W[n]])
        assert (np.linalg.norm(A @ x - rhs)
                <= solver.LINEAR_RESIDUAL_RTOL * np.linalg.norm(rhs)), n


def test_gmres_starts_from_the_current_newton_iterate(params):
    # an x0 that already solves the system to 1e-13: GMRES returns x0
    # without a Krylov iteration
    ops = DiscreteOperators.for_params(unit_square_mesh(8), params)
    linear = FrozenLUSolver()
    A, rhs = ops.newton_system(params, *_random_states(ops.mesh, 4), 0.05)
    x0 = DirectSolver().solve(A, rhs)
    assert np.linalg.norm(A @ x0 - rhs) <= 1e-13 * np.linalg.norm(rhs)
    before = linear.krylov_iterations
    assert np.array_equal(linear.solve(A, rhs, x0), x0)
    assert linear.krylov_iterations == before
    linear.solve(A, rhs)
    assert linear.krylov_iterations > before

    # and the Newton loop hands each solve its current iterate
    starts = []

    class Recording(FrozenLUSolver):
        def solve(self, A, b, x0=None):
            starts.append(x0)
            return super().solve(A, b, x0)

    prev = initial_state(ops)
    _, _, iterates = newton_solve(prev, 0.05, params, NewtonConfig(),
                                  ops=ops,
                                  linear=Recording())
    assert len(starts) == len(iterates) - 1
    for x0, it in zip(starts, iterates):
        assert np.array_equal(x0, np.concatenate([it.u, it.w]))


def test_quadratic_stop_only_drops_confirming_iterates(params,
                                                      monkeypatch):
    # the quadratic-rate stop accepts an iterate whose next increment
    # would be zero: with the test switched off, every step of the march
    # ends on the same state, one iterate later at most
    mesh = unit_square_mesh(16)
    stopped = time_march(mesh, params, 0.05, 2.0)
    monkeypatch.setattr(solver, "_converged_quadratically",
                        lambda *args: False)
    confirmed = time_march(mesh, params, 0.05, 2.0)
    assert stopped.num_steps == 40
    assert np.array_equal(stopped.U, confirmed.U)
    assert np.array_equal(stopped.W, confirmed.W)
    extra = confirmed.newton_counts() - stopped.newton_counts()
    assert np.all((extra == 0) | (extra == 1))
    assert np.any(extra == 1)


@pytest.mark.parametrize("tau, t_end", [(0.05, 2.0), (0.25, 2.0)])
def test_every_accepted_step_ends_below_the_loosest_increment(params, tau,
                                                              t_end):
    traj = time_march(unit_square_mesh(16), params, tau, t_end)
    for n, rec in enumerate(traj.newton, start=1):
        assert rec.increments[-1] < solver._LOOSEST_INCREMENT, n


def test_march_starts_newton_from_the_extrapolated_state(params):
    # step 1 starts from the previous state, bit for bit as newton_solve
    # alone does; step 2 from 2 x^1 - x^0, its iterate 0; step 6 from the
    # extrapolation of the six states before it
    ops = DiscreteOperators.for_params(unit_square_mesh(8), params)
    state = initial_state(ops)
    cfg = NewtonConfig()
    steps = list(solver._march_steps(state, 0.1, 6, params, cfg, ops))
    (rec1, first), (_, second) = steps[:2]
    _, alone_rec, alone = newton_solve(state, 0.1, params, cfg, ops=ops)
    assert rec1.increments == alone_rec.increments
    assert len(first) == len(alone)
    for a, b in zip(first, alone):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)
    x1 = first[-1]
    assert np.array_equal(second[0].u, 2.0 * x1.u - state.u)
    assert np.array_equal(second[0].w, 2.0 * x1.w - state.w)
    history = [iterates[-1] for _, iterates in reversed(steps[:5])]
    u, w = solver._newton_start(history + [state])
    sixth = steps[5][1][0]
    assert np.array_equal(sixth.u, u) and np.array_equal(sixth.w, w)


def _polynomial_history(coeffs, length, h=1.0):
    """States at t = 0, -h, ..., -(length-1) h, newest first, whose u and
    w are the polynomials with the coefficient rows `coeffs` (lowest
    degree first), and the exact values at t = h."""
    def at(t):
        x = sum(c * t ** i for i, c in enumerate(coeffs))
        return SimpleNamespace(u=x[0], w=x[1])
    return [at(-j * h) for j in range(length)], at(h)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, solver._MAX_PREDICTOR_DEGREE),
       data=st.data())
def test_extrapolation_reproduces_polynomials_to_its_degree(degree, data):
    # every sequence of degree <= k is extrapolated exactly by degree k;
    # the monomial of degree k + 1 is not
    poly = data.draw(st.integers(0, degree))
    h = data.draw(st.floats(1e-3, 1.0))
    values = st.floats(-1.0, 1.0, allow_nan=False)
    coeffs = np.array(data.draw(st.lists(st.lists(values, min_size=6,
                                                  max_size=6),
                                         min_size=poly + 1,
                                         max_size=poly + 1)))
    coeffs = coeffs.reshape(poly + 1, 2, 3)
    history, exact = _polynomial_history(coeffs, degree + 1, h)
    u, w = solver._extrapolate(history, degree)
    scale = max(np.abs(np.concatenate([s.u, s.w])).max()
                for s in history + [exact])
    assert np.abs(u - exact.u).max() <= 1e-12 * scale
    assert np.abs(w - exact.w).max() <= 1e-12 * scale

    monomial = np.zeros((degree + 2, 2, 3))
    monomial[-1] = 1.0
    history, exact = _polynomial_history(monomial, degree + 1)
    u, _ = solver._extrapolate(history, degree)
    assert np.abs(u - exact.u).max() >= 1.0


def test_predictor_degree_is_the_best_predictor_of_the_newest_state():
    rng = np.random.default_rng(7)
    quintic, _ = _polynomial_history(rng.uniform(-1.0, 1.0, (6, 2, 50)),
                                     solver._HISTORY, h=0.1)
    assert solver._predictor_degree(quintic) == 5
    # a line with an alternating perturbation: every higher difference
    # doubles the perturbation, so degree 1 predicts best
    line, _ = _polynomial_history(rng.uniform(-1.0, 1.0, (2, 2, 50)),
                                  solver._HISTORY, h=0.1)
    wiggle = [SimpleNamespace(u=s.u + 1e-3 * (-1) ** j,
                              w=s.w - 1e-3 * (-1) ** j)
              for j, s in enumerate(line)]
    assert solver._predictor_degree(wiggle) == 1
    # with two or three states only the linear start is possible, and
    # with one newton_solve starts from it
    assert solver._predictor_degree(quintic[:3]) == 1
    assert solver._predictor_degree(quintic[:2]) == 1
    assert solver._newton_start(quintic[:1]) is None


@pytest.mark.parametrize("tau", [0.05, 0.25, 1.0])
def test_chosen_start_costs_no_more_than_the_linear_one(params, tau,
                                                         monkeypatch):
    # over a whole march to t = 32 the chosen degree takes no more Newton
    # iterates and no more Krylov vectors than the linear start of every
    # step after the first.  Not at every instant: at tau = 1 its iterate
    # total trails the linear start's by one from t = 9 and by two from
    # t = 13, and has caught up by t = 20
    def totals():
        traj = time_march(unit_square_mesh(16), params, tau, 32.0,
                          store_penultimate=False)
        return (traj.newton_counts().sum(),
                sum(r.krylov_vectors for r in traj.newton))

    chosen = totals()
    monkeypatch.setattr(solver, "_predictor_degree", lambda history: 1)
    linear = totals()
    assert chosen[0] <= linear[0]
    assert chosen[1] <= linear[1]


def test_step_records_sum_to_the_krylov_vectors_of_the_march(params,
                                                              monkeypatch):
    backends = []

    class Counted(FrozenLUSolver):
        def __init__(self):
            super().__init__()
            backends.append(self)

    monkeypatch.setattr(solver, "FrozenLUSolver", Counted)
    traj = time_march(unit_square_mesh(16), params, 0.05, 1.0)
    assert len(backends) == 1
    per_step = [r.krylov_vectors for r in traj.newton]
    assert all(k > 0 for k in per_step)
    assert sum(per_step) == backends[0].krylov_iterations


def test_newton_solve_copies_its_start(params):
    ops = DiscreteOperators.for_params(unit_square_mesh(4), params)
    prev = initial_state(ops)
    start = (prev.u * 1.01, prev.w + 0.01)
    kept = (start[0].copy(), start[1].copy())
    _, _, iterates = newton_solve(prev, 0.1, params, NewtonConfig(), ops=ops,
                                  start=start)
    assert np.array_equal(iterates[0].u, kept[0])
    assert np.array_equal(iterates[0].w, kept[1])
    assert np.array_equal(start[0], kept[0])
    assert not np.shares_memory(iterates[0].u, start[0])


def test_checkpoint_roundtrip(tmp_path, params):
    mesh = unit_square_mesh(4)
    traj = time_march(mesh, params, 0.25, 0.5)
    path = tmp_path / "traj.npz"
    traj.save(path)
    loaded = TrajectorySolution.load(path)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.U, traj.U)
    assert np.array_equal(loaded.W, traj.W)
    assert loaded.params == traj.params
    assert np.array_equal(loaded.newton_counts(), traj.newton_counts())
    assert loaded.mesh.num_vertices == mesh.num_vertices
    assert np.allclose(loaded.mesh.vertices, mesh.vertices)


def test_checkpoint_roundtrip_on_a_refined_mesh(tmp_path, params):
    # load rebuilds the mesh with mesh_chain: the columns of U and W must
    # come back in the numbering they were marched in
    mesh = mesh_chain(4, 1)[-1]
    traj = time_march(mesh, params, 0.25, 0.5)
    path = tmp_path / "traj.npz"
    traj.save(path)
    loaded = TrajectorySolution.load(path)
    assert np.array_equal(loaded.mesh.vertices, mesh.vertices)
    assert np.array_equal(loaded.U, traj.U)
    assert np.array_equal(loaded.W, traj.W)


def test_compressed_checkpoint_still_loads(tmp_path, params):
    # save writes an uncompressed archive; a format-2 file written by
    # np.savez_compressed with the same keys loads to the same arrays
    traj = time_march(unit_square_mesh(4), params, 0.25, 0.5)
    path = tmp_path / "traj.npz"
    traj.save(path)
    with zipfile.ZipFile(path) as archive:
        assert {m.compress_type for m in archive.infolist()} == {
            zipfile.ZIP_STORED}
    with np.load(path) as data:
        keys = dict(data)
    compressed = tmp_path / "compressed.npz"
    np.savez_compressed(compressed, **keys)
    loaded = TrajectorySolution.load(compressed)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.U, traj.U)
    assert np.array_equal(loaded.W, traj.W)
    assert np.array_equal(loaded.newton_counts(), traj.newton_counts())


def test_loaded_checkpoint_needs_its_initial_data(tmp_path, params):
    # the checkpoint does not hold the initial data: estimating a reloaded
    # run must not fall back to the default Gaussian
    from monofem.estimators import estimate_trajectory

    centred = (lambda x, y: np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2)
                                   / 0.25),
               lambda x, y: 0.0 * x)
    traj = time_march(unit_square_mesh(4), params, 0.25, 0.5,
                      initial=centred)
    path = tmp_path / "traj.npz"
    traj.save(path)
    loaded = TrajectorySolution.load(path)
    with pytest.raises(ValueError, match="initial"):
        estimate_trajectory(loaded)
    marched = estimate_trajectory(traj, simplified=True)
    reloaded = estimate_trajectory(loaded, initial=centred)
    assert np.array_equal(reloaded.cumulative, marched.cumulative)


def test_trajectory_checks_both_state_shapes(params):
    mesh = unit_square_mesh(4)
    times = [0.0, 0.25]
    good = np.zeros((2, mesh.num_vertices))
    for U, W in ((np.zeros((3, 7)), good), (good, np.zeros((3, 7)))):
        with pytest.raises(SolverError, match="shape"):
            TrajectorySolution(mesh, times, U, W, params)


def test_checkpoint_other_version_is_refused(tmp_path, params):
    traj = time_march(unit_square_mesh(4), params, 0.25, 0.5)
    path = tmp_path / "traj.npz"
    traj.save(path)
    with np.load(path) as data:
        keys = dict(data)
    keys["format_version"] = np.array(1)
    np.savez_compressed(path, **keys)
    with pytest.raises(SolverError, match="format version 1"):
        TrajectorySolution.load(path)


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(mode="nonsense")
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(mode="estimator_balance", sigma=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iterations=0)
