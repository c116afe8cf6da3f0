from math import factorial, prod

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from monofem import assembly
from monofem.assembly import (AssemblyError, DiscreteOperators, evaluate_p1,
                              l2_project, mass_solver, quadrature_coords,
                              quadrature_rule)
from monofem.mesh import TriMesh, mesh_chain, refine_uniform, unit_square_mesh

from oracles import (barycentric_at, chebyshev_mass_inverse_reference,
                     distorted_mesh, load_reference, p1_gradients,
                     p1_matrices_reference, reference_monomial_integral,
                     triangle_quadrature, weighted_mass_reference)


@pytest.mark.parametrize("degree", [4, 6])
def test_quadrature_exact_for_monomials(degree):
    rule = quadrature_rule(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xy = rule.points @ verts
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            approx = 0.5 * np.sum(rule.weights * xy[:, 0] ** p
                                  * xy[:, 1] ** q)
            assert approx == pytest.approx(
                reference_monomial_integral(p, q), abs=1e-13)


def _barycentric_exponents(degree):
    """Every (a1, a2, a3) with a1 + a2 + a3 = degree."""
    return [(i, j, degree - i - j) for i in range(degree + 1)
            for j in range(degree + 1 - i)]


@settings(deadline=None, max_examples=60)
@given(coords=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       scale=st.floats(1e-3, 1e3))
def test_quadrature_exact_to_its_degree_on_any_triangle(coords, scale):
    # integral over T of l1^a1 l2^a2 l3^a3 = 2 |T| a1! a2! a3! / (|a| + 2)!;
    # each rule meets it for every |a| <= its degree and misses it for
    # some |a| = degree + 1; the barycentric coordinates are recomputed
    # from the physical points, the area from the vertices
    verts = scale * np.array(coords).reshape(3, 2)
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    longest = np.max(np.sum((verts - np.roll(verts, 1, axis=0)) ** 2, axis=1))
    assume(area > 0.0 and area >= 0.05 * longest)
    for degree in (4, 6):
        rule = quadrature_rule(degree)
        lam = barycentric_at(verts, rule.points @ verts)

        def relative_error(alpha):
            approx = area * np.sum(rule.weights
                                   * np.prod(lam ** np.array(alpha), axis=1))
            exact = (2.0 * area * prod(factorial(a) for a in alpha)
                     / factorial(sum(alpha) + 2))
            return abs(approx - exact) / exact

        for d in range(degree + 1):
            for alpha in _barycentric_exponents(d):
                assert relative_error(alpha) <= 1e-13, (degree, alpha)
        assert max(relative_error(alpha)
                   for alpha in _barycentric_exponents(degree + 1)) > 1e-6


def test_degree6_rule_on_x4y2():
    rule = quadrature_rule(6)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xy = rule.points @ verts
    approx = 0.5 * np.sum(rule.weights * xy[:, 0] ** 4 * xy[:, 1] ** 2)
    assert approx == pytest.approx(reference_monomial_integral(4, 2),
                                   abs=1e-15)


def test_unsupported_degree_rejected():
    # the package integrates with the rules of degree 4 and 6 only
    for degree in (1, 2, 3):
        with pytest.raises(AssemblyError):
            quadrature_rule(degree)


def test_mass_matrix_reference_triangle(reference_triangle):
    M = DiscreteOperators(reference_triangle).mass.toarray()
    expected = np.full((3, 3), 1.0 / 24.0)
    np.fill_diagonal(expected, 1.0 / 12.0)
    assert np.allclose(M, expected, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_mass_matrix_total_and_row_sums(n):
    M = DiscreteOperators(unit_square_mesh(n)).mass
    assert M.sum() == pytest.approx(1.0, abs=1e-13)
    rows = np.asarray(M.sum(axis=1)).ravel()
    assert np.all(rows > 0)
    assert rows.sum() == pytest.approx(1.0, abs=1e-13)


def test_mass_matrix_spd_dense_eigensolve():
    M = DiscreteOperators(unit_square_mesh(2)).mass.toarray()
    eig = np.linalg.eigvalsh(M)
    assert eig.min() > 0


def test_stiffness_reference_triangle(reference_triangle):
    K = DiscreteOperators(reference_triangle).stiffness.toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
    assert np.allclose(K, expected, atol=1e-15)


def test_stiffness_kernel_contains_constants(mesh8):
    K = DiscreteOperators(mesh8).stiffness
    assert np.max(np.abs(K @ np.ones(mesh8.num_vertices))) < 1e-13


def test_stiffness_scaling_in_conductivity(mesh8):
    # the stiffness part of the Newton block a11 = M/tau + sigma K + M(f_u)
    # is p.M_scalar times the operators' stiffness K; the rest of the
    # system holds no conductivity
    from monofem.ionic import AlievPanfilovParams

    ops = DiscreteOperators(mesh8)
    rng = np.random.default_rng(3)
    states = [rng.uniform(-0.1, 1.1, mesh8.num_vertices) for _ in range(4)]
    A1, rhs1 = ops.newton_system(AlievPanfilovParams(), *states, 0.05)
    K = ops.stiffness.data
    for sigma in (2.0, 2.5, 0.37):
        A, rhs = ops.newton_system(AlievPanfilovParams(M_scalar=sigma),
                                   *states, 0.05)
        assert np.abs((A.a11.data - A1.a11.data) - (sigma - 1.0) * K
                      ).max() <= 1e-13 * np.abs(K).max()
        assert np.array_equal(A.a12.data, A1.a12.data)
        assert np.array_equal(rhs, rhs1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stiffness_has_exactly_one_zero_eigenvalue(n):
    K = DiscreteOperators(unit_square_mesh(n)).stiffness.toarray()
    eig = np.linalg.eigvalsh(K)
    assert abs(eig[0]) < 1e-12
    assert eig[1] > 1e-10


@pytest.mark.parametrize("conductivity", [1.0, 2.0])
@pytest.mark.parametrize("mesh", [
    TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]])),
    unit_square_mesh(1), unit_square_mesh(5), unit_square_mesh(16),
    distorted_mesh(8, 2)],
    ids=["reference_triangle", "n1", "n5", "n16", "distorted"])
def test_operators_match_the_coo_reference(mesh, conductivity):
    # the one sorted pattern and its slot map give the index arrays of a
    # COO -> CSR scatter and its data to rounding level; the stiffness is
    # that of unit conductivity, and scaled by a conductivity it is the
    # reference assembled at that conductivity
    ops = DiscreteOperators(mesh)
    M, K = p1_matrices_reference(mesh)
    K_sigma = p1_matrices_reference(mesh, conductivity)[1]
    for A, ref in ((ops.mass, M), (ops.stiffness, K), (ops.h1_gram, M + K),
                   (conductivity * ops.stiffness, K_sigma)):
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.abs(A.data - ref.data).max() <= 1e-15 * np.abs(
            ref.data).max()


def test_assembled_matrices_are_symmetric(mesh8):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(mesh8.num_vertices)
    ops = DiscreteOperators(mesh8)
    for A in (ops.mass, ops.stiffness,
              ops.weighted_mass(ops.field_at(c, ops.rule4))):
        x = rng.standard_normal(A.shape[0])
        y = rng.standard_normal(A.shape[0])
        assert abs(x @ (A @ y) - y @ (A.T @ x)) < 1e-12
        assert np.max(np.abs((A - A.T).toarray())) < 1e-13


def test_weighted_mass_special_coefficients(mesh8):
    nv = mesh8.num_vertices
    ops = DiscreteOperators(mesh8)
    M = ops.mass

    def wm(c):
        return ops.weighted_mass(ops.field_at(c, ops.rule4))

    assert np.max(np.abs((wm(np.ones(nv)) - M).toarray())) < 1e-14
    assert wm(np.zeros(nv)).nnz == 0 or \
        np.max(np.abs(wm(np.zeros(nv)).data)) < 1e-15
    assert np.max(np.abs((wm(2.5 * np.ones(nv))
                          - 2.5 * M).toarray())) < 1e-13


def test_weighted_mass_linearity(mesh8):
    rng = np.random.default_rng(5)
    c1 = rng.standard_normal(mesh8.num_vertices)
    c2 = rng.standard_normal(mesh8.num_vertices)
    ops = DiscreteOperators(mesh8)

    def wm(c):
        return ops.weighted_mass(ops.field_at(c, ops.rule4))

    W = wm(c1 + c2)
    W12 = wm(c1) + wm(c2)
    assert np.max(np.abs((W - W12).toarray())) < 1e-13


def test_weighted_mass_size_mismatch(mesh8):
    ops = DiscreteOperators(mesh8)
    with pytest.raises(AssemblyError):
        ops.weighted_mass(ops.field_at(np.ones(mesh8.num_vertices + 1),
                                       ops.rule4))


@pytest.mark.parametrize("degree", [4, 6])
@pytest.mark.parametrize("mesh", [unit_square_mesh(8), distorted_mesh(8, 2)],
                         ids=["unit_square_8", "distorted"])
def test_kernels_match_coo_reference(mesh, degree):
    # the weighted mass of the operators and the load vector against the
    # einsum + COO assembly of tests/oracles.py
    rule = quadrature_rule(degree)
    values = np.random.default_rng(3).standard_normal(
        (mesh.num_triangles, len(rule.weights)))
    ref = weighted_mass_reference(mesh, values, rule)
    scale = np.abs(ref).max()
    ops = DiscreteOperators(mesh)
    W = ops.weighted_mass(values, rule)
    assert np.array_equal(W.indptr, ops.mass.indptr)
    assert np.array_equal(W.indices, ops.mass.indices)
    assert np.abs(W - ref).max() <= 1e-14 * scale
    b = ops.load(values, rule)
    b_ref = load_reference(mesh, values, rule)
    assert np.abs(b - b_ref).max() <= 1e-14 * np.abs(b_ref).max()


def test_weighted_mass_matrix_matches_coo_reference(mesh8):
    rule = quadrature_rule(4)
    c = np.random.default_rng(4).standard_normal(mesh8.num_vertices)
    ops = DiscreteOperators(mesh8)
    ref = weighted_mass_reference(mesh8, ops.field_at(c, rule), rule)
    W = ops.weighted_mass(ops.field_at(c, ops.rule4))
    assert np.abs(W - ref).max() <= 1e-14 * np.abs(ref).max()


def test_element_matrices_against_bruteforce_quadrature():
    # independent oracle: Duffy-transform Gauss on each element
    mesh = refine_uniform(unit_square_mesh(2))
    rng = np.random.default_rng(9)
    c = rng.standard_normal(mesh.num_vertices)
    ops = DiscreteOperators(mesh)
    M, K = ops.mass, ops.stiffness
    W = ops.weighted_mass(ops.field_at(c, ops.rule4))

    Mo = sp.lil_matrix(M.shape)
    Ko = sp.lil_matrix(M.shape)
    Wo = sp.lil_matrix(M.shape)
    for k, tri in enumerate(mesh.triangles):
        verts = mesh.vertices[tri]
        pts, wts = triangle_quadrature(verts, order=8)
        lam = barycentric_at(verts, pts)
        grads = p1_gradients(verts)
        c_loc = lam @ c[tri]
        for i in range(3):
            for j in range(3):
                Mo[tri[i], tri[j]] += np.dot(wts, lam[:, i] * lam[:, j])
                Ko[tri[i], tri[j]] += wts.sum() * (grads[i] @ grads[j])
                Wo[tri[i], tri[j]] += np.dot(wts,
                                             c_loc * lam[:, i] * lam[:, j])
    for A, B in ((M, Mo), (K, Ko), (W, Wo)):
        diff = np.abs((A - B.tocsr()).toarray()).max()
        scale = np.abs(A.toarray()).max()
        assert diff <= 1e-10 * scale


def test_l2_project_constants_and_p1(mesh8):
    const, p1 = l2_project(DiscreteOperators(mesh8),
                           [lambda x, y: 7.0 + 0.0 * x,
                            lambda x, y: 2.0 * x - 3.0 * y + 0.25])
    assert np.max(np.abs(const - 7.0)) < 1e-12
    nodal = 2.0 * mesh8.vertices[:, 0] - 3.0 * mesh8.vertices[:, 1] + 0.25
    assert np.max(np.abs(p1 - nodal)) < 1e-12


#: meshes of the grid solve: n = 1, 2, odd and even, and two refined
#: meshes, whose width the solve reads from the mesh's arrays
_GRIDS = {"n1": lambda: unit_square_mesh(1),
          "n2": lambda: unit_square_mesh(2),
          "n7": lambda: unit_square_mesh(7),
          "n8": lambda: unit_square_mesh(8),
          "n12": lambda: mesh_chain(3, 2)[-1],
          "n64": lambda: mesh_chain(16, 2)[-1]}


@pytest.mark.parametrize("case", sorted(_GRIDS))
def test_u_block_solver_inverts_the_tensor_product_operator(case):
    # the DCT-I solve is the exact inverse of the sparse shift M_T + K,
    # with the stiffness matrix assembled on the mesh and M_T the
    # Kronecker product of the 1-D lumped masses h diag(1/2, 1, ..., 1/2)
    mesh = _GRIDS[case]()
    conductivity, tau = 0.37, 0.137
    n = round(np.sqrt(mesh.num_vertices)) - 1
    ends = np.ones(n + 1)
    ends[[0, -1]] = 0.5
    lumped = sp.diags(ends / n)
    ops = DiscreteOperators(mesh)
    A = (sp.kron(lumped, lumped) / tau + conductivity * ops.stiffness).tocsc()
    solve = ops.u_block_solver(tau, conductivity)
    r = np.random.default_rng(n).standard_normal(mesh.num_vertices)
    x = solve(r)
    expected = spsolve(A, r)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.linalg.norm(A @ x - r) <= 1e-12 * np.linalg.norm(r)


def test_u_block_solver_is_made_once_per_tau(monkeypatch):
    made = []
    real = assembly.grid_solver

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(assembly, "grid_solver", counting)
    ops = DiscreteOperators(unit_square_mesh(4))
    first = ops.u_block_solver(0.1, 0.5)
    assert ops.u_block_solver(0.1, 0.5) is first
    ops.u_block_solver(0.2, 0.5)
    ops.u_block_solver(0.1, 1.0)
    assert ops.u_block_solver(0.1, 0.5) is first
    assert made == [(4, 10.0, 0.5), (4, 5.0, 0.5), (4, 10.0, 1.0)]
    with pytest.raises(AssemblyError):
        DiscreteOperators(distorted_mesh(4, 1)).u_block_solver(0.1, 1.0)


_PROJECTED = [lambda x, y: np.exp(-((x - 1.0) ** 2 + y ** 2) / 0.25),
              lambda x, y: x * y,
              lambda x, y: np.sin(40.0 * x) * np.cos(23.0 * y)]


def _projection_error(mesh):
    """Largest difference between l2_project and spsolve on the mass
    matrix, relative to the largest entry of the spsolve projections."""
    ops = DiscreteOperators(mesh)
    xy = quadrature_coords(mesh, ops.rule6)
    b = np.column_stack([ops.load(f(xy[:, :, 0], xy[:, :, 1]), ops.rule6)
                         for f in _PROJECTED])
    expected = spsolve(ops.mass.tocsc(), b)
    got = l2_project(ops, _PROJECTED).T
    return np.abs(got - expected).max() / np.abs(expected).max()


def test_l2_project_matches_spsolve_on_a_refined_mesh():
    # the Chebyshev steps reach rounding level also in the row-by-row
    # numbering of a refined mesh
    assert _projection_error(mesh_chain(4, 2)[-1]) <= 1e-13


@pytest.mark.parametrize("case", ["structured_32", "distorted"])
def test_l2_project_matches_spsolve_to_rounding_level(case):
    mesh = unit_square_mesh(32) if case == "structured_32" else \
        distorted_mesh(16, 7)
    assert _projection_error(mesh) <= 1e-13


def test_l2_project_solves_no_zero_load(mesh8, monkeypatch):
    # the default w0 loads exactly zero: its projection is the zero that
    # the Chebyshev steps would give, and the steps run only for u0
    from monofem.ionic import initial_pair

    ops = DiscreteOperators(mesh8)
    mass = ops.mass
    real = assembly.mass_solver
    steps = assembly._PROJECTION_STEPS
    applied = []

    def counting(M, k):
        solve = real(M, k)

        def counted(b):
            applied.append(k)
            return solve(b)

        return counted

    monkeypatch.setattr(assembly, "mass_solver", counting)
    u0, w0 = l2_project(ops, initial_pair())
    assert applied == [steps]
    zero = real(mass, steps)(np.zeros(mesh8.num_vertices))
    assert np.array_equal(w0, zero) and not np.any(np.signbit(w0))
    xy = quadrature_coords(mesh8, ops.rule6)
    b = ops.load(initial_pair()[0](xy[:, :, 0], xy[:, :, 1]), ops.rule6)
    assert np.array_equal(u0, real(mass, steps)(b))


@settings(deadline=None, max_examples=30)
@given(kind=st.sampled_from(["structured", "refined", "distorted"]),
       n=st.integers(1, 6), levels=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_jacobi_scaled_mass_spectrum_lies_in_half_to_two(kind, n, levels,
                                                         seed):
    # Wathen (1987): the spectrum of D^-1 M, D = diag M, of the P1 mass
    # matrix of any triangle mesh lies in [1/2, 2]; the Chebyshev steps
    # of mass_solver are taken over that interval
    if kind == "structured":
        mesh = unit_square_mesh(n)
    elif kind == "refined":
        mesh = mesh_chain(n, levels)[-1]
    else:
        mesh = distorted_mesh(n + 1, seed)
    M = DiscreteOperators(mesh).mass.toarray()
    lam = sla.eigvalsh(M, np.diag(np.diag(M)))
    assert lam.min() >= 0.5 - 1e-12
    assert lam.max() <= 2.0 + 1e-12


@pytest.mark.parametrize("steps", [1, 2, 6, 13])
def test_mass_solver_applies_the_fixed_chebyshev_polynomial(steps):
    # k steps from the zero guess are one fixed polynomial in D^-1 M,
    # whatever b is, and meet the error bound 2 3^-k in the M-norm
    mesh = distorted_mesh(5, 3)
    M = DiscreteOperators(mesh).mass
    reference, p = chebyshev_mass_inverse_reference(M, steps)
    assert np.abs(p).max() <= 2.0 * 3.0 ** -steps
    rng = np.random.default_rng(steps)
    for b in (rng.standard_normal(mesh.num_vertices),
              M @ np.ones(mesh.num_vertices)):
        exact = spsolve(M.tocsc(), b)
        got = mass_solver(M, steps)(b)
        assert np.abs(got - reference @ b).max() <= 1e-13 * np.abs(
            exact).max()
        error = exact - got
        assert (np.sqrt(error @ (M @ error))
                <= 2.0 * 3.0 ** -steps * np.sqrt(exact @ (M @ exact)))


def test_l2_project_gaussian_second_order():
    # the interpolant is exact at the peak node; the projection differs by
    # O(h^2), checked through the L2 projection error under refinement
    from monofem.ionic import initial_data

    f = lambda x, y: initial_data(x, y)[0]
    errs = []
    for mesh in mesh_chain(4, 2):
        proj, = l2_project(DiscreteOperators(mesh), [f])
        peak = np.flatnonzero((np.abs(mesh.vertices[:, 0] - 1.0) < 1e-12)
                              & (np.abs(mesh.vertices[:, 1]) < 1e-12))[0]
        assert f(1.0, 0.0) == pytest.approx(1.0)
        assert proj[peak] != pytest.approx(1.0, abs=1e-6)  # not interpolation
        pts, wts = [], []
        err2 = 0.0
        for k, tri in enumerate(mesh.triangles):
            q_pts, q_wts = triangle_quadrature(mesh.vertices[tri], order=6)
            lam = barycentric_at(mesh.vertices[tri], q_pts)
            diff = lam @ proj[tri] - f(q_pts[:, 0], q_pts[:, 1])
            err2 += np.dot(q_wts, diff ** 2)
        errs.append(np.sqrt(err2))
    rate1 = errs[0] / errs[1]
    rate2 = errs[1] / errs[2]
    assert 3.0 < rate1 < 5.0
    assert 3.0 < rate2 < 5.0


def test_evaluate_p1_at_vertices_and_inside(mesh8):
    rng = np.random.default_rng(2)
    v = rng.standard_normal(mesh8.num_vertices)
    for idx in (0, 5, mesh8.num_vertices - 1):
        x, y = mesh8.vertices[idx]
        assert evaluate_p1(mesh8, v, x, y) == pytest.approx(v[idx],
                                                            abs=1e-13)
    nodal = 2.0 * mesh8.vertices[:, 0] - mesh8.vertices[:, 1]
    assert evaluate_p1(mesh8, nodal, 0.3, 0.45) == pytest.approx(
        2.0 * 0.3 - 0.45, abs=1e-13)
    with pytest.raises(AssemblyError):
        evaluate_p1(mesh8, v, 1.5, 0.5)


def test_evaluate_p1_locates_each_point_once_per_mesh(monkeypatch):
    # the CLI evaluates u and w at the probe of every stored step; the
    # triangle and weights found by the first call serve the later ones,
    # and each mesh keeps its own
    scans = []
    real = assembly._locate

    def counting(mesh, x, y):
        scans.append((x, y))
        return real(mesh, x, y)

    mesh = unit_square_mesh(8)
    rng = np.random.default_rng(4)
    u, w = rng.standard_normal((2, mesh.num_vertices))
    before = [evaluate_p1(mesh, v, 0.37, 0.61) for v in (u, w)]
    mesh = unit_square_mesh(8)
    monkeypatch.setattr(assembly, "_locate", counting)
    after = [evaluate_p1(mesh, v, 0.37, 0.61) for v in (u, w, u)]
    assert scans == [(0.37, 0.61)]
    assert after == before + before[:1]          # bit for bit
    k, lam = mesh.located_points[(0.37, 0.61)]
    verts = mesh.vertices[mesh.triangles[k]]
    assert np.abs(lam - barycentric_at(verts, np.array([[0.37, 0.61]]))[0]
                  ).max() <= 1e-14
    evaluate_p1(unit_square_mesh(8), u, 0.37, 0.61)
    assert len(scans) == 2


def test_discrete_operators_norms(mesh8):
    ops = DiscreteOperators(mesh8)
    ones = np.ones(mesh8.num_vertices)
    assert ops.l2_norm(ones) == pytest.approx(1.0, rel=1e-13)
    assert ops.h1_norm(ones) == pytest.approx(1.0, rel=1e-13)
    nodal = mesh8.vertices[:, 0]
    # |x|_L2^2 = 1/3, |grad x|^2 = 1 on the unit square
    assert ops.l2_norm(nodal) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)
    assert ops.h1_norm(nodal) == pytest.approx(np.sqrt(1.0 / 3.0 + 1.0),
                                               rel=1e-12)


def _blocked_assembly(mesh, states):
    """(a11, a12, rhs, projections) of one Newton system and one initial
    projection on `mesh`, with the grid check of the u-block solve left
    out so that a distorted mesh assembles too."""
    from monofem.ionic import AlievPanfilovParams

    p = AlievPanfilovParams()
    ops = DiscreteOperators(mesh)
    ops.u_block_solver = lambda tau, conductivity: None
    A, rhs = ops.newton_system(p, *states, 0.05)
    return (len(ops._blocks), A.a11.data, A.a12.data, rhs,
            l2_project(ops, _PROJECTED))


@pytest.mark.parametrize("mesh", [unit_square_mesh(1), unit_square_mesh(2),
                                  unit_square_mesh(5), unit_square_mesh(16),
                                  distorted_mesh(8, 2)],
                         ids=["n1", "n2", "n5", "n16", "distorted"])
def test_blocks_agree_with_one_block(mesh, monkeypatch):
    # every mesh here is one block of _BLOCK triangles; cut into blocks of
    # 3, the last one partial, the Newton system and the projection of
    # each block add up to the one-block result
    rng = np.random.default_rng(11)
    states = [rng.uniform(-0.1, 1.1, mesh.num_vertices) for _ in range(4)]
    one = _blocked_assembly(mesh, states)
    monkeypatch.setattr(assembly, "_BLOCK", 3)
    cut = _blocked_assembly(mesh, states)
    assert one[0] == 1
    assert cut[0] == -(-mesh.num_triangles // 3)
    for whole, blocks in zip(one[1:], cut[1:]):
        assert np.abs(blocks - whole).max() <= 1e-13 * np.abs(whole).max()


def test_newton_system_transient_is_a_few_mesh_vectors(params):
    # the blocks keep one Newton system's allocations near the arrays it
    # returns (a11 and a12 data and rhs, about 130 B per vertex on this
    # grid); whole-mesh quadrature arrays read 640 B per vertex
    import tracemalloc

    ops = DiscreteOperators(unit_square_mesh(128))
    rng = np.random.default_rng(5)
    states = [rng.uniform(-0.1, 1.1, ops.mesh.num_vertices)
              for _ in range(4)]
    ops.newton_system(params, *states, 0.05)     # slot map, blocks, grid
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        A, rhs = ops.newton_system(params, *states, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / ops.mesh.num_vertices < 500


def test_operators_construction_transient_is_bounded():
    # the pattern's one sort and the fills through its slot map peak at
    # about 500 B per vertex at n = 128, the arrays kept included; the
    # COO scatter they replaced peaked at 836, bounded here with a 10 %
    # margin, so the construction phase cannot quietly grow past it
    import tracemalloc

    mesh = unit_square_mesh(128)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        DiscreteOperators(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / mesh.num_vertices < 920
