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
                              field_at_quadrature, l2_project, load_vector,
                              mass_matrix, mass_solver, quadrature_coords,
                              quadrature_rule, stiffness_matrix)
from monofem.mesh import TriMesh, mesh_chain, refine_uniform, unit_square_mesh

from oracles import (barycentric_at, chebyshev_mass_inverse_reference,
                     load_reference, p1_gradients,
                     reference_monomial_integral, triangle_quadrature,
                     weighted_mass_reference)


@pytest.mark.parametrize("degree", [1, 2, 4, 6])
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
    for degree in (1, 2, 4, 6):
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


def test_centroid_rule_integrates_constants():
    rule = quadrature_rule(1)
    assert 0.5 * rule.weights.sum() == pytest.approx(0.5)


def test_degree2_rule_on_x_squared():
    rule = quadrature_rule(2)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xy = rule.points @ verts
    assert 0.5 * np.sum(rule.weights * xy[:, 0] ** 2) == pytest.approx(
        1.0 / 12.0, abs=1e-15)


def test_degree6_rule_on_x4y2():
    rule = quadrature_rule(6)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xy = rule.points @ verts
    approx = 0.5 * np.sum(rule.weights * xy[:, 0] ** 4 * xy[:, 1] ** 2)
    assert approx == pytest.approx(reference_monomial_integral(4, 2),
                                   abs=1e-15)


def test_unsupported_degree_rejected():
    with pytest.raises(AssemblyError):
        quadrature_rule(3)


def test_mass_matrix_reference_triangle(reference_triangle):
    M = mass_matrix(reference_triangle).toarray()
    expected = np.full((3, 3), 1.0 / 24.0)
    np.fill_diagonal(expected, 1.0 / 12.0)
    assert np.allclose(M, expected, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_mass_matrix_total_and_row_sums(n):
    M = mass_matrix(unit_square_mesh(n))
    assert M.sum() == pytest.approx(1.0, abs=1e-13)
    rows = np.asarray(M.sum(axis=1)).ravel()
    assert np.all(rows > 0)
    assert rows.sum() == pytest.approx(1.0, abs=1e-13)


def test_mass_matrix_spd_dense_eigensolve():
    M = mass_matrix(unit_square_mesh(2)).toarray()
    eig = np.linalg.eigvalsh(M)
    assert eig.min() > 0


def test_stiffness_reference_triangle(reference_triangle):
    K = stiffness_matrix(reference_triangle).toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
    assert np.allclose(K, expected, atol=1e-15)


def test_stiffness_kernel_contains_constants(mesh8):
    K = stiffness_matrix(mesh8)
    assert np.max(np.abs(K @ np.ones(mesh8.num_vertices))) < 1e-13


def test_stiffness_scaling_in_conductivity(mesh8):
    K1 = stiffness_matrix(mesh8, 1.0)
    K2 = stiffness_matrix(mesh8, 2.0)
    assert np.max(np.abs((2.0 * K1 - K2).toarray())) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stiffness_has_exactly_one_zero_eigenvalue(n):
    K = stiffness_matrix(unit_square_mesh(n)).toarray()
    eig = np.linalg.eigvalsh(K)
    assert abs(eig[0]) < 1e-12
    assert eig[1] > 1e-10


def test_non_spd_tensor_rejected(mesh8):
    # the tensor M I is positive definite exactly when M > 0
    with pytest.raises(AssemblyError):
        DiscreteOperators(mesh8, 0.0)


def test_assembled_matrices_are_symmetric(mesh8):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(mesh8.num_vertices)
    ops = DiscreteOperators(mesh8)
    for A in (mass_matrix(mesh8), stiffness_matrix(mesh8),
              ops.weighted_mass(ops.field_at(c, ops.rule4))):
        x = rng.standard_normal(A.shape[0])
        y = rng.standard_normal(A.shape[0])
        assert abs(x @ (A @ y) - y @ (A.T @ x)) < 1e-12
        assert np.max(np.abs((A - A.T).toarray())) < 1e-13


def test_weighted_mass_special_coefficients(mesh8):
    nv = mesh8.num_vertices
    ops = DiscreteOperators(mesh8)
    M = mass_matrix(mesh8)

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
@pytest.mark.parametrize("mesh", [unit_square_mesh(8), mesh_chain(4, 1)[-1]],
                         ids=["unit_square_8", "refined"])
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
    b = load_vector(mesh, values, rule)
    b_ref = load_reference(mesh, values, rule)
    assert np.abs(b - b_ref).max() <= 1e-14 * np.abs(b_ref).max()


def test_weighted_mass_matrix_matches_coo_reference(mesh8):
    rule = quadrature_rule(4)
    c = np.random.default_rng(4).standard_normal(mesh8.num_vertices)
    ref = weighted_mass_reference(mesh8, field_at_quadrature(mesh8, c, rule),
                                  rule)
    ops = DiscreteOperators(mesh8)
    W = ops.weighted_mass(ops.field_at(c, ops.rule4))
    assert np.abs(W - ref).max() <= 1e-14 * np.abs(ref).max()


def test_element_matrices_against_bruteforce_quadrature():
    # independent oracle: Duffy-transform Gauss on each element
    mesh = refine_uniform(unit_square_mesh(2))
    rng = np.random.default_rng(9)
    c = rng.standard_normal(mesh.num_vertices)
    M = mass_matrix(mesh)
    K = stiffness_matrix(mesh)
    ops = DiscreteOperators(mesh)
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
    const, p1 = l2_project(mesh8, [lambda x, y: 7.0 + 0.0 * x,
                                   lambda x, y: 2.0 * x - 3.0 * y + 0.25])
    assert np.max(np.abs(const - 7.0)) < 1e-12
    nodal = 2.0 * mesh8.vertices[:, 0] - 3.0 * mesh8.vertices[:, 1] + 0.25
    assert np.max(np.abs(p1 - nodal)) < 1e-12


#: meshes of the grid solve: n = 1, 2, odd and even, and two refined
#: meshes, which number their vertices as the grid of their width does
_GRIDS = {"n1": lambda: unit_square_mesh(1),
          "n2": lambda: unit_square_mesh(2),
          "n7": lambda: unit_square_mesh(7),
          "n8": lambda: unit_square_mesh(8),
          "refined_3_2": lambda: mesh_chain(3, 2)[-1],
          "refined_16_2": lambda: mesh_chain(16, 2)[-1]}


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
    A = (sp.kron(lumped, lumped) / tau
         + stiffness_matrix(mesh, conductivity)).tocsc()
    solve = DiscreteOperators(mesh, conductivity).u_block_solver(tau)
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
    ops = DiscreteOperators(unit_square_mesh(4), 0.5)
    first = ops.u_block_solver(0.1)
    assert ops.u_block_solver(0.1) is first
    ops.u_block_solver(0.2)
    assert made == [(4, 10.0, 0.5), (4, 5.0, 0.5)]
    with pytest.raises(AssemblyError):
        DiscreteOperators(_distorted_mesh(4, 1)).u_block_solver(0.1)


def _distorted_mesh(n, seed):
    """unit_square_mesh(n) with each interior vertex moved by up to h/10
    in each coordinate, which keeps every triangle counterclockwise."""
    mesh = unit_square_mesh(n)
    xy = mesh.vertices
    interior = np.all((xy > 1e-12) & (xy < 1.0 - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    moved = xy.copy()
    moved[interior] += rng.uniform(-0.1, 0.1, (interior.sum(), 2)) / n
    return TriMesh(moved, mesh.triangles)


_PROJECTED = [lambda x, y: np.exp(-((x - 1.0) ** 2 + y ** 2) / 0.25),
              lambda x, y: x * y,
              lambda x, y: np.sin(40.0 * x) * np.cos(23.0 * y)]


def _projection_error(mesh):
    """Largest difference between l2_project and spsolve on the mass
    matrix, relative to the largest entry of the spsolve projections."""
    rule = quadrature_rule(6)
    xy = quadrature_coords(mesh, rule)
    b = np.column_stack([load_vector(mesh, f(xy[:, :, 0], xy[:, :, 1]),
                                     rule) for f in _PROJECTED])
    expected = spsolve(mass_matrix(mesh).tocsc(), b)
    got = l2_project(mesh, _PROJECTED).T
    return np.abs(got - expected).max() / np.abs(expected).max()


def test_l2_project_matches_spsolve_on_a_refined_mesh():
    # the Chebyshev steps reach rounding level also in the row-by-row
    # numbering of a refined mesh
    assert _projection_error(mesh_chain(4, 2)[-1]) <= 1e-13


@pytest.mark.parametrize("case", ["structured_32", "distorted"])
def test_l2_project_matches_spsolve_to_rounding_level(case):
    mesh = unit_square_mesh(32) if case == "structured_32" else \
        _distorted_mesh(16, 7)
    assert _projection_error(mesh) <= 1e-13


def test_l2_project_uses_the_mass_matrix_it_is_given(mesh8):
    # a mass matrix handed in is used as it is, not assembled again
    f = [lambda x, y: np.cos(3.0 * x) + y]
    ops = DiscreteOperators(mesh8)
    assert np.array_equal(l2_project(mesh8, f, mass=ops.mass),
                          l2_project(mesh8, f))
    assert not np.array_equal(l2_project(mesh8, f, mass=2.0 * ops.mass),
                              l2_project(mesh8, f))


def test_l2_project_solves_no_zero_load(mesh8, monkeypatch):
    # the default w0 loads exactly zero: its projection is the zero that
    # the Chebyshev steps would give, and the steps run only for u0
    from monofem.ionic import initial_pair

    mass = mass_matrix(mesh8)
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
    u0, w0 = l2_project(mesh8, initial_pair(), mass=mass)
    assert applied == [steps]
    zero = real(mass, steps)(np.zeros(mesh8.num_vertices))
    assert np.array_equal(w0, zero) and not np.any(np.signbit(w0))
    rule = quadrature_rule(6)
    xy = quadrature_coords(mesh8, rule)
    b = load_vector(mesh8, initial_pair()[0](xy[:, :, 0], xy[:, :, 1]), rule)
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
        mesh = _distorted_mesh(n + 1, seed)
    M = mass_matrix(mesh).toarray()
    lam = sla.eigvalsh(M, np.diag(np.diag(M)))
    assert lam.min() >= 0.5 - 1e-12
    assert lam.max() <= 2.0 + 1e-12


@pytest.mark.parametrize("steps", [1, 2, 6, 13])
def test_mass_solver_applies_the_fixed_chebyshev_polynomial(steps):
    # k steps from the zero guess are one fixed polynomial in D^-1 M,
    # whatever b is, and meet the error bound 2 3^-k in the M-norm
    mesh = _distorted_mesh(5, 3)
    M = mass_matrix(mesh)
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
        proj, = l2_project(mesh, [f])
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
