import numpy as np
import pytest
import scipy.sparse as sp

from monofem.assembly import (AssemblyError, DiscreteOperators, evaluate_p1,
                              field_at_quadrature, l2_project, load_vector,
                              mass_matrix, quadrature_rule, stiffness_matrix)
from monofem.mesh import mesh_chain, refine_uniform, unit_square_mesh

from oracles import (barycentric_at, load_reference, p1_gradients,
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


def test_l2_project_matches_spsolve_on_a_refined_mesh():
    # the factor is taken in the mesh numbering, row by row also on a
    # refined mesh; its solutions must be those of the system as given
    from scipy.sparse.linalg import spsolve

    from monofem.assembly import _factor, quadrature_coords

    mesh = mesh_chain(4, 2)[-1]
    funcs = [lambda x, y: np.exp(-((x - 1.0) ** 2 + y ** 2) / 0.25),
             lambda x, y: x * y]
    rule = quadrature_rule(6)
    xy = quadrature_coords(mesh, rule)
    b = np.column_stack([load_vector(mesh, f(xy[:, :, 0], xy[:, :, 1]),
                                     rule) for f in funcs])
    ops = DiscreteOperators(mesh)
    for matrix in (ops.mass, ops.h1_gram):
        expected = spsolve(matrix.tocsc(), b)
        got = l2_project(mesh, funcs, mass_lu=_factor(matrix)).T
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(
            expected).max()


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
