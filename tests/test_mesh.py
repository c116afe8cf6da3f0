import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofem.assembly import evaluate_p1, mass_matrix
from monofem.mesh import (MeshError, TriMesh, grid_cells, mesh_chain,
                          prolongation, refine_uniform, unit_square_mesh,
                          write_vtk)


def test_smallest_mesh_counts():
    m = unit_square_mesh(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.total_area == pytest.approx(1.0, abs=1e-12)


def test_grid_cells_of_structured_and_other_meshes():
    assert grid_cells(unit_square_mesh(1)) == 1
    assert grid_cells(unit_square_mesh(7)) == 7
    assert grid_cells(mesh_chain(3, 2)[-1]) == 12
    mesh = unit_square_mesh(3)
    # the same vertices, but with no provenance
    assert grid_cells(TriMesh(mesh.vertices, mesh.triangles)) is None
    # renumbered: the vertices leave their rows
    perm = np.roll(np.arange(mesh.num_vertices), 1)
    inv = np.argsort(perm)
    renumbered = TriMesh(mesh.vertices[perm], inv[mesh.triangles])
    renumbered.base_n = 3
    assert grid_cells(renumbered) is None
    # moved off the grid by much less than h
    moved = mesh.vertices.copy()
    moved[5] += 1e-6
    distorted = TriMesh(moved, mesh.triangles)
    distorted.base_n = 3
    assert grid_cells(distorted) is None


def test_n2_counts_match_euler_formula():
    # V - E + F = 1 for a triangulated disc (outer face not counted)
    m = unit_square_mesh(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert m.num_edges == 16
    assert m.num_vertices - m.num_edges + m.num_triangles == 1


def test_rejects_nonpositive_n():
    with pytest.raises(MeshError):
        unit_square_mesh(0)
    with pytest.raises(MeshError):
        unit_square_mesh(-3)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 80])
def test_structured_mesh_invariants(n):
    m = unit_square_mesh(n)
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_triangles == 2 * n * n
    assert m.total_area == pytest.approx(1.0, abs=1e-12)
    assert m.max_diameter == pytest.approx(np.sqrt(2.0) / n, rel=1e-13)
    # each interior edge has two incident triangles, boundary edges one
    incidences = (m.edge_triangles >= 0).sum(axis=1)
    assert np.all(incidences[m.boundary_edge] == 1)
    assert np.all(incidences[~m.boundary_edge] == 2)
    assert m.boundary_edge.sum() == 4 * n


def test_paper_grid_cell_width_vs_diameter():
    # the n=80 grid has cell width 1/80 = 0.0125 and max diameter sqrt(2)/80
    m = unit_square_mesh(80)
    assert 1.0 / 80 == pytest.approx(0.0125)
    assert m.max_diameter == pytest.approx(np.sqrt(2.0) / 80)


def test_interior_edges_appear_with_opposite_orientations():
    m = unit_square_mesh(3)
    directed = {}
    for t, (a, b, c) in enumerate(m.triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            directed.setdefault((u, v), []).append(t)
    for e, (a, b) in enumerate(m.edges):
        if m.boundary_edge[e]:
            continue
        assert len(directed.get((a, b), [])) == 1
        assert len(directed.get((b, a), [])) == 1


def test_refinement_multiplies_triangles_by_four():
    m = unit_square_mesh(1)
    f = refine_uniform(m)
    assert f.num_triangles == 8
    ff = refine_uniform(f)
    assert ff.num_triangles == 32
    assert ff.max_diameter == pytest.approx(m.max_diameter / 4, rel=1e-13)
    assert ff.total_area == pytest.approx(1.0, abs=1e-12)


def test_children_partition_parents_and_are_similar():
    # refine_uniform puts the children of coarse triangle k at 4k..4k+3
    m = unit_square_mesh(3)
    f = refine_uniform(m)
    for k in range(m.num_triangles):
        children = np.arange(4 * k, 4 * k + 4)
        assert np.sum(f.areas[children]) == pytest.approx(m.areas[k],
                                                          rel=1e-13)
        # similarity ratio 1/2 uniformly: rho(K', K) = 2 for all children
        assert np.allclose(f.diameters[children], m.diameters[k] / 2,
                           rtol=1e-13)
        assert np.allclose(f.areas[children], m.areas[k] / 4, rtol=1e-13)


def test_parent_links_sit_at_coarse_vertices_and_edge_midpoints():
    m = unit_square_mesh(4)
    f = refine_uniform(m)
    assert np.array_equal(f.vertices[f.parent_vertex], m.vertices)
    mid = 0.5 * (m.vertices[m.edges[:, 0]] + m.vertices[m.edges[:, 1]])
    assert np.array_equal(f.vertices[f.parent_edge_vertex], mid)
    links = np.concatenate([f.parent_vertex, f.parent_edge_vertex])
    assert np.array_equal(np.sort(links), np.arange(f.num_vertices))


def test_element_geometry_reference_triangle(reference_triangle):
    m = reference_triangle
    assert m.areas[0] == pytest.approx(0.5)
    assert m.diameters[0] == pytest.approx(np.sqrt(2.0))
    assert np.allclose(m.basis_gradients[0],
                       [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def test_basis_gradients_sum_to_zero():
    m = refine_uniform(unit_square_mesh(3))
    sums = m.basis_gradients.sum(axis=1)
    assert np.max(np.abs(sums)) < 1e-13


def test_equilateral_triangle_area():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2]])
    m = TriMesh(verts, np.array([[0, 1, 2]]))
    assert m.areas[0] == pytest.approx(np.sqrt(3.0) / 4)
    assert np.allclose(m.tri_edge_lengths[0], 1.0)


def test_outward_normals_are_orthogonal_unit():
    m = unit_square_mesh(2)
    p = m.vertices[m.triangles]
    for k in range(m.num_triangles):
        normals = m.tri_edge_normals[k]
        for j in range(3):
            tangent = p[k, (j + 1) % 3] - p[k, j]
            assert abs(normals[j] @ tangent) < 1e-13
            assert np.linalg.norm(normals[j]) == pytest.approx(1.0)
            # outward: positive against the centroid-to-edge direction
            mid = 0.5 * (p[k, (j + 1) % 3] + p[k, j])
            centroid = p[k].mean(axis=0)
            assert normals[j] @ (mid - centroid) > 0


def test_degenerate_and_flipped_triangles_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        TriMesh(verts, np.array([[0, 1, 2]]))
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        TriMesh(verts, np.array([[0, 2, 1]]))   # clockwise


def test_element_geometry_index_errors(reference_triangle):
    # every per-element array has one row per triangle and no more
    m = reference_triangle
    for a, shape in ((m.areas, ()), (m.diameters, ()),
                     (m.basis_gradients, (3, 2)),
                     (m.tri_edge_lengths, (3,)),
                     (m.tri_edge_normals, (3, 2))):
        assert a.shape == (m.num_triangles,) + shape


def test_prolongation_reproduces_constants_and_midpoints():
    chain = mesh_chain(2, 1)
    P = prolongation(chain[0], chain[1])
    ones = np.ones(chain[0].num_vertices)
    assert np.allclose(P @ ones, 1.0, atol=1e-15)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(chain[0].num_vertices)
    fine_v = P @ v
    coarse = chain[0]
    expected_mid = 0.5 * (v[coarse.edges[:, 0]] + v[coarse.edges[:, 1]])
    assert np.allclose(fine_v[chain[1].parent_edge_vertex], expected_mid,
                       atol=1e-15)


def test_prolongation_preserves_l2_norm():
    # nested P1 spaces: the quadratic forms of the two mass matrices agree
    chain = mesh_chain(3, 2)
    P = prolongation(chain[0], chain[2])
    Mc = mass_matrix(chain[0])
    Mf = mass_matrix(chain[2])
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(chain[0].num_vertices)
        fine = P @ v
        assert v @ (Mc @ v) == pytest.approx(fine @ (Mf @ fine), rel=1e-12)


def test_nesting_exactness_pointwise():
    # the coarse P1 function evaluated at fine nodes equals P v exactly
    chain = mesh_chain(2, 2)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(chain[0].num_vertices)
    Pv = prolongation(chain[0], chain[2]) @ v
    direct = np.array([evaluate_p1(chain[0], v, x, y)
                       for x, y in chain[2].vertices])
    assert np.max(np.abs(Pv - direct)) < 1e-13


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 6), levels=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prolongation_is_the_nested_p1_embedding(n, levels, seed):
    # each level reproduces constants and takes the edge mean at every
    # midpoint; the whole chain preserves the L2 norm (nested P1 spaces:
    # the quadratic forms of the two mass matrices agree) and equals the
    # coarse P1 function evaluated at the fine nodes
    chain = mesh_chain(n, levels)
    coarse, fine = chain[0], chain[-1]
    V = np.random.default_rng(seed).standard_normal((5, coarse.num_vertices))
    for parent, child in zip(chain[:-1], chain[1:]):
        P = prolongation(parent, child)
        assert np.allclose(P @ np.ones(parent.num_vertices), 1.0, atol=1e-15)
        vp = prolongation(coarse, parent) @ V[0]
        expected_mid = 0.5 * (vp[parent.edges[:, 0]]
                              + vp[parent.edges[:, 1]])
        assert np.allclose((P @ vp)[child.parent_edge_vertex], expected_mid,
                           atol=1e-15)
    P = prolongation(coarse, fine)
    Mc = mass_matrix(coarse)
    Mf = mass_matrix(fine)
    for v in V:
        Pv = P @ v
        assert v @ (Mc @ v) == pytest.approx(Pv @ (Mf @ Pv), rel=1e-12)
        direct = np.array([evaluate_p1(coarse, v, x, y)
                           for x, y in fine.vertices])
        assert np.max(np.abs(Pv - direct)) < 1e-13


def test_prolongation_rejects_unrelated_meshes():
    a = unit_square_mesh(2)
    b = unit_square_mesh(4)   # same geometry class but no parent link
    with pytest.raises(MeshError):
        prolongation(a, b)
    assert prolongation(a, a).nnz == a.num_vertices


def test_write_vtk(tmp_path):
    m = unit_square_mesh(2)
    path = tmp_path / "mesh.vtk"
    write_vtk(m, path, {"u": np.arange(m.num_vertices, dtype=float)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {m.num_vertices} double" in text
    assert f"CELLS {m.num_triangles} {4 * m.num_triangles}" in text
    assert text.count("5") >= m.num_triangles
    assert "SCALARS u double 1" in text


@settings(deadline=None)
@given(n=st.integers(1, 8), levels=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_refined_mesh_is_numbered_like_the_structured_mesh(n, levels, seed):
    # every mesh of a chain numbers its vertices row by row, the order in
    # which the package's sparse LUs fill least
    chain = mesh_chain(n, levels)
    fine = chain[-1]
    structured = unit_square_mesh(n * 2 ** levels)
    assert np.abs(fine.vertices - structured.vertices).max() <= 1e-14
    for coarse, mesh in zip(chain[:-1], chain[1:]):
        assert np.array_equal(mesh.vertices[mesh.parent_vertex],
                              coarse.vertices)
        mid = 0.5 * (coarse.vertices[coarse.edges[:, 0]]
                     + coarse.vertices[coarse.edges[:, 1]])
        assert np.array_equal(mesh.vertices[mesh.parent_edge_vertex], mid)
    # prolongation reproduces random coarse P1 functions at the fine nodes
    v = np.random.default_rng(seed).standard_normal(chain[0].num_vertices)
    direct = np.array([evaluate_p1(chain[0], v, x, y)
                       for x, y in fine.vertices])
    assert np.abs(prolongation(chain[0], fine) @ v - direct).max() <= 1e-13
