import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofem import assembly
from monofem.assembly import DiscreteOperators, evaluate_p1
from monofem.estimators import estimate_trajectory
from monofem.ionic import initial_pair
from monofem.mesh import (MeshError, TriMesh, mesh_chain, prolongation,
                          refine_uniform, unit_square_mesh, write_vtk)
from monofem.solver import (NewtonConfig, SolverError, TrajectorySolution,
                            time_march)

from oracles import edge_table, other_diagonals


def _vertex_at(mesh, points):
    """Index of the vertex of the grid `mesh` at each of `points`, found
    from the coordinates alone."""
    n = mesh.grid_n
    ij = np.rint(np.asarray(points) * n).astype(int)
    return ij[:, 1] * (n + 1) + ij[:, 0]


def _edge_pairs(mesh):
    """(ne, 2) the sorted vertex pairs of the oracle edge table."""
    return np.array(list(edge_table(mesh)))


def _edge_midpoints(mesh):
    pairs = _edge_pairs(mesh)
    return 0.5 * (mesh.vertices[pairs[:, 0]] + mesh.vertices[pairs[:, 1]])


def _assert_vertices_at_coarse_vertices_and_midpoints(coarse, fine):
    """`fine` has a vertex at each vertex and at each edge midpoint of
    `coarse`, and no other vertex."""
    at_vertex = _vertex_at(fine, coarse.vertices)
    at_mid = _vertex_at(fine, _edge_midpoints(coarse))
    assert np.array_equal(fine.vertices[at_vertex], coarse.vertices)
    assert np.abs(fine.vertices[at_mid]
                  - _edge_midpoints(coarse)).max() <= 1e-15
    assert np.array_equal(np.sort(np.concatenate([at_vertex, at_mid])),
                          np.arange(fine.num_vertices))


#: meshes on the vertices of unit_square_mesh(3) that are not that grid
_NOT_GRIDS = {"other_diagonal": lambda: other_diagonals(3),
              "one_cell_flipped": lambda: other_diagonals(3, flipped=4)}


def test_smallest_mesh_counts():
    m = unit_square_mesh(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_cells_of_structured_and_other_meshes():
    assert unit_square_mesh(1).grid_n == 1
    assert unit_square_mesh(7).grid_n == 7
    assert mesh_chain(3, 2)[-1].grid_n == 12
    mesh = unit_square_mesh(3)
    # the grid's own arrays make the grid, however the mesh was built
    assert TriMesh(mesh.vertices, mesh.triangles).grid_n == 3
    # the same vertices, cut along other diagonals
    for build in _NOT_GRIDS.values():
        assert build().grid_n is None
    # renumbered: the vertices leave their rows
    perm = np.roll(np.arange(mesh.num_vertices), 1)
    inv = np.argsort(perm)
    renumbered = TriMesh(mesh.vertices[perm], inv[mesh.triangles])
    assert renumbered.grid_n is None
    # moved off the grid by much less than h
    moved = mesh.vertices.copy()
    moved[5] += 1e-6
    distorted = TriMesh(moved, mesh.triangles)
    assert distorted.grid_n is None


def test_n2_counts_match_euler_formula():
    # V - E + F = 1 for a triangulated disc (outer face not counted)
    m = unit_square_mesh(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    edges = edge_table(m)
    assert len(edges) == 16
    assert m.num_vertices - len(edges) + m.num_triangles == 1


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
    assert m.areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.max_diameter == pytest.approx(np.sqrt(2.0) / n, rel=1e-13)
    # each interior edge has two incident triangles, boundary edges one;
    # an edge is on the boundary when both ends lie on one side
    edges = edge_table(m)
    incidences = np.array([len(e.triangles) for e in edges.values()])
    ends = m.vertices[np.array(list(edges))]           # (ne, 2 ends, xy)
    boundary = np.any((ends[:, 0] == ends[:, 1])
                      & ((ends[:, 0] == 0.0) | (ends[:, 0] == 1.0)), axis=1)
    assert np.all(incidences[boundary] == 1)
    assert np.all(incidences[~boundary] == 2)
    assert boundary.sum() == 4 * n


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
    for (a, b), edge in edge_table(m).items():
        if len(edge.triangles) == 1:
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
    assert ff.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_refine_uniform_refuses_a_non_grid_mesh():
    mesh = unit_square_mesh(3)
    # the same vertices, cut along other diagonals
    for build in _NOT_GRIDS.values():
        with pytest.raises(MeshError):
            refine_uniform(build())
    moved = mesh.vertices.copy()
    moved[5] += 1e-3
    distorted = TriMesh(moved, mesh.triangles)
    with pytest.raises(MeshError):
        refine_uniform(distorted)


def test_parent_links_sit_at_coarse_vertices_and_edge_midpoints():
    m = unit_square_mesh(4)
    _assert_vertices_at_coarse_vertices_and_midpoints(m, refine_uniform(m))


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


def test_vertex_in_no_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(MeshError, match="vertex 3 lies in no triangle"):
        TriMesh(verts, np.array([[0, 1, 2]]))


def test_edge_in_three_triangles_rejected():
    # (0, v, 4) adds a third triangle at the diagonal from vertex 0 at
    # (0, 0) to vertex 4 at (0.5, 0.5) of unit_square_mesh(2)
    m = unit_square_mesh(2)
    verts = np.vstack([m.vertices, [[0.9, -0.5]]])
    tris = np.vstack([m.triangles, [[0, m.num_vertices, 4]]])
    with pytest.raises(MeshError, match="more than two triangles"):
        TriMesh(verts, tris)


def test_edge_table_is_built_only_when_read(tmp_path, params, monkeypatch):
    # the operators number the edges (assembly._p1_edges) when their
    # `edges` is first read: no march, checkpoint, point evaluation or
    # diameter reads them, each estimate numbers them once for its own
    # operators, and a balance-mode march once for the operators of its
    # march
    built = []
    real = assembly._p1_edges

    def counting(mesh, pattern, slots):
        built.append((mesh, pattern))
        return real(mesh, pattern, slots)

    monkeypatch.setattr(assembly, "_p1_edges", counting)
    assert repr(unit_square_mesh(2)) == "TriMesh(nv=9, nt=8)"
    mesh = unit_square_mesh(8)
    ops = DiscreteOperators(mesh)
    assert built == []
    assert ops.edges is ops.edges
    assert len(built) == 1
    assert built[0][0] is mesh and built[0][1] is ops.mass
    built.clear()
    traj = time_march(mesh, params, 0.25, 0.5)
    traj.save(tmp_path / "traj.npz")
    evaluate_p1(mesh, traj.U[-1], 0.3, 0.7)
    assert mesh.max_diameter == pytest.approx(np.sqrt(2.0) / 8)
    assert built == []
    estimate_trajectory(traj)
    estimate_trajectory(traj)
    assert [m for m, _ in built] == [mesh, mesh]
    assert built[0][1] is not built[1][1]
    # a loaded checkpoint builds its own mesh, and its edges on first read
    loaded = TrajectorySolution.load(tmp_path / "traj.npz")
    assert len(built) == 2
    estimate_trajectory(loaded, initial=initial_pair())
    assert len(built) == 3 and built[2][0] is loaded.mesh
    built.clear()
    balanced = time_march(mesh, params, 0.25, 0.5,
                          NewtonConfig(mode="estimator_balance"))
    assert balanced.newton_counts().sum() > 2
    assert [m for m, _ in built] == [mesh]


def test_threads_reading_a_fresh_mesh_see_one_edge_table():
    names = ("diameters", "grid_n", "tri_edge_lengths", "tri_edge_normals")
    expected = unit_square_mesh(16)
    expected_edges = DiscreteOperators(expected).edges
    mesh = unit_square_mesh(16)
    ops = DiscreteOperators(mesh)
    seen = []

    def read():
        seen.append(([getattr(mesh, name) for name in names], ops.edges))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == len(threads)
    for arrays, edges in seen:
        for name, a in zip(names, arrays):
            assert np.array_equal(a, getattr(expected, name))
        for a, b in zip(edges, expected_edges):
            assert np.array_equal(a, b)


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
    pairs = _edge_pairs(coarse)
    expected_mid = 0.5 * (v[pairs[:, 0]] + v[pairs[:, 1]])
    at_mid = _vertex_at(chain[1], _edge_midpoints(coarse))
    assert np.allclose(fine_v[at_mid], expected_mid, atol=1e-15)


def test_prolongation_preserves_l2_norm():
    # nested P1 spaces: the quadratic forms of the two mass matrices agree
    chain = mesh_chain(3, 2)
    P = prolongation(chain[0], chain[2])
    Mc = DiscreteOperators(chain[0]).mass
    Mf = DiscreteOperators(chain[2]).mass
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
        pairs = _edge_pairs(parent)
        expected_mid = 0.5 * (vp[pairs[:, 0]] + vp[pairs[:, 1]])
        at_mid = _vertex_at(child, _edge_midpoints(parent))
        assert np.allclose((P @ vp)[at_mid], expected_mid, atol=1e-15)
    P = prolongation(coarse, fine)
    Mc = DiscreteOperators(coarse).mass
    Mf = DiscreteOperators(fine).mass
    for v in V:
        Pv = P @ v
        assert v @ (Mc @ v) == pytest.approx(Pv @ (Mf @ Pv), rel=1e-12)
        direct = np.array([evaluate_p1(coarse, v, x, y)
                           for x, y in fine.vertices])
        assert np.max(np.abs(Pv - direct)) < 1e-13


def test_prolongation_rejects_unrelated_meshes():
    # grids whose widths do not divide are not nested, either way round
    for a, b in ((3, 16), (4, 2), (4, 6)):
        with pytest.raises(MeshError):
            prolongation(unit_square_mesh(a), unit_square_mesh(b))
    a = unit_square_mesh(2)
    assert prolongation(a, a).nnz == a.num_vertices


def test_prolongation_rejects_non_grid_meshes():
    coarse, fine = unit_square_mesh(1), unit_square_mesh(6)
    # the same vertices, cut along other diagonals
    for build in _NOT_GRIDS.values():
        with pytest.raises(MeshError):
            prolongation(coarse, build())
        with pytest.raises(MeshError):
            prolongation(build(), fine)


def test_a_mesh_of_the_grid_arrays_is_the_grid(tmp_path, params):
    # a mesh built by hand from the arrays of unit_square_mesh(4) marches,
    # is checkpointed and prolongs as the grid does
    grid = unit_square_mesh(4)
    mesh = TriMesh(grid.vertices, grid.triangles)
    traj = time_march(mesh, params, 0.25, 0.5)
    expected = time_march(grid, params, 0.25, 0.5)
    assert np.array_equal(traj.U, expected.U)
    assert np.array_equal(traj.W, expected.W)
    traj.save(tmp_path / "traj.npz")
    loaded = TrajectorySolution.load(tmp_path / "traj.npz")
    assert np.array_equal(loaded.mesh.triangles, grid.triangles)
    assert np.array_equal(loaded.U, traj.U)
    assert np.array_equal(loaded.W, traj.W)
    fine = unit_square_mesh(8)
    assert (prolongation(mesh, fine) != prolongation(grid, fine)).nnz == 0
    assert (prolongation(unit_square_mesh(2), mesh)
            != prolongation(unit_square_mesh(2), grid)).nnz == 0


@pytest.mark.parametrize("case", sorted(_NOT_GRIDS))
def test_a_trajectory_on_other_diagonals_is_not_saved(tmp_path, params,
                                                      case):
    mesh = _NOT_GRIDS[case]()
    zeros = np.zeros((2, mesh.num_vertices))
    traj = TrajectorySolution(mesh, [0.0, 0.5], zeros, zeros, params)
    with pytest.raises(SolverError, match="structured grids"):
        traj.save(tmp_path / "traj.npz")
    assert not (tmp_path / "traj.npz").exists()


def test_prolongation_between_grids_built_apart():
    # nesting is read off the widths: grids built separately nest when the
    # coarse width divides the fine one, also by a factor that is not a
    # power of two
    coarse, fine = unit_square_mesh(2), unit_square_mesh(6)
    v = np.random.default_rng(5).standard_normal(coarse.num_vertices)
    direct = np.array([evaluate_p1(coarse, v, x, y)
                       for x, y in fine.vertices])
    assert np.abs(prolongation(coarse, fine) @ v - direct).max() <= 1e-13
    chain = mesh_chain(2, 2)
    assert (prolongation(coarse, unit_square_mesh(8))
            != prolongation(chain[0], chain[-1])).nnz == 0


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
    # every mesh of a chain is the structured mesh of its width
    chain = mesh_chain(n, levels)
    fine = chain[-1]
    structured = unit_square_mesh(n * 2 ** levels)
    assert np.array_equal(fine.vertices, structured.vertices)
    assert np.array_equal(fine.triangles, structured.triangles)
    for coarse, mesh in zip(chain[:-1], chain[1:]):
        _assert_vertices_at_coarse_vertices_and_midpoints(coarse, mesh)
    # prolongation reproduces random coarse P1 functions at the fine nodes
    v = np.random.default_rng(seed).standard_normal(chain[0].num_vertices)
    direct = np.array([evaluate_p1(chain[0], v, x, y)
                       for x, y in fine.vertices])
    assert np.abs(prolongation(chain[0], fine) @ v - direct).max() <= 1e-13
