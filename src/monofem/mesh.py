"""Conforming triangular meshes of the unit square.

Structured right-triangle meshes with a fixed diagonal direction, uniform
red refinement with parent links, P1 prolongation between nested meshes,
and a legacy ASCII VTK dump for visualization.

The meshes built here number their vertices row by row: rows of
increasing y, each row by increasing x.  A refined mesh has exactly the
vertex numbering of the structured mesh of the same width, so the
solver's u-block preconditioner, a tensor-product solve on that grid,
applies to every mesh of a chain (:func:`grid_cells`).  The sparse LUs
that remain (the DirectSolver oracle, the error pass's Gram matrix)
factor in the mesh numbering, and this sweep order is the one in which
they fill least (George & Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981, ch. 4-5): an LU of the whole Newton
matrix on mesh_chain(16, 2)[-1] stores 0.79M entries in L and U, against
16.3M when the midpoints of a refinement are numbered after the coarse
vertices.
"""

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MeshError",
    "TriMesh",
    "unit_square_mesh",
    "refine_uniform",
    "mesh_chain",
    "grid_cells",
    "prolongation",
    "write_vtk",
]


class MeshError(ValueError):
    """Invalid mesh input: degenerate cells, broken conformity, bad nesting."""


def _unique_edges(pairs):
    """Lexicographically sorted unique rows of an (m, 2) int array.

    Returns (unique, inverse); implemented by hand so the ordering does not
    depend on the numpy version's `unique(axis=0)` behaviour.
    """
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    srt = pairs[order]
    new = np.empty(len(srt), dtype=bool)
    new[0] = True
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    unique = srt[new]
    group = np.cumsum(new) - 1
    inverse = np.empty(len(pairs), dtype=np.int64)
    inverse[order] = group
    return unique, inverse


class TriMesh:
    """Conforming triangulation with edge topology and nesting links.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise vertex triples
    parent : TriMesh, optional
        The coarser mesh this one refines (set by :func:`refine_uniform`).
    parent_vertex : (nv_parent,) int array, optional
        Vertex of this mesh sitting at each parent vertex.
    parent_edge_vertex : (ne_parent,) int array, optional
        Vertex of this mesh sitting at the midpoint of each parent edge.

    The mesh is immutable after construction, apart from the cache
    `located_points`, and safe to share between threads for reading.
    Edges are stored as sorted vertex pairs in lexicographic order;
    ``edge_triangles[e]`` lists the one or two incident triangles (second
    entry -1 on the boundary, lower triangle index first).
    """

    def __init__(self, vertices, triangles, parent=None, parent_vertex=None,
                 parent_edge_vertex=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if triangles.size and (triangles.min() < 0
                               or triangles.max() >= len(vertices)):
            raise MeshError("triangle vertex index out of range")
        self.vertices = vertices
        self.triangles = triangles
        self.parent = parent
        self.parent_vertex = parent_vertex
        self.parent_edge_vertex = parent_edge_vertex
        # provenance of structured meshes (unit_square_mesh + refinements)
        self.base_n = None
        self.levels = 0
        # (x, y) -> (triangle, barycentric coordinates) of each point
        # assembly.evaluate_p1 has located; a cache, so it lives and dies
        # with the mesh
        self.located_points = {}

        p = vertices[triangles]                     # (nt, 3, 2)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0.0):
            raise MeshError("triangles must be non-degenerate and "
                            "counterclockwise (signed area > 0)")
        self.areas = 0.5 * det

        # gradients of the P1 basis: rows of the inverse transposed Jacobian
        g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
        g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
        self.basis_gradients = np.stack([-g1 - g2, g1, g2], axis=1)

        # local edge j joins vertices j and j+1 (mod 3)
        tang = np.stack([p[:, 1] - p[:, 0],
                         p[:, 2] - p[:, 1],
                         p[:, 0] - p[:, 2]], axis=1)   # (nt, 3, 2)
        self.tri_edge_lengths = np.linalg.norm(tang, axis=2)
        self.diameters = self.tri_edge_lengths.max(axis=1)
        # outward normal of a CCW triangle: rotate the tangent by -90 deg
        self.tri_edge_normals = (np.stack([tang[:, :, 1], -tang[:, :, 0]],
                                          axis=2)
                                 / self.tri_edge_lengths[:, :, None])

        # global edge table from sorted local pairs
        raw = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        self.edges, inv = _unique_edges(np.sort(raw, axis=1))
        self.triangle_edges = inv.reshape(-1, 3)

        ne = len(self.edges)
        if np.bincount(inv, minlength=ne).max(initial=0) > 2:
            raise MeshError("an edge is shared by more than two triangles")
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        order = np.argsort(inv, kind="stable")
        tri_of_slot = order // 3
        eid = inv[order]
        first = np.ones(len(eid), dtype=bool)
        first[1:] = eid[1:] != eid[:-1]
        edge_tris[eid[first], 0] = tri_of_slot[first]
        edge_tris[eid[~first], 1] = tri_of_slot[~first]
        self.edge_triangles = edge_tris
        self.boundary_edge = edge_tris[:, 1] < 0
        self.edge_lengths = np.linalg.norm(
            vertices[self.edges[:, 1]] - vertices[self.edges[:, 0]], axis=1)

        # fixed jump convention: normal points out of the first (lower-index)
        # incident triangle
        t1 = edge_tris[:, 0]
        slot = np.argmax(self.triangle_edges[t1] == np.arange(ne)[:, None],
                         axis=1)
        self.edge_normals = self.tri_edge_normals[t1, slot]

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def max_diameter(self):
        return float(self.diameters.max())

    @property
    def total_area(self):
        return float(self.areas.sum())

    def __repr__(self):
        return (f"TriMesh(nv={self.num_vertices}, nt={self.num_triangles}, "
                f"ne={self.num_edges})")


def unit_square_mesh(n):
    """Structured mesh of (0,1)^2 with n x n cells split along one diagonal.

    (n+1)^2 vertices, 2 n^2 triangles; every square cell is cut from its
    lower-left to its upper-right corner, so all triangles are congruent
    right triangles of diameter sqrt(2)/n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise MeshError(f"n must be a positive integer, got {n!r}")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (j * (n + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    mesh = TriMesh(vertices, triangles)
    mesh.base_n = int(n)
    mesh.levels = 0
    return mesh


def refine_uniform(mesh):
    """Split every triangle into 4 congruent children via edge midpoints.

    The children of coarse triangle k are fine triangles 4k..4k+3: the
    three corner children (at the triangle's vertices 0, 1, 2), then the
    middle one.  The fine vertices are numbered row by row like those of
    :func:`unit_square_mesh`: coordinates rounded to 1/128 of the shortest
    coarse edge are sorted by y, then x, so that the midpoints of a row
    share its y exactly.  `parent_vertex` and `parent_edge_vertex` give
    the fine index of each coarse vertex and of each coarse edge midpoint.
    """
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                  + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    key = np.round(vertices / (mesh.edge_lengths.min() / 128.0))
    order = np.lexsort((key[:, 0], key[:, 1]))
    rank = np.empty(len(vertices), dtype=np.int64)
    rank[order] = np.arange(len(vertices))

    a, b, c = (mesh.triangles[:, k] for k in range(3))
    m_ab = nv + mesh.triangle_edges[:, 0]
    m_bc = nv + mesh.triangle_edges[:, 1]
    m_ca = nv + mesh.triangle_edges[:, 2]
    triangles = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    triangles[0::4] = np.column_stack([a, m_ab, m_ca])
    triangles[1::4] = np.column_stack([m_ab, b, m_bc])
    triangles[2::4] = np.column_stack([m_ca, m_bc, c])
    triangles[3::4] = np.column_stack([m_ab, m_bc, m_ca])

    fine = TriMesh(vertices[order], rank[triangles], parent=mesh,
                   parent_vertex=rank[:nv], parent_edge_vertex=rank[nv:])
    fine.base_n = mesh.base_n
    fine.levels = mesh.levels + 1
    return fine


def mesh_chain(base_n, levels):
    """base mesh plus `levels` uniform refinements: [m0, m1, ..., m_levels]."""
    chain = [unit_square_mesh(base_n)]
    for _ in range(levels):
        chain.append(refine_uniform(chain[-1]))
    return chain


def grid_cells(mesh):
    """n when `mesh` is unit_square_mesh(n) or a refinement of a
    structured mesh to that width, else None.

    The mesh must carry its provenance (`base_n` is set), and its
    vertices must sit row by row on the (n+1)^2 grid, n = base_n 2^levels,
    as those builders number them; one O(N) comparison checks that.
    """
    if mesh.base_n is None:
        return None
    n = mesh.base_n * 2 ** mesh.levels
    if mesh.num_vertices != (n + 1) ** 2:
        return None
    xy = mesh.vertices.reshape(n + 1, n + 1, 2)
    xs = np.arange(n + 1) / n
    off = max(np.abs(xy[:, :, 0] - xs).max(),
              np.abs(xy[:, :, 1] - xs[:, None]).max())
    return n if off <= 1e-9 / n else None


def _one_level_prolongation(fine):
    coarse = fine.parent
    nv_c = coarse.num_vertices
    nv_f = fine.num_vertices
    rows = np.concatenate([fine.parent_vertex, fine.parent_edge_vertex,
                           fine.parent_edge_vertex])
    cols = np.concatenate([np.arange(nv_c), coarse.edges[:, 0],
                           coarse.edges[:, 1]])
    vals = np.concatenate([np.ones(nv_c), np.full(2 * coarse.num_edges, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(nv_f, nv_c))


def prolongation(coarse, fine):
    """Nodal interpolation matrix P from a coarse mesh to a nested fine one.

    P v gives the fine-mesh nodal values of the P1 function with coarse
    nodal values v; exact because the coarse space is a subspace of the
    fine one.  Each level copies a coarse value to the fine vertex at the
    same point (`parent_vertex`) and averages the two ends of each coarse
    edge at its midpoint (`parent_edge_vertex`).  `fine` must be obtained
    from `coarse` by one or more applications of :func:`refine_uniform`.
    """
    if fine is coarse:
        return sp.identity(coarse.num_vertices, format="csr")
    hops = []
    m = fine
    while m is not coarse:
        if m.parent is None:
            raise MeshError("meshes are not in the same refinement chain")
        hops.append(m)
        m = m.parent
    P = _one_level_prolongation(hops[-1])
    for m in reversed(hops[:-1]):
        P = _one_level_prolongation(m) @ P
    return P.tocsr()


def write_vtk(mesh, path, point_data=None, title="monofem mesh"):
    """Dump the mesh (and optional nodal scalar fields) as legacy ASCII VTK."""
    point_data = point_data or {}
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    lines += [f"{float(x)!r} {float(y)!r} 0.0" for x, y in mesh.vertices]
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    if point_data:
        lines.append(f"POINT_DATA {mesh.num_vertices}")
        for name, values in point_data.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (mesh.num_vertices,):
                raise MeshError(f"point data {name!r} has wrong length")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += [repr(float(v)) for v in values]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
