"""Conforming triangular meshes of the unit square.

Structured right-triangle meshes with a fixed diagonal direction, their
uniform refinement, P1 prolongation between nested grids, and a legacy
ASCII VTK dump for visualization.

The structured mesh of width n numbers its vertices row by row: rows of
increasing y, each row by increasing x.  Splitting each of its
triangles into four at the edge midpoints gives the structured mesh of
width 2n, so a refinement is built as that mesh, and every mesh of a
chain is a grid (:func:`grid_cells`): the solver's u-block
preconditioner, a tensor-product solve on the grid, applies to each,
and the prolongation between two of them is read off their grid
indices.
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
    """Conforming triangulation with edge topology.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise vertex triples

    The mesh is immutable after construction, apart from the cache
    `located_points`, and safe to share between threads for reading.
    Edges are stored as sorted vertex pairs in lexicographic order;
    ``edge_triangles[e]`` lists the one or two incident triangles (second
    entry -1 on the boundary, lower triangle index first).
    """

    def __init__(self, vertices, triangles):
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
    """The structured mesh of twice the width of the grid `mesh`.

    It is the mesh that splits every triangle of `mesh` into four
    congruent children at its edge midpoints, numbered and oriented as
    :func:`unit_square_mesh` numbers it; it keeps the provenance of
    `mesh`, one level more.  MeshError unless `mesh` is a structured grid
    (:func:`grid_cells`).
    """
    n = grid_cells(mesh)
    if n is None:
        raise MeshError("only a structured grid can be refined")
    fine = unit_square_mesh(2 * n)
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
    as :func:`unit_square_mesh` numbers them; one O(N) comparison checks
    that.
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


def prolongation(coarse, fine):
    """Nodal interpolation matrix P from a coarse grid to a nested fine one.

    P v gives the fine-mesh nodal values of the P1 function with coarse
    nodal values v; exact because the coarse space is a subspace of the
    fine one.  Each fine vertex takes the barycentric weights of the
    coarse triangle that holds it, read off the grid indices: at local
    coordinates (s, t) in its coarse cell, 1 - max(s, t) at the cell's
    lower-left corner, min(s, t) at its upper-right one and |s - t| at
    the third corner of the triangle.  Both meshes must be structured
    grids (:func:`grid_cells`) and the coarse width must divide the fine
    one; MeshError otherwise.
    """
    nc, nf = grid_cells(coarse), grid_cells(fine)
    if nc is None or nf is None or nf % nc:
        raise MeshError("meshes are not nested structured grids")
    r = nf // nc
    line = np.arange(nf + 1)
    cell = np.minimum(line // r, nc - 1)
    frac = (line - r * cell) / r
    s, t = frac[None, :], frac[:, None]        # s along x, t along y
    v00 = cell[:, None] * (nc + 1) + cell[None, :]
    third = np.where(s >= t, v00 + 1, v00 + nc + 1)
    cols = np.stack([v00, v00 + nc + 2, third], axis=-1).ravel()
    vals = np.stack([1.0 - np.maximum(s, t), np.minimum(s, t),
                     np.abs(s - t)], axis=-1).ravel()
    rows = np.repeat(np.arange((nf + 1) ** 2), 3)
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=((nf + 1) ** 2, (nc + 1) ** 2))


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
