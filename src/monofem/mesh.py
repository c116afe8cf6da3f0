"""Conforming triangular meshes of the unit square.

Structured right-triangle meshes with a fixed diagonal direction, their
uniform refinement, P1 prolongation between nested grids, and a legacy
ASCII VTK dump for visualization.

The structured mesh of width n numbers its vertices row by row: rows of
increasing y, each row by increasing x.  Splitting each of its
triangles into four at the edge midpoints gives the structured mesh of
width 2n, so a refinement is built as that mesh.  A mesh is the grid of
width n (:attr:`TriMesh.grid_n`) when its arrays are those of
:func:`unit_square_mesh`, however it was built: the solver's u-block
preconditioner, a tensor-product solve on the grid, applies to it, and
the prolongation between two grids is read off their grid indices.

A mesh computes its element geometry (areas, P1 basis gradients) and
checks its validity at construction.  It keeps no edge table: the
estimators number the edges on the P1 pattern of their operators
(:attr:`assembly.DiscreteOperators.edges`).  The per-triangle edge
geometry, which the estimators and the diameters read, and the grid
width are built on first read (:class:`TriMesh`).
"""

from functools import cached_property
from math import isqrt

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MeshError",
    "TriMesh",
    "unit_square_mesh",
    "refine_uniform",
    "mesh_chain",
    "prolongation",
    "write_vtk",
]


class MeshError(ValueError):
    """Invalid mesh input: degenerate cells, broken conformity, bad nesting."""


class TriMesh:
    """Conforming triangulation with lazily built edge geometry.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise vertex triples

    Construction keeps what every computation reads: `vertices`,
    `triangles`, `areas` and `basis_gradients`.  It refuses, with
    MeshError, an index out of range, a degenerate or clockwise
    triangle, a vertex in no triangle, and an edge that two triangles
    traverse in the same direction: since every triangle is
    counterclockwise, that covers an edge shared by more than two
    triangles, and also two triangles overlapping on one side of an edge.

    The per-triangle edge geometry (`tri_edge_lengths`,
    `tri_edge_normals`, `diameters`) and the grid width `grid_n` are
    built on first read and then kept on the mesh.  There is no edge
    table: the one numbering of the edges is that of the P1 pattern
    (:attr:`assembly.DiscreteOperators.edges`).

    The mesh is immutable after construction, apart from the cache
    `located_points` and the attributes built on first read, and safe to
    share between threads for reading: two threads that read a lazy
    attribute at once may both build it, and get equal arrays.
    """

    def __init__(self, vertices, triangles):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        nv = len(vertices)
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise MeshError("triangle vertex index out of range")
        uses = np.bincount(triangles.ravel(), minlength=nv)
        if nv and uses.min() == 0:
            raise MeshError(f"vertex {int(uses.argmin())} lies in no "
                            "triangle")
        self.vertices = vertices
        self.triangles = triangles
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

        # directed edges a -> b as keys a nv + b: an edge of counterclockwise
        # triangles is traversed once in each direction at most
        directed = np.sort((triangles * nv
                            + np.roll(triangles, -1, axis=1)).ravel())
        if np.any(directed[1:] == directed[:-1]):
            raise MeshError("an edge is shared by more than two triangles "
                            "or by two on the same side")

    def _tri_edge_tangents(self):
        """(nt, 3, 2): local edge j runs from vertex j to vertex j+1
        (mod 3)."""
        p = self.vertices[self.triangles]
        return np.stack([p[:, 1] - p[:, 0],
                         p[:, 2] - p[:, 1],
                         p[:, 0] - p[:, 2]], axis=1)

    @cached_property
    def tri_edge_lengths(self):
        """(nt, 3) length of each local edge."""
        return np.linalg.norm(self._tri_edge_tangents(), axis=2)

    @cached_property
    def tri_edge_normals(self):
        """(nt, 3, 2) outward unit normal of each local edge."""
        tang = self._tri_edge_tangents()
        # outward normal of a CCW triangle: rotate the tangent by -90 deg
        return (np.stack([tang[:, :, 1], -tang[:, :, 0]], axis=2)
                / self.tri_edge_lengths[:, :, None])

    @cached_property
    def diameters(self):
        """(nt,) longest edge of each triangle."""
        return self.tri_edge_lengths.max(axis=1)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def max_diameter(self):
        return float(self.diameters.max())

    @cached_property
    def grid_n(self):
        """n when this mesh is unit_square_mesh(n), else None.

        The triangles must be those of the grid, index for index, and
        each vertex within 1e-9/n of its grid point; a renumbered mesh,
        one cut along other diagonals, or one with a vertex moved is not
        a grid.
        """
        n = isqrt(self.num_vertices) - 1
        if n < 1:
            return None
        vertices, triangles = _grid_arrays(n)
        # equal triangles use every grid vertex, and construction refused
        # a vertex in no triangle: the vertex arrays have equal shapes
        if (not np.array_equal(self.triangles, triangles)
                or np.abs(self.vertices - vertices).max() > 1e-9 / n):
            return None
        return n

    def __repr__(self):
        return f"TriMesh(nv={self.num_vertices}, nt={self.num_triangles})"


def _grid_arrays(n):
    """The (vertices, triangles) arrays of unit_square_mesh(n)."""
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
    return vertices, triangles


def unit_square_mesh(n):
    """Structured mesh of (0,1)^2 with n x n cells split along one diagonal.

    (n+1)^2 vertices, 2 n^2 triangles; every square cell is cut from its
    lower-left to its upper-right corner, so all triangles are congruent
    right triangles of diameter sqrt(2)/n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise MeshError(f"n must be a positive integer, got {n!r}")
    return TriMesh(*_grid_arrays(n))


def refine_uniform(mesh):
    """The structured mesh of twice the width of the grid `mesh`.

    It is the mesh that splits every triangle of `mesh` into four
    congruent children at its edge midpoints, numbered and oriented as
    :func:`unit_square_mesh` numbers it.  MeshError unless `mesh` is a
    grid (:attr:`TriMesh.grid_n`).
    """
    if mesh.grid_n is None:
        raise MeshError("only a structured grid can be refined")
    return unit_square_mesh(2 * mesh.grid_n)


def mesh_chain(n, refinements):
    """unit_square_mesh(n) and its `refinements` uniform refinements:
    [m_0, ..., m_refinements] with m_k = unit_square_mesh(n 2^k)."""
    return [unit_square_mesh(n * 2 ** k) for k in range(refinements + 1)]


def prolongation(coarse, fine):
    """Nodal interpolation matrix P from a coarse grid to a nested fine one.

    P v gives the fine-mesh nodal values of the P1 function with coarse
    nodal values v; exact because the coarse space is a subspace of the
    fine one.  Each fine vertex takes the barycentric weights of the
    coarse triangle that holds it, read off the grid indices: at local
    coordinates (s, t) in its coarse cell, 1 - max(s, t) at the cell's
    lower-left corner, min(s, t) at its upper-right one and |s - t| at
    the third corner of the triangle.  Both meshes must be structured
    grids (:attr:`TriMesh.grid_n`) and the coarse width must divide the
    fine one; MeshError otherwise.
    """
    nc, nf = coarse.grid_n, fine.grid_n
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
