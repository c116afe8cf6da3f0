"""Independent oracles shared by the test modules.

The quadrature oracle uses a tensorized Gauss-Legendre rule on the
collapsed square (Duffy transform), a construction disjoint from the
symmetric triangle rules inside the package; barycentric evaluation and
basis gradients are recomputed here from vertex coordinates.  The mass
and stiffness reference scatters element matrices computed from the
vertex coordinates (the stiffness from edge vectors, not gradients)
through COO into CSR, where the package sorts one pattern and fills it
through a slot map.  The Newton
system reference assembles all four blocks through COO, each from its own
reaction partial, with the reference stiffness of the conductivity
p.M_scalar, stacks them with sp.bmat into one 2N x 2N CSC matrix,
and builds the right-hand side from the full reaction values; the
package's `DiscreteOperators.newton_system` keeps the matrix as two
blocks filled through its slot map, scales its unit-conductivity
stiffness by p.M_scalar, derives the other two blocks from the
linear recovery equation, and loads reduced reaction weights.  The space
residual functional (`space_residual_functional`) states the Galerkin
orthogonality of the Newton system on the package's public names.  The march
oracle solves every Newton system with its own LU
(`DirectSolver`, which assembles the blocks with `tocsc`), where the
package's march runs GMRES preconditioned by a grid solve of the
u-block and factors nothing; it starts each
step's Newton iteration where the march does, by calling the package's
`solver._newton_start`, so the two differ only in their linear algebra.
The Chebyshev mass solve is checked against the dense matrix of its
polynomial, built from the generalized eigenvectors of the mass matrix
and its diagonal.  The edge table (`edge_table`) is built in plain
Python, a dict from each sorted vertex pair to its incident triangles,
where the package numbers its edges on the sorted P1 pattern of its
operators.  `other_diagonals` cuts the cells of a structured grid along
the diagonal the package does not use, which makes a mesh on the grid's
vertices that is not the grid; `distorted_mesh` moves a grid's interior
vertices, and `renumbered_mesh` permutes a grid's vertices and
triangles and rotates each triangle's vertex order.
"""

from collections import namedtuple
from math import factorial, sqrt

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from monofem.assembly import DiscreteOperators
from monofem.ionic import react
from monofem.mesh import TriMesh, unit_square_mesh
from monofem.solver import (_HISTORY, DirectSolver, _newton_start,
                            initial_state, newton_solve, step_count)


def duffy_points(order=12):
    """Points/weights integrating polynomials of degree < order over the
    reference triangle (0,0), (1,0), (0,1); weights sum to 1/2."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    U, V = np.meshgrid(x, x, indexing="ij")
    WW = np.outer(w, w)
    px = U.ravel()
    py = (V * (1.0 - U)).ravel()
    pw = (WW * (1.0 - U)).ravel()
    return px, py, pw


def reference_monomial_integral(p, q):
    """Exact integral of x^p y^q over the reference triangle."""
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def triangle_quadrature(vertices, order=12):
    """Physical points and weights on one triangle; weights sum to its
    area."""
    px, py, pw = duffy_points(order)
    p0, p1, p2 = vertices
    pts = (p0[None, :] + np.outer(px, p1 - p0) + np.outer(py, p2 - p0))
    e1, e2 = p1 - p0, p2 - p0
    det = e1[0] * e2[1] - e1[1] * e2[0]
    return pts, pw * det


def barycentric_at(vertices, pts):
    """Barycentric coordinates of physical points, shape (npts, 3)."""
    p0, p1, p2 = vertices
    A = np.column_stack([p1 - p0, p2 - p0])
    loc = np.linalg.solve(A, (pts - p0[None, :]).T).T
    l1, l2 = loc[:, 0], loc[:, 1]
    return np.column_stack([1.0 - l1 - l2, l1, l2])


def p1_gradients(vertices):
    """Gradients of the three barycentric basis functions, shape (3, 2)."""
    p0, p1, p2 = vertices
    A = np.column_stack([p1 - p0, p2 - p0])
    ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return ref @ np.linalg.inv(A)


def integrate_p1_expression(mesh, func, order=12):
    """Integral over the mesh of func(x, y, lambda) with lambda the
    barycentric coordinates; returns the per-element integrals."""
    out = np.empty(mesh.num_triangles)
    for k, tri in enumerate(mesh.triangles):
        verts = mesh.vertices[tri]
        pts, wts = triangle_quadrature(verts, order)
        lam = barycentric_at(verts, pts)
        out[k] = np.dot(wts, func(pts[:, 0], pts[:, 1], lam))
    return out


def _scatter_reference(mesh, local):
    """CSR matrix of the (nt, 3, 3) element matrices `local`, scattered
    through COO (duplicates summed, explicit zeros kept)."""
    tri = mesh.triangles
    nv = mesh.num_vertices
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(nv, nv)).tocsr()


def p1_matrices_reference(mesh, conductivity=1.0):
    """(mass, stiffness) of the P1 space of `mesh`, scattered through COO
    from element matrices computed here from the vertex coordinates: the
    area A from the cross product of two edges, the mass A (1 + d_ij) / 12
    and the stiffness conductivity (e_i . e_j) / (4 A), with e_i the edge
    opposite vertex i (grad l_i is e_i turned by a right angle, over
    2 A)."""
    p = mesh.vertices[mesh.triangles]                       # (nt, 3, 2)
    e = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    area = 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0])
    mass = area[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    stiffness = (conductivity * np.einsum("eik,ejk->eij", e, e)
                 / (4.0 * area[:, None, None]))
    return _scatter_reference(mesh, mass), _scatter_reference(mesh, stiffness)


def weighted_mass_reference(mesh, values, rule):
    """Weighted mass matrix from pointwise weights at the rule's points,
    by a four-operand einsum and a COO -> CSR scatter."""
    B = rule.points.T
    local = np.einsum("eq,iq,jq,q->eij", values, B, B, rule.weights)
    return _scatter_reference(mesh, mesh.areas[:, None, None] * local)


def chebyshev_mass_inverse_reference(M, steps):
    """Dense matrix of `steps` Chebyshev steps on D^-1 M over [1/2, 2]
    from the zero guess, D = diag M: (I - p(D^-1 M)) M^-1 with the residual
    polynomial p(t) = T_k((5/4 - t) / (3/4)) / T_k(5/3), k = `steps`.
    Returns (matrix, values of p at the eigenvalues of D^-1 M)."""
    d = M.diagonal()
    lam, V = sla.eigh(M.toarray(), np.diag(d))   # V^T M V = lam, V^T D V = I
    T = np.polynomial.chebyshev.Chebyshev.basis(steps)
    p = T((1.25 - lam) / 0.75) / T(5.0 / 3.0)
    return (V * ((1.0 - p) / lam)) @ V.T, p


def load_reference(mesh, values, rule):
    """Load vector from values at the rule's points, by einsum."""
    local = np.einsum("eq,iq,q->ei", values, rule.points.T, rule.weights)
    local *= mesh.areas[:, None]
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.num_vertices)


def newton_system_reference(ops, p, u_prev, w_prev, u_it, w_it, tau):
    """Newton matrix and right-hand side of one implicit Euler step,
    linearized at (u_it, w_it): four weighted mass matrices summed with
    M/tau + K and M/tau and stacked by sp.bmat, where K is the stiffness
    of the conductivity p.M_scalar from :func:`p1_matrices_reference`,
    not the package's."""
    mesh, rule = ops.mesh, ops.rule4
    mass_dt = ops.mass * (1.0 / tau)
    stiffness = p1_matrices_reference(mesh, p.M_scalar)[1]
    u_q = ops.field_at(u_it, rule)
    w_q = ops.field_at(w_it, rule)
    r = react(u_q, w_q, p)

    def wm(values):
        return weighted_mass_reference(mesh, values, rule)

    A = sp.bmat([[mass_dt + stiffness + wm(r.f_u), wm(r.f_w)],
                 [wm(r.g_u), mass_dt + wm(r.g_w)]], format="csc")
    rhs1 = ops.mass @ (u_prev / tau) + load_reference(
        mesh, r.f_u * u_q + r.f_w * w_q - r.f, rule)
    rhs2 = ops.mass @ (w_prev / tau) + load_reference(
        mesh, r.g_u * u_q + r.g_w * w_q - r.g, rule)
    return A, np.concatenate([rhs1, rhs2])


def space_residual_functional(prev, last_two_iterates, tau, p, ops):
    """Nodal vectors (r1, r2) of the space residual pair of one step on
    the operators `ops`: r1 . phi is the residual of the u equation,
    with the reaction linearized at the penultimate iterate and taken at
    the accepted state, applied to the P1 function with nodal values phi
    (r2 . psi likewise for the w equation).  Both vanish up to the
    linear-solver residual, since the Newton system enforces exactly this
    orthogonality.  Written on the public names of the package alone,
    with the degree-6 rule and the conductivity p.M_scalar."""
    pen, acc = last_two_iterates
    rule = ops.rule6
    u1, w1 = ops.field_at(pen.u, rule), ops.field_at(pen.w, rule)
    u2, w2 = ops.field_at(acc.u, rule), ops.field_at(acc.w, rule)
    r = react(u1, w1, p)
    lin_f = r.f + r.f_u * (u2 - u1) + r.f_w * (w2 - w1)
    lin_g = r.g + r.g_u * (u2 - u1) + r.g_w * (w2 - w1)
    r1 = -(ops.mass @ ((acc.u - prev.u) / tau)
           + p.M_scalar * (ops.stiffness @ acc.u) + ops.load(lin_f, rule))
    r2 = -(ops.mass @ ((acc.w - prev.w) / tau) + ops.load(lin_g, rule))
    return r1, r2


def direct_march(mesh, p, tau, t_end, cfg, initial=None):
    """The implicit Euler march of `time_march`, one LU per linear solve:
    (U, W, newton_counts) with U and W of shape (N+1, nv).  Like the
    march, every step starts Newton from the package's
    `solver._newton_start` of the last `solver._HISTORY` accepted
    states, so the two marches linearize each step's first system at the
    same point."""
    ops = DiscreteOperators(mesh)
    state = initial_state(ops, initial)
    history, counts = [state], []
    for n in range(step_count(tau, t_end)):
        state, rec, _ = newton_solve(state, tau, p, cfg, ops=ops,
                                     linear=DirectSolver(),
                                     start=_newton_start(history[:_HISTORY]))
        history.insert(0, state)
        counts.append(rec.iterations)
    U = [s.u for s in reversed(history)]
    W = [s.w for s in reversed(history)]
    return np.array(U), np.array(W), np.array(counts)


def other_diagonals(n, flipped=None):
    """The vertices of unit_square_mesh(n) with its square cells cut from
    lower-right to upper-left: every cell, or only the cell `flipped`
    (its index in the row-by-row order of the cells)."""
    mesh = unit_square_mesh(n)
    cells = mesh.triangles.reshape(-1, 6)
    v00, v10, v11, v01 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 5]
    other = np.stack([v00, v10, v01, v10, v11, v01], axis=1)
    if flipped is not None:
        cells = cells.copy()
        cells[flipped] = other[flipped]
        other = cells
    return TriMesh(mesh.vertices, other.reshape(-1, 3))


def distorted_mesh(n, seed):
    """unit_square_mesh(n) with each interior vertex moved by up to h/10
    in each coordinate, which keeps every triangle counterclockwise."""
    mesh = unit_square_mesh(n)
    xy = mesh.vertices
    interior = np.all((xy > 1e-12) & (xy < 1.0 - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    moved = xy.copy()
    moved[interior] += rng.uniform(-0.1, 0.1, (interior.sum(), 2)) / n
    return TriMesh(moved, mesh.triangles)


def renumbered_mesh(n, seed):
    """unit_square_mesh(n) with its vertices and its triangles in random
    orders and each triangle's vertices rotated by a random shift, which
    keeps it counterclockwise."""
    mesh = unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_vertices)
    inv = np.argsort(perm)
    tris = inv[mesh.triangles][rng.permutation(mesh.num_triangles)]
    shifts = rng.integers(0, 3, len(tris))
    return TriMesh(mesh.vertices[perm],
                   np.stack([np.roll(t, -k) for t, k in zip(tris, shifts)]))


#: one edge of :func:`edge_table`
Edge = namedtuple("Edge", "triangles length normal")


def edge_table(mesh):
    """The edges of `mesh`, in plain Python: a dict, in increasing order
    of its keys, from each vertex pair (a, b), a < b, to its Edge: the
    incident triangles in increasing order, the length from the vertex
    coordinates and the outward unit normal (x, y) of the lower-index
    triangle, its tangent turned by -90 degrees over the length."""
    xy = mesh.vertices.tolist()
    found = {}
    for t, tri in enumerate(mesh.triangles.tolist()):
        for j in range(3):
            a, b = tri[j], tri[(j + 1) % 3]
            key = (min(a, b), max(a, b))
            if key in found:
                found[key][0].append(t)
                continue
            dx, dy = xy[b][0] - xy[a][0], xy[b][1] - xy[a][1]
            length = sqrt(dx * dx + dy * dy)
            found[key] = ([t], length, (dy / length, -dx / length))
    return {key: Edge(tuple(tris), length, normal)
            for key, (tris, length, normal) in sorted(found.items())}
