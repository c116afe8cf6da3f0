"""Independent oracles shared by the test modules.

The quadrature oracle uses a tensorized Gauss-Legendre rule on the
collapsed square (Duffy transform), a construction disjoint from the
symmetric triangle rules inside the package; barycentric evaluation and
basis gradients are recomputed here from vertex coordinates.  The Newton
system reference assembles all four blocks through COO, each from its own
reaction partial, stacks them with sp.bmat into one 2N x 2N CSC matrix,
and builds the right-hand side from the full reaction values; the
package's `DiscreteOperators.newton_system` keeps the matrix as two
blocks filled through its slot map, derives the other two from the
linear recovery equation, and loads reduced reaction weights.  The march
oracle solves every Newton system with its own LU
(`DirectSolver`, which assembles the blocks with `tocsc`), where the
package's march runs GMRES preconditioned by a grid solve of the
u-block and factors nothing; it starts each
step's Newton iteration where the march does, by calling the package's
`solver._newton_start`, so the two differ only in their linear algebra.
The Chebyshev mass solve is checked against the dense matrix of its
polynomial, built from the generalized eigenvectors of the mass matrix
and its diagonal.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from math import factorial

from monofem.assembly import DiscreteOperators
from monofem.ionic import react
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


def weighted_mass_reference(mesh, values, rule):
    """Weighted mass matrix from pointwise weights at the rule's points,
    by a four-operand einsum and a COO -> CSR scatter."""
    B = rule.points.T
    local = np.einsum("eq,iq,jq,q->eij", values, B, B, rule.weights)
    local = mesh.areas[:, None, None] * local
    tri = mesh.triangles
    nv = mesh.num_vertices
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(nv, nv)).tocsr()


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
    M/tau + K and M/tau and stacked by sp.bmat."""
    mesh, rule = ops.mesh, ops.rule4
    mass_dt = ops.mass * (1.0 / tau)
    u_q = ops.field_at(u_it, rule)
    w_q = ops.field_at(w_it, rule)
    r = react(u_q, w_q, p)

    def wm(values):
        return weighted_mass_reference(mesh, values, rule)

    A = sp.bmat([[mass_dt + ops.stiffness + wm(r.f_u), wm(r.f_w)],
                 [wm(r.g_u), mass_dt + wm(r.g_w)]], format="csc")
    rhs1 = ops.mass @ (u_prev / tau) + load_reference(
        mesh, r.f_u * u_q + r.f_w * w_q - r.f, rule)
    rhs2 = ops.mass @ (w_prev / tau) + load_reference(
        mesh, r.g_u * u_q + r.g_w * w_q - r.g, rule)
    return A, np.concatenate([rhs1, rhs2])


def direct_march(mesh, p, tau, t_end, cfg, initial=None):
    """The implicit Euler march of `time_march`, one LU per linear solve:
    (U, W, newton_counts) with U and W of shape (N+1, nv).  Like the
    march, every step starts Newton from the package's
    `solver._newton_start` of the last `solver._HISTORY` accepted
    states, so the two marches linearize each step's first system at the
    same point."""
    ops = DiscreteOperators.for_params(mesh, p)
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
