"""P1 finite element assembly on triangular meshes.

Symmetric Gauss quadrature on the reference triangle, mass / stiffness /
weighted-mass matrices in CSR form, load vectors, and the L2-orthogonal
projection onto the P1 space.  The diffusion term has one positive scalar
conductivity, which scales the stiffness matrix.  All element loops are
vectorized over the mesh; assembled matrices are immutable and safe to
share.

Every integral of a field given at quadrature points against P1 basis
functions goes through one kernel, `_element_integrals`: a product
`(nt, nq) @ (nq, k)` with a precomputed table of weighted basis products
(`w_q l_i(x_q)` for load vectors, `w_q l_i(x_q) l_j(x_q)` for weighted
masses), scaled by the element areas.  The mass and stiffness matrices
are scattered once through COO into CSR.  A weighted mass, assembled
again at every Newton iterate, is instead filled into the pattern of the
mass matrix: each element entry (i, j) has a precomputed slot there, so a
weighted mass is one `bincount`, with no COO stage or sort.

The linear system of a Newton step, matrix and right-hand side, is built
in one place, :meth:`DiscreteOperators.newton_system`.  Its matrix stays
as its blocks (:class:`NewtonMatrix`); the recovery equation is linear
(see :mod:`monofem.ionic`), so only two N x N blocks need quadrature at
each iterate.

No matrix of a march is factored.  On every triangle mesh the spectrum
of D^-1 M, D = diag M, lies in [1/2, 2] (Wathen, IMA J. Numer. Anal. 7,
1987), so a fixed number of Chebyshev steps on D^-1 M applies M^-1 to
any accuracy (Wathen and Rees, ETNA 34, 2009): :func:`mass_solver`.  On
the structured grid of :func:`mesh.unit_square_mesh` and its
refinements the stiffness matrix is a sum of Kronecker products of 1-D
matrices, so shift M_T + K, with the tensor-product lumped mass M_T, is
inverted exactly by two 2-D DCT-I passes (:func:`grid_solver`), the
u-block preconditioner of the solver.  The only sparse LUs of the
package are the solver's `DirectSolver` oracle and the error pass's H1
Gram matrix; they factor in the mesh numbering, which
:mod:`monofem.mesh` makes the order of least fill, with the column
ordering `_PERMC_SPEC`.
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass
from functools import cached_property

from . import ionic
from .mesh import grid_cells

__all__ = [
    "AssemblyError",
    "QuadratureRule",
    "quadrature_rule",
    "mass_matrix",
    "stiffness_matrix",
    "load_vector",
    "mass_solver",
    "grid_solver",
    "l2_project",
    "evaluate_p1",
    "NewtonMatrix",
    "DiscreteOperators",
]


#: column ordering of the sparse LUs: the DirectSolver oracle's and the
#: error pass's H1 Gram matrix's
_PERMC_SPEC = "MMD_AT_PLUS_A"

#: interval that holds the spectrum of D^-1 M, D = diag M, for the P1 mass
#: matrix M of every triangle mesh
_MASS_SPECTRUM = (0.5, 2.0)

#: Chebyshev steps of the L2 projection: the error bound 2 3^-k reaches
#: rounding level at k = 35
_PROJECTION_STEPS = 40


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric rule on the reference triangle in barycentric coordinates.

    `points` is (nq, 3) with rows summing to 1, `weights` is (nq,) summing
    to 1; an integral over a physical triangle is area * sum(w_q f(x_q)).
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray

    @cached_property
    def load_products(self):
        """(nq, 3) table w_q l_i(x_q) of the load-vector kernel."""
        return self.points * self.weights[:, None]

    @cached_property
    def mass_products(self):
        """(nq, 9) table w_q l_i(x_q) l_j(x_q), column 3 i + j, of the
        weighted-mass kernel."""
        B = self.points
        return (self.weights[:, None, None] * B[:, :, None]
                * B[:, None, :]).reshape(len(B), 9)


def _orbit1():
    return [(1 / 3, 1 / 3, 1 / 3)]


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (b, c, a), (a, b, c), (b, a, c)]


def _make_rule(degree, groups):
    pts, wts = [], []
    for w, orbit in groups:
        pts += orbit
        wts += [w] * len(orbit)
    return QuadratureRule(degree, np.array(pts, dtype=float),
                          np.array(wts, dtype=float))


# Dunavant symmetric rules; weights normalized to sum to 1.
_RULES = {
    1: _make_rule(1, [(1.0, _orbit1())]),
    2: _make_rule(2, [(1 / 3, _orbit3(1 / 6))]),
    4: _make_rule(4, [
        (0.223381589678011, _orbit3(0.445948490915965)),
        (0.109951743655322, _orbit3(0.091576213509771)),
    ]),
    6: _make_rule(6, [
        (0.116786275726379, _orbit3(0.249286745170910)),
        (0.050844906370207, _orbit3(0.063089014491502)),
        (0.082851075618374, _orbit6(0.053145049844816, 0.310352451033785)),
    ]),
}


def quadrature_rule(degree):
    """Gauss rule on the reference triangle exact to the requested degree."""
    if degree not in _RULES:
        raise AssemblyError(
            f"unsupported quadrature degree {degree}; available: "
            f"{sorted(_RULES)}")
    return _RULES[degree]


def _scatter(mesh, local):
    """Assemble (nt, 3, 3) local blocks into a CSR matrix."""
    nv = mesh.num_vertices
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv))
    return A.tocsr()


def mass_matrix(mesh):
    """Assemble the P1 mass matrix, entry (i,j) = integral of l_i l_j."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _scatter(mesh, mesh.areas[:, None, None] * local)


def stiffness_matrix(mesh, conductivity=1.0):
    """Assemble the stiffness matrix of the positive scalar conductivity.

    Entry (i,j) = conductivity * integral of grad l_j . grad l_i; symmetric
    positive semidefinite with the constants in its kernel (pure Neumann
    problem).  A conductivity that is not positive raises AssemblyError.
    """
    if not conductivity > 0.0:
        raise AssemblyError(f"conductivity must be positive, got "
                            f"{conductivity}")
    G = mesh.basis_gradients                       # (nt, 3, 2)
    local = conductivity * (G @ G.transpose(0, 2, 1))
    return _scatter(mesh, mesh.areas[:, None, None] * local)


def field_at_quadrature(mesh, vec, rule):
    """Values of the P1 function with nodal vector `vec` at the rule's
    points, shape (nt, nq)."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (mesh.num_vertices,):
        raise AssemblyError("nodal vector length does not match the mesh")
    return vec[mesh.triangles] @ rule.points.T


def quadrature_coords(mesh, rule):
    """Physical coordinates of the rule's points, shape (nt, nq, 2)."""
    return rule.points @ mesh.vertices[mesh.triangles]


def _element_integrals(mesh, values, products):
    """The one basis-product kernel: area_e * sum_q values[..., e, q]
    products[q, k], for values at a rule's points (shape (..., nt, nq))
    and one of the rule's product tables (shape (nq, k))."""
    local = values @ products
    local *= mesh.areas[:, None]
    return local


def load_vector(mesh, values, rule):
    """Load vector b_i = integral of f l_i from values of f at the rule's
    points (shape (nt, nq))."""
    local = _element_integrals(mesh, values, rule.load_products)
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.num_vertices)


def mass_solver(mass, steps):
    """The map b -> M^-1 b by `steps` steps of Chebyshev semi-iteration on
    D^-1 M over [1/2, 2] (Wathen and Rees 2009), M = `mass`, D = diag M.

    There is no stopping test: the map is the same polynomial in D^-1 M
    applied to D^-1 b, a fixed linear operator, whatever b is.  After k
    steps the error in the M-norm is at most 2 3^-k times that of the
    zero guess.  b is one nodal vector.
    """
    lo, hi = _MASS_SPECTRUM
    theta, delta = (hi + lo) / 2.0, (hi - lo) / 2.0
    # three-term recurrence of the scaled Chebyshev polynomials (Saad,
    # Iterative Methods for Sparse Linear Systems, 2003, Alg. 12.1)
    rho = delta / theta
    recurrence = []
    for _ in range(steps - 1):
        rho_next = 1.0 / (2.0 * theta / delta - rho)
        recurrence.append((rho_next * rho, 2.0 * rho_next / delta))
        rho = rho_next
    d_inv = 1.0 / mass.diagonal()

    def solve(b):
        r = np.array(b, dtype=float)
        d = r * d_inv
        d /= theta
        x = d.copy()
        for keep, gain in recurrence:
            r -= mass @ d
            d *= keep
            d += gain * d_inv * r
            x += d
        return x

    return solve


def _dct1_rows(a):
    """The DCT-I of each row of `a`, of length n + 1: entry k is
    a_0 + (-1)^k a_n + 2 sum_{0<j<n} a_j cos(pi j k / n), the real part of
    the rfft of the row's even extension, of length 2 n."""
    n = a.shape[1] - 1
    even = np.empty((a.shape[0], 2 * n))
    even[:, :n + 1] = a
    even[:, n + 1:] = a[:, n - 1:0:-1]
    return np.fft.rfft(even).real


def grid_solver(n, shift, conductivity=1.0):
    """The map r -> (shift M_T + conductivity K)^-1 r on the (n+1)^2
    vertices of unit_square_mesh(n), numbered row by row, for a positive
    shift: the fast diagonalization method (Lynch, Rice and Thomas,
    Numer. Math. 6, 1964).

    Every cell of that mesh is cut along the same diagonal, whose edges
    carry no stiffness, so K = K_1 (x) M_1 + M_1 (x) K_1 with the 1-D
    stiffness K_1 and lumped mass M_1 = h diag(1/2, 1, ..., 1, 1/2) of a
    side, h = 1/n, and M_T = M_1 (x) M_1.  The cosines cos(pi j k / n)
    diagonalize M_1^-1 K_1 with the eigenvalues (2/h^2)(1 - cos(pi k / n)),
    so the solve is two 2-D DCT-I passes (:func:`_dct1_rows`) around a
    division by the eigenvalues, O(N log N) with nothing to factor.  Each
    pass leaves its result transposed; the table it is divided by is
    symmetric, so the second pass undoes the first's transposition.
    """
    lam = 2.0 * n * n * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))
    scale = 0.25 / (shift + conductivity * (lam[:, None] + lam[None, :]))
    ends = np.ones(n + 1)
    ends[[0, -1]] = 2.0
    weight = np.outer(ends, ends)             # 1 / (M_1 (x) M_1) times h^2

    def solve(r):
        y = _dct1_rows(_dct1_rows(r.reshape(n + 1, n + 1) * weight).T)
        y *= scale
        return _dct1_rows(_dct1_rows(y).T).ravel()

    return solve


def l2_project(mesh, functions, mass=None):
    """L2-orthogonal projections of pointwise functions onto the P1 space.

    Each `f(x, y)` in `functions` must accept coordinate arrays.  The load
    vectors are integrated with the degree-6 rule and solved one by one
    with `_PROJECTION_STEPS` steps of :func:`mass_solver` on `mass`, the
    mass matrix of the mesh (assembled when not given), which reach
    rounding level; a load vector that is exactly zero projects to zero
    without them.  Returns an array of shape (len(functions), nv), one
    nodal vector per function.
    """
    if mass is None:
        mass = mass_matrix(mesh)
    solve = mass_solver(mass, _PROJECTION_STEPS)
    rule = quadrature_rule(6)
    xy = quadrature_coords(mesh, rule)
    x = np.zeros((len(functions), mesh.num_vertices))
    for k, f in enumerate(functions):
        values = np.asarray(f(xy[:, :, 0], xy[:, :, 1]), dtype=float)
        b = load_vector(mesh, np.broadcast_to(values, xy.shape[:2]), rule)
        if np.any(b):
            x[k] = solve(b)
    if not np.all(np.isfinite(x)):
        raise AssemblyError("mass solve failed (non-finite projection)")
    return x


def _locate(mesh, x, y):
    """(k, lam): the triangle k that holds the point (x, y) and the
    point's barycentric coordinates lam in it (points on shared edges
    pick the lowest triangle index), found by a scan of every triangle."""
    p = mesh.vertices[mesh.triangles]
    d = np.array([x, y]) - p[:, 0]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = 2.0 * mesh.areas
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    l0 = 1.0 - l1 - l2
    inside = (l0 >= -1e-12) & (l1 >= -1e-12) & (l2 >= -1e-12)
    hits = np.flatnonzero(inside)
    if len(hits) == 0:
        raise AssemblyError(f"point ({x}, {y}) lies outside the mesh")
    k = hits[0]
    return k, np.array([l0[k], l1[k], l2[k]])


def evaluate_p1(mesh, vec, x, y):
    """Value of the P1 function with nodal vector `vec` at one point.

    The containing triangle is located once per mesh and point, and kept
    in the mesh's `located_points`.
    """
    vec = np.asarray(vec, dtype=float)
    key = (float(x), float(y))
    found = mesh.located_points.get(key)
    if found is None:
        found = mesh.located_points[key] = _locate(mesh, x, y)
    k, lam = found
    return float(lam @ vec[mesh.triangles[k]])


def _slot_map(mesh, pattern):
    """(nt, 9) read-only map whose entry [e, 3 i + j] is the position of
    entry (tri[e, i], tri[e, j]) in the data of `pattern`, a canonical CSR
    matrix with the P1 sparsity of `mesh`."""
    nv = mesh.num_vertices
    rows = np.repeat(np.arange(nv), np.diff(pattern.indptr))
    keys = rows * nv + pattern.indices            # sorted: CSR is canonical
    tri = mesh.triangles
    slots = np.searchsorted(keys, (tri[:, :, None] * nv
                                   + tri[:, None, :]).reshape(-1, 9))
    slots.setflags(write=False)
    return slots


def _on_pattern(pattern, data):
    """CSR matrix with the given data on the index arrays of `pattern`,
    which it shares."""
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=pattern.shape)


@dataclass(frozen=True)
class NewtonMatrix:
    """The 2N x 2N Newton matrix [[a11, a12], [s a12 + c M, d M]] as its
    blocks: `a11` and `a12` are CSR matrices that share the index arrays
    of the mass matrix `mass` (M).  `u_solve` is the map
    r -> (M_T/tau + K)^-1 r of :meth:`DiscreteOperators.u_block_solver`,
    which preconditions a11 = M/tau + K + M(f_u).  `A @ x` multiplies by
    the whole matrix; :meth:`tocsc` assembles it for a direct solve."""

    a11: sp.csr_matrix
    a12: sp.csr_matrix
    s: float
    c: float
    d: float
    mass: sp.csr_matrix
    u_solve: object

    @property
    def shape(self):
        n = 2 * self.mass.shape[0]
        return n, n

    def __matmul__(self, x):
        n = self.mass.shape[0]
        x_u, x_w = x[:n], x[n:]
        y_u = self.a11 @ x_u
        y_u += self.a12 @ x_w
        y_w = self.mass @ (self.c * x_u + self.d * x_w)
        y_w += self.s * (self.a12 @ x_u)
        return np.concatenate([y_u, y_w])

    def lower_left(self):
        return _on_pattern(self.mass,
                           self.s * self.a12.data + self.c * self.mass.data)

    def tocsc(self):
        return sp.bmat([[self.a11, self.a12],
                        [self.lower_left(), self.d * self.mass]],
                       format="csc")


class DiscreteOperators:
    """Cached matrices and quadrature data for one mesh and one positive
    scalar conductivity.

    Shared by the solver and the estimators so that mass and stiffness
    are assembled once per mesh.  :attr:`stiffness` is scaled by the
    conductivity, :attr:`stiffness_identity` (the H1 norm's Gram part) is
    not.  Every weighted mass, and so every Newton block, is filled into
    the pattern of :attr:`mass` through a slot map built on first use and
    kept for the life of the operators; the index arrays of :attr:`mass`
    are shared by all of them and read-only.  No matrix is factored here.
    """

    @classmethod
    def for_params(cls, mesh, p):
        """Operators of the model with parameters `p`: the conductivity is
        p.M_scalar."""
        return cls(mesh, p.M_scalar)

    def __init__(self, mesh, conductivity=1.0):
        self.mesh = mesh
        self.conductivity = conductivity
        self.mass = mass_matrix(mesh)
        self.mass.indices.setflags(write=False)
        self.mass.indptr.setflags(write=False)
        self.stiffness = stiffness_matrix(mesh, conductivity)
        self.stiffness_identity = (self.stiffness if conductivity == 1.0
                                   else stiffness_matrix(mesh))
        self.h1_gram = (self.mass + self.stiffness_identity).tocsr()
        self.rule4 = quadrature_rule(4)
        self.rule6 = quadrature_rule(6)
        self._u_block_solvers = {}

    def field_at(self, vec, rule):
        return field_at_quadrature(self.mesh, vec, rule)

    def u_block_solver(self, tau):
        """:func:`grid_solver` of the mesh for the shift 1/tau and the
        conductivity, made once per tau; AssemblyError unless the mesh is
        a structured grid (:func:`mesh.grid_cells`)."""
        solve = self._u_block_solvers.get(tau)
        if solve is None:
            n = grid_cells(self.mesh)
            if n is None:
                raise AssemblyError("the u-block solve needs the structured "
                                    "grid of unit_square_mesh or its "
                                    "refinements")
            solve = self._u_block_solvers[tau] = grid_solver(
                n, 1.0 / tau, self.conductivity)
        return solve

    @cached_property
    def _slots(self):
        return _slot_map(self.mesh, self.mass)

    def weighted_mass(self, values_at_quad, rule=None):
        """Mass matrix weighted by pointwise values at the points of
        `rule` (default :attr:`rule4`), shape (nt, nq), on the pattern of
        :attr:`mass`: one call of the basis-product kernel and one
        bincount through the slot map."""
        local = _element_integrals(self.mesh, values_at_quad,
                                   (rule or self.rule4).mass_products)
        return _on_pattern(self.mass, np.bincount(
            self._slots.ravel(), weights=local.ravel(),
            minlength=self.mass.nnz))

    def newton_system(self, p, u_prev, w_prev, u_it, w_it, tau):
        """The linear system (A, rhs) of one Newton step of implicit
        Euler for the model with parameters `p`: the step of length `tau`
        from the nodal vectors (u_prev, w_prev), linearized at the
        iterate (u_it, w_it).

        A is the :class:`NewtonMatrix` [[M/tau + K + M(f_u), M(u)],
        [s M(u) + c M, d M]], with the :meth:`u_block_solver` of tau.
        M and K are :attr:`mass` and :attr:`stiffness`; M(v) is
        :meth:`weighted_mass` at the points of :attr:`rule4`, of the
        partial f_u and of the iterate u (f_w = u) there.  The lower
        blocks are those of g_u = s u + c and the constant g_w of
        :func:`ionic.recovery_jacobian`, d = 1/tau + g_w, so they need no
        quadrature: an iterate makes two weighted masses.
        The stiffness matrix is scattered from the same triangles as the
        mass matrix, explicit zeros kept, so its data lies on the same
        pattern.  rhs stacks M u_prev / tau and M w_prev / tau, each plus
        the :meth:`load` of its reduced weight from
        :func:`ionic.newton_load`.

        All reaction integrals are evaluated pointwise at degree-4
        quadrature, which is exact here (cubic f times a linear test
        function), so the fixed point of the iteration is the exact
        implicit-Euler P1 solution and the convergence is genuinely
        quadratic.
        """
        rhs1 = self.mass @ (u_prev / tau)
        rhs2 = self.mass @ (w_prev / tau)
        rule = self.rule4
        u_q = self.field_at(u_it, rule)
        w_q = self.field_at(w_it, rule)
        s, c, g_w = ionic.recovery_jacobian(p)
        a11 = self.weighted_mass(ionic.f_du(u_q, w_q, p))
        a11.data += self.mass.data * (1.0 / tau) + self.stiffness.data
        A = NewtonMatrix(a11, self.weighted_mass(u_q), s, c,
                         1.0 / tau + g_w, self.mass, self.u_block_solver(tau))
        load_f, load_g = ionic.newton_load(u_q, w_q, p)
        rhs1 += self.load(load_f, rule)
        rhs2 += self.load(load_g, rule)
        return A, np.concatenate([rhs1, rhs2])

    def load(self, values_at_quad, rule=None):
        return load_vector(self.mesh, values_at_quad, rule or self.rule4)

    def l2_norm(self, vec):
        return float(np.sqrt(vec @ (self.mass @ vec)))

    def h1_norm(self, vec):
        return float(np.sqrt(vec @ (self.h1_gram @ vec)))
