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
masses), scaled by the element areas.  One-off matrices are scattered
through COO into CSR.  The 2N x 2N Newton matrix of the coupled (u, w)
system, assembled again at every Newton iterate, is instead filled into a
fixed sparsity pattern that :class:`DiscreteOperators` builds once, on
first use: each element entry (i, j) has a precomputed slot in the P1
pattern, so a weighted mass is one `bincount`, and the matrix is handed
out in CSC form with no COO stage, sort or block stacking.  The recovery
equation is linear (see :mod:`monofem.ionic`), so only two of the four
blocks need quadrature at each iterate.

The mass matrix is never factored.  On every triangle mesh the spectrum
of D^-1 M, D = diag M, lies in [1/2, 2] (Wathen, IMA J. Numer. Anal. 7,
1987), so a fixed number of Chebyshev steps on D^-1 M applies M^-1 to
any accuracy (Wathen and Rees, ETNA 34, 2009): :func:`mass_solver`.  The
sparse LUs of the package (the solver's u-block, the error pass's H1
Gram matrix) factor their matrices in the mesh numbering, which
:mod:`monofem.mesh` makes the order of least fill, with the column
ordering `_PERMC_SPEC`.
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass
from functools import cached_property

from . import ionic

__all__ = [
    "AssemblyError",
    "QuadratureRule",
    "quadrature_rule",
    "mass_matrix",
    "stiffness_matrix",
    "load_vector",
    "mass_solver",
    "l2_project",
    "evaluate_p1",
    "DiscreteOperators",
]


#: column ordering of every sparse LU factorization
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


def l2_project(mesh, functions, mass=None):
    """L2-orthogonal projections of pointwise functions onto the P1 space.

    Each `f(x, y)` in `functions` must accept coordinate arrays.  The load
    vectors are integrated with the degree-6 rule and solved one by one
    with `_PROJECTION_STEPS` steps of :func:`mass_solver` on `mass`, the
    mass matrix of the mesh (assembled when not given), which reach
    rounding level; returns an array of shape (len(functions), nv), one
    nodal vector per function.
    """
    if mass is None:
        mass = mass_matrix(mesh)
    solve = mass_solver(mass, _PROJECTION_STEPS)
    rule = quadrature_rule(6)
    xy = quadrature_coords(mesh, rule)
    x = np.empty((len(functions), mesh.num_vertices))
    for k, f in enumerate(functions):
        values = np.asarray(f(xy[:, :, 0], xy[:, :, 1]), dtype=float)
        x[k] = solve(load_vector(mesh, np.broadcast_to(values, xy.shape[:2]),
                                 rule))
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


@dataclass(frozen=True)
class _NewtonPattern:
    """Sparsity of one mesh's P1 matrices and of the 2N x 2N block matrix.

    `slots[e, 3 i + j]` is the position of entry (tri[e, i], tri[e, j]) in
    the data of the CSR P1 pattern (that of the mass matrix).  The four
    blocks of the big matrix, in the order 11, 12, 21, 22, share that
    pattern; `positions[b, s]` is where slot s of block b sits in the big
    CSC data array, whose `indptr` and `indices` are canonical (sorted,
    no duplicates).  Every block is symmetric, so a block's CSR data in
    slot order is also its CSC data.  All index arrays are int32 and
    read-only: the big `indices` and `indptr` are shared by every matrix
    filled into them.
    """

    slots: np.ndarray
    positions: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


def _build_newton_pattern(mesh, pattern):
    """_NewtonPattern of `mesh` from `pattern`, a canonical CSR matrix
    with the P1 sparsity of the mesh."""
    nv = mesh.num_vertices
    indptr = pattern.indptr.astype(np.int64)
    indices = pattern.indices
    nnz = len(indices)
    if 4 * nnz > np.iinfo(np.int32).max:
        raise AssemblyError("mesh too large for int32 block indices")
    degree = np.diff(indptr)
    major = np.repeat(np.arange(nv), degree)      # row (CSR) = column (CSC)
    keys = major * nv + indices                   # sorted: CSR is canonical
    tri = mesh.triangles
    slots = np.empty((mesh.num_triangles, 9), dtype=np.int32)
    for i in range(3):
        for j in range(3):
            slots[:, 3 * i + j] = np.searchsorted(keys,
                                                  tri[:, i] * nv + tri[:, j])
    # big column c N + k holds column k of block (0, c), then that of
    # block (1, c)
    start = indptr[major] + np.arange(nnz)
    positions = np.empty((4, nnz), dtype=np.int32)
    big_indices = np.empty(4 * nnz, dtype=np.int32)
    for b, (r, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        positions[b] = c * 2 * nnz + start + r * degree[major]
        big_indices[positions[b]] = indices + r * nv
    big_indptr = np.concatenate([2 * indptr, 2 * nnz + 2 * indptr[1:]])
    big_indptr = big_indptr.astype(np.int32)
    for a in (slots, positions, big_indptr, big_indices):
        a.setflags(write=False)
    return _NewtonPattern(slots, positions, big_indptr, big_indices)


class DiscreteOperators:
    """Cached matrices and quadrature data for one mesh and one positive
    scalar conductivity.

    Shared by the solver and the estimators so that mass/stiffness and the
    scatter patterns are assembled once per mesh.  :attr:`stiffness` is
    scaled by the conductivity, :attr:`stiffness_identity` (the H1 norm's
    Gram part) is not.  The fixed pattern of :meth:`newton_matrix` is
    built on first use and kept for the life of the operators; no matrix
    is factored here.
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
        self.stiffness = stiffness_matrix(mesh, conductivity)
        self.stiffness_identity = (self.stiffness if conductivity == 1.0
                                   else stiffness_matrix(mesh))
        self.h1_gram = (self.mass + self.stiffness_identity).tocsr()
        self.rule4 = quadrature_rule(4)
        self.rule6 = quadrature_rule(6)

    def field_at(self, vec, rule):
        return field_at_quadrature(self.mesh, vec, rule)

    @cached_property
    def _newton_pattern(self):
        # the stiffness matrix has the same pattern: both are scattered
        # from the same triangles, explicit zeros kept
        return _build_newton_pattern(self.mesh, self.mass)

    def weighted_mass(self, values_at_quad, rule=None):
        """Weighted mass matrix from pointwise weights at quadrature points."""
        local = _element_integrals(self.mesh, values_at_quad,
                                   (rule or self.rule4).mass_products)
        return _scatter(self.mesh, local.reshape(-1, 3, 3))

    def newton_matrix(self, f_u, u, tau, p):
        """The 2N x 2N Newton matrix of the model with parameters `p`,
        [[M/tau + K + M(f_u), M(u)], [s M(u) + c M, (1/tau + g_w) M]], in
        CSC form.

        M and K are :attr:`mass` and :attr:`stiffness`; M(v) is the mass
        matrix weighted by pointwise values v at the points of
        :attr:`rule4`, and `f_u` and `u` (each of shape (nt, nq)) are the
        partial f_u and the iterate u there (f_w = u).  The lower blocks
        are those of g_u = s u + c and the constant g_w of
        :func:`ionic.recovery_jacobian`, so they need no quadrature: block
        21 is block 12's data times s plus c M, block 22 a multiple of M.
        Each iterate makes two kernel products and two bincounts into the
        fixed pattern.  The result shares its index arrays with every
        other matrix this method returns, so it must not be modified in
        place.
        """
        pat = self._newton_pattern
        p11, p12, p21, p22 = pat.positions
        s, c, g_w = ionic.recovery_jacobian(p)
        mass = self.mass.data
        data = np.empty(4 * len(mass))
        block = self._weighted_mass_data(f_u)
        block += mass * (1.0 / tau) + self.stiffness.data
        data[p11] = block
        block = self._weighted_mass_data(u)
        data[p12] = block
        block *= s
        block += c * mass
        data[p21] = block
        data[p22] = mass * (1.0 / tau + g_w)
        n2 = 2 * self.mesh.num_vertices
        return sp.csc_matrix((data, pat.indices, pat.indptr),
                             shape=(n2, n2))

    def _weighted_mass_data(self, values):
        """Data of the weighted mass matrix M(values), values at the
        points of :attr:`rule4`, in the slot order of the P1 pattern."""
        local = _element_integrals(self.mesh, values,
                                   self.rule4.mass_products)
        return np.bincount(self._newton_pattern.slots.ravel(),
                           weights=local.ravel(), minlength=self.mass.nnz)

    def load(self, values_at_quad, rule=None):
        return load_vector(self.mesh, values_at_quad, rule or self.rule4)

    def l2_norm(self, vec):
        return float(np.sqrt(vec @ (self.mass @ vec)))

    def h1_norm(self, vec):
        return float(np.sqrt(vec @ (self.h1_gram @ vec)))
