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
pattern, so each of the four blocks is one `bincount`, and the matrix is
handed out in CSC form with no COO stage, sort or block stacking.

Every sparse LU factors its matrix in the mesh numbering, which
:mod:`monofem.mesh` makes the order of least fill, with the column
ordering `_PERMC_SPEC`.  :class:`DiscreteOperators` keeps one LU of its
mass matrix, which the L2 projection of the initial data and the w-block
of the march's preconditioner share.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "AssemblyError",
    "QuadratureRule",
    "quadrature_rule",
    "mass_matrix",
    "stiffness_matrix",
    "load_vector",
    "l2_project",
    "evaluate_p1",
    "DiscreteOperators",
]


#: column ordering of every sparse LU factorization
_PERMC_SPEC = "MMD_AT_PLUS_A"


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


def _factor(M):
    """Sparse LU of the matrix M, taken in the mesh numbering."""
    try:
        return spla.splu(M.tocsc(), permc_spec=_PERMC_SPEC)
    except RuntimeError as exc:
        raise AssemblyError(f"mass factorization failed: {exc}") from exc


def l2_project(mesh, functions, mass_lu=None):
    """L2-orthogonal projections of pointwise functions onto the P1 space.

    Each `f(x, y)` in `functions` must accept coordinate arrays.  The load
    vectors are integrated with the degree-6 rule and solved with
    `mass_lu`, a factorization of the mass matrix (such as
    :attr:`DiscreteOperators.mass_lu`; one is made when it is not given);
    returns an array of shape (len(functions), nv), one nodal vector per
    function.
    """
    rule = quadrature_rule(6)
    xy = quadrature_coords(mesh, rule)
    b = np.empty((mesh.num_vertices, len(functions)))
    for k, f in enumerate(functions):
        values = np.asarray(f(xy[:, :, 0], xy[:, :, 1]), dtype=float)
        b[:, k] = load_vector(mesh, np.broadcast_to(values, xy.shape[:2]),
                              rule)
    if mass_lu is None:
        mass_lu = _factor(mass_matrix(mesh))
    x = mass_lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise AssemblyError("mass solve failed (non-finite projection)")
    return x.T


def evaluate_p1(mesh, vec, x, y):
    """Value of the P1 function with nodal vector `vec` at one point.

    Locates the containing triangle by barycentric coordinates (points on
    shared edges pick the lowest triangle index).
    """
    vec = np.asarray(vec, dtype=float)
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
    lam = np.array([l0[k], l1[k], l2[k]])
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
    Gram part) is not.  The fixed pattern of :meth:`newton_matrix` and
    the factorization :attr:`mass_lu` are built on first use and kept for
    the life of the operators.
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
    def mass_lu(self):
        """The one sparse LU of :attr:`mass`, shared by the L2 projection
        of the initial data and the w-block of the march's
        preconditioner."""
        return _factor(self.mass)

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

    def newton_matrix(self, weights, tau):
        """The 2N x 2N matrix [[M/tau + K + M(c11), M(c12)],
        [M(c21), M/tau + M(c22)]] in CSC form.

        M and K are :attr:`mass` and :attr:`stiffness`; M(c) is the mass
        matrix weighted by pointwise values c at the points of
        :attr:`rule4`, and `weights` is (c11, c12, c21, c22), each of shape
        (nt, nq).  Each block is one kernel product and one bincount into
        the fixed pattern, plus its constant part in the same slot order.
        The result shares its index arrays with every other matrix this
        method returns, so it must not be modified in place.
        """
        pat = self._newton_pattern
        slots = pat.slots.ravel()
        nnz = self.mass.nnz
        mass_dt = self.mass.data * (1.0 / tau)
        constant = (mass_dt + self.stiffness.data, 0.0, 0.0, mass_dt)
        data = np.empty(4 * nnz)
        # block by block: four (nt, 9) temporaries at a time instead of one
        # four times as large keep the peak memory of large meshes down
        for c, const, positions in zip(weights, constant, pat.positions):
            local = _element_integrals(self.mesh, c,
                                       self.rule4.mass_products)
            data[positions] = np.bincount(slots, weights=local.ravel(),
                                          minlength=nnz) + const
        n2 = 2 * self.mesh.num_vertices
        return sp.csc_matrix((data, pat.indices, pat.indptr),
                             shape=(n2, n2))

    def load(self, values_at_quad, rule=None):
        return load_vector(self.mesh, values_at_quad, rule or self.rule4)

    def l2_norm(self, vec):
        return float(np.sqrt(vec @ (self.mass @ vec)))

    def h1_norm(self, vec):
        return float(np.sqrt(vec @ (self.h1_gram @ vec)))
