"""P1 finite element assembly on triangular meshes.

Symmetric Gauss quadrature on the reference triangle, mass / stiffness /
weighted-mass matrices in CSR form, load vectors, and the L2-orthogonal
projection onto the P1 space.  All element loops are vectorized over the
mesh; assembled matrices are immutable and safe to share.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import dataclass

__all__ = [
    "AssemblyError",
    "QuadratureRule",
    "ConductivityTensor",
    "quadrature_rule",
    "mass_matrix",
    "stiffness_matrix",
    "weighted_mass_matrix",
    "load_vector",
    "l2_project",
    "evaluate_p1",
    "DiscreteOperators",
]


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


class ConductivityTensor:
    """Symmetric positive definite 2x2 diffusion tensor, scalar or
    elementwise.

    Use :meth:`scalar` for isotropic media (a single positive value) or
    :meth:`per_element` with an (nt, 2, 2) array.
    """

    def __init__(self, value=None, tensors=None):
        if (value is None) == (tensors is None):
            raise AssemblyError("give exactly one of scalar value or "
                                "per-element tensors")
        if value is not None:
            value = float(value)
            if value <= 0.0:
                raise AssemblyError("scalar conductivity must be positive")
            self.value = value
            self.tensors = None
            self.mu_min = value
            self.mu_max = value
        else:
            tensors = np.asarray(tensors, dtype=float)
            if tensors.ndim != 3 or tensors.shape[1:] != (2, 2):
                raise AssemblyError("tensors must have shape (nt, 2, 2)")
            if not np.allclose(tensors[:, 0, 1], tensors[:, 1, 0],
                               rtol=0.0, atol=1e-12):
                raise AssemblyError("conductivity tensors must be symmetric")
            mean = 0.5 * (tensors[:, 0, 0] + tensors[:, 1, 1])
            rad = np.sqrt((0.5 * (tensors[:, 0, 0] - tensors[:, 1, 1])) ** 2
                          + tensors[:, 0, 1] ** 2)
            lo, hi = mean - rad, mean + rad
            if lo.min(initial=np.inf) <= 0.0:
                raise AssemblyError("conductivity tensors must be positive "
                                    "definite")
            self.value = None
            self.tensors = tensors
            self.mu_min = float(lo.min())
            self.mu_max = float(hi.max())

    @classmethod
    def scalar(cls, value):
        return cls(value=value)

    @classmethod
    def per_element(cls, tensors):
        return cls(tensors=tensors)

    @property
    def is_scalar(self):
        return self.value is not None

    def as_per_element(self, num_triangles):
        if self.is_scalar:
            return self.value * np.broadcast_to(np.eye(2),
                                                (num_triangles, 2, 2))
        if len(self.tensors) != num_triangles:
            raise AssemblyError("tensor count does not match the mesh")
        return self.tensors


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


def stiffness_matrix(mesh, conductivity=None):
    """Assemble the conductivity-weighted stiffness matrix.

    Entry (i,j) = integral of (M grad l_j) . grad l_i; symmetric positive
    semidefinite with the constants in its kernel (pure Neumann problem).
    """
    if conductivity is None:
        conductivity = ConductivityTensor.scalar(1.0)
    G = mesh.basis_gradients                       # (nt, 3, 2)
    if conductivity.is_scalar:
        local = conductivity.value * np.einsum("eid,ejd->eij", G, G)
    else:
        MG = np.einsum("edc,ejc->ejd",
                       conductivity.as_per_element(mesh.num_triangles), G)
        local = np.einsum("eid,ejd->eij", G, MG)
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
    return np.einsum("qi,eid->eqd", rule.points, mesh.vertices[mesh.triangles])


def _weighted_mass_from_quad(mesh, values, rule):
    B = rule.points.T                              # (3, nq)
    local = np.einsum("eq,iq,jq,q->eij", values, B, B, rule.weights)
    return _scatter(mesh, mesh.areas[:, None, None] * local)


def weighted_mass_matrix(mesh, coefficients, rule=None):
    """Mass matrix weighted by the P1 interpolant of nodal `coefficients`.

    Entry (i,j) = integral of c_h l_i l_j with c_h the P1 function taking
    the given nodal values; integrated exactly (P1^3 needs degree 3, the
    default rule is degree 4).
    """
    if rule is None:
        rule = quadrature_rule(4)
    c_q = field_at_quadrature(mesh, coefficients, rule)
    return _weighted_mass_from_quad(mesh, c_q, rule)


def load_vector(mesh, values, rule):
    """Load vector b_i = integral of f l_i from values of f at the rule's
    points (shape (nt, nq))."""
    local = np.einsum("eq,iq,q->ei", values, rule.points.T, rule.weights)
    local *= mesh.areas[:, None]
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.num_vertices)


def l2_project(mesh, f, degree=6, mass=None):
    """L2-orthogonal projection of a pointwise function onto the P1 space.

    `f(x, y)` must accept coordinate arrays.  Solves the mass system with
    a load vector integrated at the given quadrature degree.
    """
    rule = quadrature_rule(degree)
    xy = quadrature_coords(mesh, rule)
    values = np.asarray(f(xy[:, :, 0], xy[:, :, 1]), dtype=float)
    values = np.broadcast_to(values, xy.shape[:2])
    b = load_vector(mesh, values, rule)
    M = mass_matrix(mesh) if mass is None else mass
    x = spla.spsolve(M.tocsc(), b)
    if not np.all(np.isfinite(x)):
        raise AssemblyError("mass solve failed (singular mass matrix)")
    return x


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


class DiscreteOperators:
    """Cached matrices and quadrature data for one mesh and conductivity.

    Shared by the solver and the estimators so that mass/stiffness and the
    scatter patterns are assembled once per mesh.
    """

    @classmethod
    def for_params(cls, mesh, p):
        """Operators of the model with parameters `p`: the conductivity is
        the scalar p.M_scalar."""
        return cls(mesh, ConductivityTensor.scalar(p.M_scalar))

    def __init__(self, mesh, conductivity=None):
        if conductivity is None:
            conductivity = ConductivityTensor.scalar(1.0)
        self.mesh = mesh
        self.conductivity = conductivity
        self.mass = mass_matrix(mesh)
        self.stiffness = stiffness_matrix(mesh, conductivity)
        if conductivity.is_scalar and conductivity.value == 1.0:
            self.stiffness_identity = self.stiffness
        else:
            self.stiffness_identity = stiffness_matrix(mesh)
        self.h1_gram = (self.mass + self.stiffness_identity).tocsr()
        self.rule4 = quadrature_rule(4)
        self.rule6 = quadrature_rule(6)

    def field_at(self, vec, rule):
        return field_at_quadrature(self.mesh, vec, rule)

    def weighted_mass(self, values_at_quad, rule=None):
        """Weighted mass matrix from pointwise weights at quadrature points."""
        return _weighted_mass_from_quad(self.mesh, values_at_quad,
                                        rule or self.rule4)

    def load(self, values_at_quad, rule=None):
        return load_vector(self.mesh, values_at_quad, rule or self.rule4)

    def l2_norm(self, vec):
        return float(np.sqrt(vec @ (self.mass @ vec)))

    def h1_norm(self, vec):
        return float(np.sqrt(vec @ (self.h1_gram @ vec)))
