"""P1 finite element assembly on triangular meshes.

Symmetric Gauss quadrature on the reference triangle, mass / stiffness /
weighted-mass matrices in CSR form, load vectors, and the L2-orthogonal
projection onto the P1 space, all owned by :class:`DiscreteOperators`.
The operators carry no model constant: the stiffness matrix K is that
of unit conductivity, and the conductivity sigma = p.M_scalar scales it
where the model uses it.  All element loops are vectorized over the
mesh; assembled matrices are immutable and safe to share.

Every P1 matrix lies on one pattern, sorted once per operators by
`_p1_pattern`, which also maps each element entry (i, j) to its slot in
the pattern's data.  Mass and stiffness are filled through that slot map
by one whole-mesh `bincount` each, explicit zeros kept.  Every integral
of a field given at quadrature points against P1 basis functions goes
through one kernel, `_element_integrals`: a product `(b, nq) @ (nq, k)`
with a precomputed table of weighted basis products (`w_q l_i(x_q)` for
loads, `w_q l_i(x_q) l_j(x_q)` for weighted masses), scaled by the areas
of the b elements.  The Newton system, the weighted masses, the loads
and the initial projection run over blocks of `_BLOCK` consecutive
triangles: each block integrates its values and adds them by one
`bincount` into the range of slots or vertices its triangles touch, so
no temporary is larger than a block and a mesh of at most `_BLOCK`
triangles is one block.  The strictly upper entries of the pattern
number the mesh's edges (:attr:`DiscreteOperators.edges`), on which the
estimators add their conormal jumps.

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

__all__ = [
    "AssemblyError",
    "QuadratureRule",
    "quadrature_rule",
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

#: triangles of one block of the Newton assembly, the weighted masses,
#: the loads and the initial projection.  Blocks of 2,048 to 16,384
#: assemble a Newton system in the same time within noise at n = 64 to
#: 250, but the call's transient grows with the block (183-330 against
#: 216-609 B per vertex) and the projection slows at 16,384 (block-size
#: table in CHANGES.md)
_BLOCK = 2048


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


def quadrature_coords(mesh, rule):
    """Physical coordinates of the rule's points, shape (nt, nq, 2)."""
    return rule.points @ mesh.vertices[mesh.triangles]


def _element_integrals(areas, values, products):
    """The one basis-product kernel: area_e * sum_q values[e, q]
    products[q, k], for values at a rule's points on elements of the
    given areas (shape (b, nq)) and one of the rule's product tables
    (shape (nq, k))."""
    local = values @ products
    local *= areas[:, None]
    return local


def _block_ranges(index):
    """[(t0, t1, lo, hi), ...]: the blocks of `_BLOCK` consecutive rows
    t0:t1 of the integer array `index` (one row per triangle), with the
    range lo:hi that holds the block's entries."""
    starts = np.arange(0, len(index), _BLOCK)
    lo = np.minimum.reduceat(index.min(axis=1), starts)
    hi = np.maximum.reduceat(index.max(axis=1), starts) + 1
    stops = np.append(starts[1:], len(index))
    return list(zip(starts.tolist(), stops.tolist(), lo.tolist(),
                    hi.tolist()))


def _add_at(out, lo, hi, index, local, scratch):
    """out[lo:hi] += the sums of the entries of `local` over equal entries
    of `index`, all of them in lo:hi.  `scratch` is an intp buffer of at
    least index.size entries that takes index - lo: a buffer kept from
    call to call spares bincount a fresh conversion of `index` each time,
    which measured a fifth of a Newton system at n = 32."""
    idx = scratch[:index.size].reshape(index.shape)
    np.subtract(index, lo, out=idx)
    out[lo:hi] += np.bincount(idx.ravel(), weights=local.ravel(),
                              minlength=hi - lo)


def _p1_pattern(mesh):
    """(indptr, indices, slots) of the P1 sparsity of `mesh`: the int32
    index arrays of its canonical CSR pattern and the read-only int32
    (nt, 9) map whose entry [e, 3 i + j] is the position of entry
    (tri[e, i], tri[e, j]) in them.  One sort of the 9 nt keys i nv + j
    gives all three; it is done by hand rather than by np.unique, whose
    intp inverse and copies double the transient (425 against 924 B per
    vertex at n = 128)."""
    nv = mesh.num_vertices
    tri = mesh.triangles
    keys = (tri[:, :, None] * nv + tri[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")  # merges the keys' sorted runs
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    rank = np.cumsum(first, dtype=np.int32)   # 2^31 slots: 16 GB of data
    rank -= 1
    slots = np.empty((len(tri), 9), dtype=np.int32)
    slots.ravel()[order] = rank
    slots.setflags(write=False)
    keys = keys[first]
    indptr = np.searchsorted(keys, nv * np.arange(nv + 1)).astype(np.int32)
    return indptr, (keys % nv).astype(np.int32), slots


def _p1_edges(mesh, pattern, slots):
    """(local, lengths) of :attr:`DiscreteOperators.edges` from the CSR
    matrix `pattern` of `mesh` and its slot map `slots`
    (:func:`_p1_pattern`): an edge is numbered by its rank among the
    strictly upper entries of the pattern, and the local edge from a to
    b of a triangle takes the slot of its entry (min(a, b), max(a, b))."""
    rows = np.repeat(np.arange(mesh.num_vertices), np.diff(pattern.indptr))
    upper = pattern.indices > rows
    edge_of_slot = np.cumsum(upper) - 1
    a = mesh.triangles
    b = np.roll(a, -1, axis=1)
    j = np.arange(3)
    k = (j + 1) % 3
    local = edge_of_slot[np.where(a < b, slots[:, 3 * j + k],
                                  slots[:, 3 * k + j])]
    lengths = np.empty(np.count_nonzero(upper))
    lengths[local] = mesh.tri_edge_lengths
    local.setflags(write=False)
    lengths.setflags(write=False)
    return local, lengths


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


def l2_project(ops, functions):
    """L2-orthogonal projections of pointwise functions onto the P1 space
    of the operators `ops` (a :class:`DiscreteOperators`).

    Each `f(x, y)` in `functions` must accept coordinate arrays.  The load
    vectors are integrated with the degree-6 rule over the operators'
    blocks of `_BLOCK` triangles, each block's point coordinates two
    (b, 3) @ (3, 12) products, and each function is called once per
    block.  The loads are solved one by one with `_PROJECTION_STEPS`
    steps of :func:`mass_solver` on the operators' mass matrix, which
    reach rounding level; a load vector that is exactly zero projects to
    zero without them.  Returns an array of shape (len(functions), nv),
    one nodal vector per function.
    """
    rule = ops.rule6
    tri = ops.mesh.triangles
    xs, ys = ops.mesh.vertices.T
    loads = np.zeros((len(functions), ops.mesh.num_vertices))
    for block in ops._blocks:
        cells = tri[block[0]:block[1]]
        qx = xs[cells] @ rule.points.T
        qy = ys[cells] @ rule.points.T
        for b, f in zip(loads, functions):
            values = np.broadcast_to(np.asarray(f(qx, qy), dtype=float),
                                     qx.shape)
            ops._add_load(b, block, values, rule.load_products)
    solve = mass_solver(ops.mass, _PROJECTION_STEPS)
    x = np.zeros_like(loads)
    for k, b in enumerate(loads):
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
    r -> (M_T/tau + sigma K)^-1 r of
    :meth:`DiscreteOperators.u_block_solver`, which preconditions
    a11 = M/tau + sigma K + M(f_u).  `A @ x` multiplies by the whole
    matrix; :meth:`tocsc` assembles it for a direct solve."""

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
    """The P1 discretization of one mesh, free of model constants: its
    pattern, :attr:`mass` M, the unit-conductivity :attr:`stiffness` K,
    :attr:`h1_gram` M + K, the quadrature rules, the blocks and the
    :attr:`edges`.

    Shared by the solver and the estimators so that mass and stiffness
    are assembled once per mesh, whatever the model's parameters; each
    caller scales K by the conductivity p.M_scalar of the parameters it
    is given.  The pattern and its slot map (`_p1_pattern`) are built at
    construction and kept for the life of the operators: mass,
    stiffness, :attr:`h1_gram`, every weighted mass and so every Newton
    block share the read-only index arrays of :attr:`mass`.  No matrix
    is factored here.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        indptr, indices, self._slots = _p1_pattern(mesh)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        areas = mesh.areas[:, None, None]

        def assembled(local):
            """Data on the pattern of the (nt, 3, 3) element matrices
            `local`, which are scaled by the areas in place."""
            local *= areas
            return np.bincount(self._slots.ravel(), weights=local.ravel(),
                               minlength=len(indices))

        nv = mesh.num_vertices
        self.mass = sp.csr_matrix((assembled(np.tile(
            (np.ones((3, 3)) + np.eye(3)) / 12.0, (len(areas), 1, 1))),
            indices, indptr), shape=(nv, nv))
        G = mesh.basis_gradients                       # (nt, 3, 2)
        self.stiffness = _on_pattern(self.mass, assembled(
            G @ G.transpose(0, 2, 1)))
        self.h1_gram = _on_pattern(self.mass, self.mass.data
                                   + self.stiffness.data)
        self.rule4 = quadrature_rule(4)
        self.rule6 = quadrature_rule(6)
        self._u_block_solvers = {}

    def field_at(self, vec, rule):
        """Values of the P1 function with nodal vector `vec` at the
        rule's points, shape (nt, nq)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.mesh.num_vertices,):
            raise AssemblyError("nodal vector length does not match the "
                                "mesh")
        return vec[self.mesh.triangles] @ rule.points.T

    def u_block_solver(self, tau, conductivity):
        """:func:`grid_solver` of the mesh for the shift 1/tau and the
        `conductivity`, the map r -> (M_T/tau + conductivity K)^-1 r, made
        once per (tau, conductivity); AssemblyError unless the mesh is a
        structured grid (:attr:`mesh.TriMesh.grid_n`)."""
        solve = self._u_block_solvers.get((tau, conductivity))
        if solve is None:
            n = self.mesh.grid_n
            if n is None:
                raise AssemblyError("the u-block solve needs the structured "
                                    "grid of unit_square_mesh or its "
                                    "refinements")
            solve = self._u_block_solvers[tau, conductivity] = grid_solver(
                n, 1.0 / tau, conductivity)
        return solve

    @cached_property
    def edges(self):
        """(local, lengths), the mesh's edges, built on first read
        (:func:`_p1_edges`).  The edges are the entries (i, j), i < j, of
        the pattern of :attr:`mass`, numbered in its order, which sorts
        the vertex pairs.  `local` (nt, 3) is the edge of each local edge
        j of each triangle, from vertex j to vertex j+1 (mod 3), and
        `lengths` the length of each edge; both are read-only."""
        return _p1_edges(self.mesh, self.mass, self._slots)

    @cached_property
    def _blocks(self):
        """[(t0, t1, s0, s1, v0, v1), ...]: the blocks of `_BLOCK`
        triangles t0:t1, whose slots lie in s0:s1 and whose vertices lie
        in v0:v1, found once per operators."""
        return [(t0, t1, s0, s1, v0, v1) for (t0, t1, s0, s1), (_, _, v0, v1)
                in zip(_block_ranges(self._slots),
                       _block_ranges(self.mesh.triangles))]

    @cached_property
    def _scratch(self):
        """The intp buffer of :func:`_add_at`, one block's slots long;
        it makes one operators object serve one thread at a time."""
        return np.empty(9 * _BLOCK, dtype=np.intp)

    def _add_mass(self, data, block, values, products):
        """Add the weighted mass of one block's `values` at the points of
        the rule of `products` into `data`, on the pattern of :attr:`mass`."""
        t0, t1, s0, s1 = block[:4]
        _add_at(data, s0, s1, self._slots[t0:t1], _element_integrals(
            self.mesh.areas[t0:t1], values, products), self._scratch)

    def _add_load(self, rhs, block, values, products):
        """Add the load of one block's `values` into the nodal vector
        `rhs`."""
        t0, t1, _, _, v0, v1 = block
        _add_at(rhs, v0, v1, self.mesh.triangles[t0:t1], _element_integrals(
            self.mesh.areas[t0:t1], values, products), self._scratch)

    def weighted_mass(self, values_at_quad, rule=None):
        """Mass matrix weighted by pointwise values at the points of
        `rule` (default :attr:`rule4`), shape (nt, nq), on the pattern of
        :attr:`mass`: per block of `_BLOCK` triangles, one call of the
        basis-product kernel and one bincount through the slot map."""
        products = (rule or self.rule4).mass_products
        data = np.zeros(self.mass.nnz)
        for block in self._blocks:
            self._add_mass(data, block, values_at_quad[block[0]:block[1]],
                           products)
        return _on_pattern(self.mass, data)

    def newton_system(self, p, u_prev, w_prev, u_it, w_it, tau):
        """The linear system (A, rhs) of one Newton step of implicit
        Euler for the model with parameters `p`: the step of length `tau`
        from the nodal vectors (u_prev, w_prev), linearized at the
        iterate (u_it, w_it).

        A is the :class:`NewtonMatrix` [[M/tau + sigma K + M(f_u), M(u)],
        [s M(u) + c M, d M]], with the :meth:`u_block_solver` of tau and
        sigma = p.M_scalar.  M and K are :attr:`mass` and :attr:`stiffness`;
        M(v) is the weighted mass (:meth:`weighted_mass`) at the points of
        :attr:`rule4`, of the partial f_u and of the iterate u (f_w = u)
        there.  The lower blocks are those of g_u = s u + c and the
        constant g_w of :func:`ionic.recovery_jacobian`, d = 1/tau + g_w,
        so they need no quadrature: an iterate makes two weighted masses.
        All of them, and the stiffness matrix, lie on the one pattern of
        the operators.  rhs stacks M u_prev / tau and M w_prev / tau, each
        plus the load of its reduced weight from :func:`ionic.newton_load`.

        The quadrature runs over the blocks of `_BLOCK` triangles: each
        block gathers u and w at its points, evaluates :func:`ionic.f_du`
        and :func:`ionic.newton_load` there and adds its two weighted
        masses and two loads into the slot and vertex ranges it touches,
        so the only mesh-sized arrays are the ones returned.

        All reaction integrals are evaluated pointwise at degree-4
        quadrature, which is exact here (cubic f times a linear test
        function), so the fixed point of the iteration is the exact
        implicit-Euler P1 solution and the convergence is genuinely
        quadratic.
        """
        nv = self.mesh.num_vertices
        if np.shape(u_it) != (nv,) or np.shape(w_it) != (nv,):
            raise AssemblyError("nodal vector length does not match the "
                                "mesh")
        rhs = np.empty(2 * nv)
        rhs1, rhs2 = rhs[:nv], rhs[nv:]
        rhs1[:] = self.mass @ (u_prev / tau)
        rhs2[:] = self.mass @ (w_prev / tau)
        rule = self.rule4
        at_points = rule.points.T
        tri = self.mesh.triangles
        s, c, g_w = ionic.recovery_jacobian(p)
        a11 = np.zeros(self.mass.nnz)
        a12 = np.zeros(self.mass.nnz)
        for block in self._blocks:
            cells = tri[block[0]:block[1]]
            u_q = u_it[cells] @ at_points
            w_q = w_it[cells] @ at_points
            self._add_mass(a11, block, ionic.f_du(u_q, w_q, p),
                           rule.mass_products)
            self._add_mass(a12, block, u_q, rule.mass_products)
            load_f, load_g = ionic.newton_load(u_q, w_q, p)
            self._add_load(rhs1, block, load_f, rule.load_products)
            self._add_load(rhs2, block, load_g, rule.load_products)
        a11 += self.mass.data * (1.0 / tau) + p.M_scalar * self.stiffness.data
        A = NewtonMatrix(_on_pattern(self.mass, a11),
                         _on_pattern(self.mass, a12), s, c, 1.0 / tau + g_w,
                         self.mass, self.u_block_solver(tau, p.M_scalar))
        return A, rhs

    def load(self, values_at_quad, rule=None):
        """Load vector b_i = integral of f l_i from the values of f at the
        points of `rule` (default :attr:`rule4`), shape (nt, nq), added
        block by block."""
        products = (rule or self.rule4).load_products
        rhs = np.zeros(self.mesh.num_vertices)
        for block in self._blocks:
            self._add_load(rhs, block, values_at_quad[block[0]:block[1]],
                           products)
        return rhs

    def l2_norm(self, vec):
        return float(np.sqrt(vec @ (self.mass @ vec)))

    def h1_norm(self, vec):
        return float(np.sqrt(vec @ (self.h1_gram @ vec)))
