"""Implicit Euler time marching with a Newton-Galerkin step solver.

Each timestep solves the nonlinear P1 system for (u^n, w^n) with Newton's
method.  The linear system of each iterate, the 2N x 2N matrix
[[M/tau + K + M(f_u), M(f_w)], [M(g_u), (1/tau + eps) M]] and its
right-hand side, is built by `DiscreteOperators.newton_system` (see
:mod:`monofem.assembly`), with exact (degree-4) quadrature; this module
holds the Newton loop and the linear algebra.

Every march has one linear backend, a `FrozenLUSolver`, and factors no
matrix.  Only the u-block of the Newton matrix carries the Laplacian;
the w-block is (1/tau + eps) M at every iterate, because g_w = eps.  The
backend preconditions a restarted, right-preconditioned GMRES (Saad and
Schultz 1986) with a block lower triangular matrix (Murphy, Golub and
Wathen 2000): its u-block is M_T/tau + K, with the tensor-product lumped
mass M_T, which `assembly.grid_solver` inverts exactly by DCT-I
transforms on the structured grid; its lower-left block is that of the
system being solved; its w-block applies the mass matrix inverse by a
fixed Chebyshev polynomial (`assembly.mass_solver`).  It takes nothing
but the matrices it is handed, so it cannot disagree with them about tau
or eps.  GMRES starts from the current Newton iterate, which differs
from the solution by the Newton increment.  Every solve checks the
relative-residual contract |Ax - b| <= 1e-10 |b| and raises SolverError
when GMRES misses it, and refuses a right-hand side whose norm is not
finite.  A march runs only on the structured grids of
`mesh.unit_square_mesh` and its refinements (`mesh.grid_cells`), and
refuses any other mesh before it assembles anything.  `DirectSolver`,
one LU of the whole system per solve, is the oracle the tests compare
the march against.  The unknowns are u, then w, each in the mesh
numbering.

Each step after a march's first starts Newton from a polynomial
extrapolation of the last accepted states, of the degree (at most 5)
that best predicted the newest of them from the ones before it; steps 2
and 3 start from the linear 2 x^(n-1) - x^(n-2).  Each step's
`NewtonRecord` counts its Newton iterates and the Krylov vectors of its
linear solves.  In increment mode a step stops as soon as the quadratic
rate predicts its next increment below the tolerance, so it does not
spend an iterate confirming a converged one; its last increment is still
below 1e-8 (`_LOOSEST_INCREMENT`).
"""

from math import comb

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from dataclasses import dataclass, field

from . import estimators, ionic
from .assembly import (_PERMC_SPEC, DiscreteOperators, l2_project,
                       mass_solver)
from .mesh import grid_cells, mesh_chain

__all__ = [
    "SolverError",
    "NewtonError",
    "StateField",
    "NewtonConfig",
    "NewtonRecord",
    "TrajectorySolution",
    "newton_solve",
    "time_march",
    "step_count",
    "trajectory_nbytes",
    "initial_state",
    "DirectSolver",
    "FrozenLUSolver",
]

#: relative residual every linear backend must achieve
LINEAR_RESIDUAL_RTOL = 1e-10

#: increments below ~100 eps * solution scale carry no information; the
#: Newton loop accepts there even if the configured tolerance is smaller
_ROUNDOFF_FACTOR = 100.0 * np.finfo(float).eps

#: largest last increment of an accepted step: the stagnation test and the
#: quadratic-rate stop of the Newton loop accept only below it
_LOOSEST_INCREMENT = 1e-8

#: GMRES restart length of the march's backend
_MAX_KRYLOV = 40

#: restart cycles of one GMRES run
_KRYLOV_CYCLES = 2

#: relative residual at which GMRES stops
_KRYLOV_RTOL = 1e-12

#: Chebyshev steps of the preconditioner's mass-matrix solve
_PRECONDITIONER_STEPS = 6

#: highest degree of the extrapolated Newton start of a march step
_MAX_PREDICTOR_DEGREE = 5

#: accepted states a march keeps for that start: choosing the degree k
#: checks how well degree k predicted the newest state from the k + 1
#: states before it
_HISTORY = _MAX_PREDICTOR_DEGREE + 2

#: key layout of TrajectorySolution.save
_CHECKPOINT_VERSION = 2


class SolverError(RuntimeError):
    pass


class NewtonError(SolverError):
    """Newton iteration failed to converge within max_iterations."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


@dataclass
class StateField:
    """Nodal coefficient vectors of (u, w) on a mesh at one time instant."""

    mesh: object
    u: np.ndarray
    w: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        nv = self.mesh.num_vertices
        if len(self.u) != nv or len(self.w) != nv:
            raise SolverError("state vector length does not match the mesh")


@dataclass
class NewtonConfig:
    """Stopping rule of the per-step Newton iteration.

    mode "increment_tolerance": stop when the H1 norm of du plus the L2
    norm of dw drops below `tol`.  mode "estimator_balance": stop when the
    linearization indicator is at most `sigma` times the space indicator.
    """

    mode: str = "increment_tolerance"
    tol: float = 1e-14
    sigma: float = 0.1
    max_iterations: int = 30

    def __post_init__(self):
        if self.mode not in ("increment_tolerance", "estimator_balance"):
            raise ValueError(f"unknown Newton stopping mode {self.mode!r}")
        if self.mode == "increment_tolerance" and not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.mode == "estimator_balance" and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class NewtonRecord:
    """History of one timestep: iterate count, the Krylov vectors of its
    linear solves, per-iterate increment norms, and per-iterate
    (linearization, space) indicators in balance mode."""

    iterations: int = 0
    krylov_vectors: int = 0
    increments: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    etas: list = field(default_factory=list)


class DirectSolver:
    """Sparse LU factorization per solve; guarantees |Ax-b| <= 1e-10 |b|.

    No march uses it: it is the reference the tests check
    `FrozenLUSolver` and the march against, assembling a NewtonMatrix
    with `tocsc`.  `solve` ignores the starting guess `x0` and makes no
    Krylov vectors.
    """

    krylov_iterations = 0

    def solve(self, A, b, x0=None):
        _rhs_norm(b)
        try:
            lu = spla.splu(A.tocsc(), permc_spec=_PERMC_SPEC)
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        x = lu.solve(b)
        _check_residual(A, x, b)
        return x


class FrozenLUSolver:
    """Right-preconditioned GMRES with a block-triangular preconditioner;
    the backend of every march.  It factors nothing: the name is kept
    because `perfbench/tracer.py` wraps `FrozenLUSolver.solve`.

    Every Newton matrix [[A11, A12], [A21, A22]] of a march has
    A22 = d M (`NewtonMatrix.d` = 1/tau + eps).  For each system it is
    given, the solver preconditions with P = [[P_u, 0], [A21, d Q]]:
    y_u = P_u^-1 r_u, then y_w = Q^-1 (r_w - A21 y_u) / d.  P_u^-1 is the
    matrix's `u_solve`, the exact inverse of M_T/tau + K on the
    structured grid, which leaves out the reaction M(f_u) of
    A11 = M/tau + K + M(f_u) and replaces its mass M by M_T; A21 = M(g_u)
    is that system's own; Q^-1 is `_PRECONDITIONER_STEPS` Chebyshev steps
    of :func:`assembly.mass_solver`, made once per mass matrix.  Q^-1 is not
    M^-1, but it is a fixed polynomial in D^-1 M, so P is one linear
    operator for the whole solve, as right-preconditioned GMRES requires.
    GMRES starts from `x0` when given (the Newton loop passes its current
    iterate).  When it stalls or misses the residual contract, `solve`
    raises SolverError.  `krylov_iterations` counts the Krylov vectors,
    each of which applies P once.
    """

    def __init__(self):
        self._u_solve = None
        self._a21 = None
        self._d = None
        self._mass = None
        self._mass_inverse = None
        self.krylov_iterations = 0

    def _set_preconditioner(self, A):
        """Make P of the Newton matrix A."""
        if A.mass is not self._mass:
            self._mass = A.mass
            self._mass_inverse = mass_solver(A.mass, _PRECONDITIONER_STEPS)
        self._u_solve = A.u_solve
        self._a21 = A.lower_left()
        self._d = A.d

    def _precondition(self, r):
        n = len(r) // 2
        y_u = self._u_solve(r[:n])
        y_w = self._mass_inverse(r[n:] - self._a21 @ y_u)
        y_w /= self._d
        return np.concatenate([y_u, y_w])

    def _gmres(self, A, b, x, bnorm):
        """Restarted GMRES for A x = b from `x`, preconditioned on the
        right, so that its Arnoldi residual is the residual b - A x
        itself.  Returns (x, converged), converged when that residual is
        at most _KRYLOV_RTOL |b|; an `x` that already meets it comes back
        unchanged, with no application of P."""
        target = _KRYLOV_RTOL * bnorm
        m = _MAX_KRYLOV
        for _ in range(_KRYLOV_CYCLES):
            r = b - A @ x
            beta = np.linalg.norm(r)
            if beta <= target:
                return x, True
            V = [r / beta]                       # Arnoldi basis
            Z = []                               # P^-1 of each basis vector
            H = np.zeros((m, m))
            cs = np.zeros(m)
            sn = np.zeros(m)
            g = np.zeros(m + 1)
            g[0] = beta
            for j in range(m):
                Z.append(self._precondition(V[j]))
                self.krylov_iterations += 1
                w = A @ Z[j]
                for i in range(j + 1):           # modified Gram-Schmidt
                    H[i, j] = V[i] @ w
                    w -= H[i, j] * V[i]
                w_norm = np.linalg.norm(w)
                for i in range(j):               # earlier Givens rotations
                    H[i, j], H[i + 1, j] = (
                        cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
                h = np.hypot(H[j, j], w_norm)
                cs[j], sn[j] = H[j, j] / h, w_norm / h
                H[j, j] = h
                g[j + 1] = -sn[j] * g[j]
                g[j] *= cs[j]
                if abs(g[j + 1]) <= target:      # also when w_norm == 0
                    break
                V.append(w / w_norm)
            k = j + 1
            y = sla.solve_triangular(H[:k, :k], g[:k], check_finite=False)
            x = x + y @ np.array(Z)
            if abs(g[k]) <= target:
                return x, True
        return x, False

    def solve(self, A, b, x0=None):
        bnorm = _rhs_norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        if x0 is None:
            x0 = np.zeros_like(b)
        self._set_preconditioner(A)
        x, converged = self._gmres(A, b, x0, bnorm)
        if not converged:
            raise SolverError(f"GMRES missed the relative residual "
                              f"{_KRYLOV_RTOL:g} in {_KRYLOV_CYCLES} cycles "
                              f"of {_MAX_KRYLOV} Krylov vectors")
        _check_residual(A, x, b)
        return x


def _rhs_norm(b):
    """|b|; SolverError when it is not finite, because every x meets the
    relative-residual contract of such a b."""
    with np.errstate(over="ignore"):  # an overflow is the error below
        bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise SolverError("the norm of the linear system's right-hand "
                          "side is not finite (overflow in the Newton "
                          "system?)")
    return bnorm


def _check_residual(A, x, b):
    if not np.all(np.isfinite(x)):
        raise SolverError("linear solve produced non-finite values "
                          "(singular matrix?)")
    bnorm = np.linalg.norm(b)
    if (np.linalg.norm(A @ x - b) > LINEAR_RESIDUAL_RTOL * bnorm
            or (bnorm == 0.0 and np.any(x))):
        raise SolverError("linear solve missed the residual contract")


def _require_grid(mesh):
    """SolverError unless `mesh` is a structured grid
    (:func:`mesh.grid_cells`), the only meshes the u-block preconditioner
    solves on."""
    if grid_cells(mesh) is None:
        raise SolverError("the march runs on the structured grids of "
                          "unit_square_mesh and its refinements only; this "
                          "mesh is not one (renumbered, moved or built by "
                          "hand)")


def _roundoff_floor(ops, u, w):
    return _ROUNDOFF_FACTOR * (1.0 + ops.h1_norm(u) + ops.l2_norm(w))


def _converged_quadratically(inc, inc_prev, bound):
    """Deuflhard's a posteriori test of a quadratically converging Newton
    iteration: with the contraction Theta = inc / inc_prev below 1/2, the
    next increment is predicted as Theta^2 inc, and the iterate is accepted
    when that prediction is below `bound`.  Accepts only increments below
    _LOOSEST_INCREMENT, so an accepted step's last increment stays there."""
    theta = inc / inc_prev
    return (inc < _LOOSEST_INCREMENT and theta < 0.5
            and theta * theta * inc < bound)


def newton_solve(prev, tau, p, cfg, ops=None, linear=None, start=None):
    """Newton iteration for one implicit Euler step from `prev`.

    The right-hand side is built from `prev`; the iteration starts from
    `start`, a (u, w) pair of nodal vectors, or from `prev` when it is
    None.  Each iterate solves the system `ops.newton_system` builds;
    `ops` defaults to the operators of `p` on the state's mesh, `linear`
    to a fresh FrozenLUSolver.  Each linear solve is given the current
    iterate as its starting guess, so GMRES only has to find the Newton
    increment.  A mesh that is not a structured grid is refused with
    SolverError before anything is assembled.

    In increment mode the iteration stops when the increment is below
    `cfg.tol` or the rounding floor, when it stagnates below
    _LOOSEST_INCREMENT, or from iterate 2 on when the quadratic rate
    predicts the next increment below max(tol, floor), so that no
    iterate is spent confirming the one before it; the last increment of
    an accepted step is below _LOOSEST_INCREMENT.  In balance mode the
    stopping test compares the linearization indicator of the last two
    iterates with the space indicator, the current iterate standing in
    for the accepted state; the previous state and each iterate are
    evaluated at the quadrature points once.

    Returns (state, record, [iterate_0, ..., iterate_K]): iterate_0 is a
    copy of the start, the point the first system is linearized at, and
    iterate_K the accepted state.  `record.krylov_vectors` is the growth
    of `linear.krylov_iterations` over the step.
    """
    if not tau > 0:
        raise SolverError("tau must be positive")
    _require_grid(prev.mesh)
    if ops is None:
        ops = DiscreteOperators.for_params(prev.mesh, p)
    if linear is None:
        linear = FrozenLUSolver()

    nv = prev.mesh.num_vertices
    u0, w0 = (prev.u, prev.w) if start is None else start
    cur = StateField(prev.mesh, u0.copy(), w0.copy(), prev.time + tau)
    rec = NewtonRecord()
    states = [StateField(prev.mesh, cur.u.copy(), cur.w.copy(), cur.time)]
    balance = cfg.mode == "estimator_balance"
    if balance:
        prev_q = estimators._at(ops, prev)
        cur_q = estimators._at(ops, cur)
    inc_prev = np.inf
    krylov_before = linear.krylov_iterations
    for k in range(1, cfg.max_iterations + 1):
        A, rhs = ops.newton_system(p, prev.u, prev.w, cur.u, cur.w, tau)
        x = linear.solve(A, rhs, np.concatenate([cur.u, cur.w]))
        rec.krylov_vectors = linear.krylov_iterations - krylov_before
        last = cur
        cur = StateField(prev.mesh, x[:nv], x[nv:], prev.time + tau)
        inc = ops.h1_norm(cur.u - last.u) + ops.l2_norm(cur.w - last.w)
        rec.increments.append(inc)
        rec.iterations = k
        states.append(cur)

        floor = _roundoff_floor(ops, cur.u, cur.w)
        stagnated = inc < _LOOSEST_INCREMENT and inc >= inc_prev
        if not balance:
            if (inc < cfg.tol or inc < floor or stagnated
                    or (k >= 2 and _converged_quadratically(
                        inc, inc_prev, max(cfg.tol, floor)))):
                break
        else:
            last_q, cur_q = cur_q, estimators._at(ops, cur)
            gamma, eta = estimators._iterate_indicators(
                ops, p, tau, prev_q, last_q, cur_q, cur.u)
            rec.gammas.append(gamma)
            rec.etas.append(eta)
            if gamma <= cfg.sigma * eta or inc < floor or stagnated:
                break
        inc_prev = inc
    else:
        raise NewtonError(
            f"Newton did not converge in {cfg.max_iterations} iterations "
            f"(last increment {rec.increments[-1]:.3e})",
            time=prev.time + tau)
    return cur, rec, states


def _extrapolate(history, degree):
    """(u, w) one step past history[0] by the polynomial of `degree`
    through history[0..degree], newest first: the coefficients are
    (-1)^j C(degree+1, j+1), so degree 1 gives 2 x_0 - x_1."""
    coeffs = [(-1) ** j * comb(degree + 1, j + 1) for j in range(degree + 1)]
    u = coeffs[0] * history[0].u
    w = coeffs[0] * history[0].w
    for c, s in zip(coeffs[1:], history[1:]):
        u += c * s.u
        w += c * s.w
    return u, w


def _predictor_degree(history):
    """The degree k in 1..min(_MAX_PREDICTOR_DEGREE, len(history) - 2)
    whose extrapolation from history[1..k+1] lands nearest history[0] in
    the Euclidean norm of the stacked (u, w), the lowest on a tie; 1 when
    history holds two states.  That miss is the (k+1)-th backward
    difference at history[0], so the candidates cost one differencing
    each."""
    if len(history) < 3:
        return 1
    diff = np.diff([np.concatenate([s.u, s.w]) for s in history], axis=0)
    best, best_miss = 1, np.inf
    for k in range(1, min(_MAX_PREDICTOR_DEGREE, len(history) - 2) + 1):
        diff = np.diff(diff, axis=0)
        miss = np.linalg.norm(diff[0])
        if miss < best_miss:
            best, best_miss = k, miss
    return best


def _newton_start(history):
    """Newton's starting (u, w) for the step after history[0], from the
    accepted states `history`, newest first: their extrapolation of the
    degree :func:`_predictor_degree` picks, or None, which starts
    :func:`newton_solve` at history[0] itself, when history holds one
    state."""
    if len(history) == 1:
        return None
    return _extrapolate(history, _predictor_degree(history))


def _march_steps(state, tau, num_steps, p, cfg, ops):
    """Implicit Euler steps 1..num_steps from `state`, all on `ops` and
    one FrozenLUSolver, so the march factors no matrix; yields (record,
    iterates) of each step, the last iterate being the accepted state.

    Newton starts each step from :func:`_newton_start` of the last
    _HISTORY accepted states (Hairer and Wanner, Solving ODEs II, IV.8;
    Shampine and Reichelt, SIAM J. Sci. Comput. 18, 1997): step 1 from
    `state` itself, steps 2 and 3 from the linear extrapolation
    2 x^(n-1) - x^(n-2), and every later step from the extrapolation of
    degree k <= 5 that best predicted x^(n-1) from the states before it.
    On a smooth stretch of the march the degree-k start is
    O(tau^(k+1)) from x^n; where the states stop looking polynomial (an
    upstroke at large tau) the rule falls back to a lower degree.  The
    right-hand side of step n is built from x^(n-1) alone.  A
    SolverError, a NewtonError among them, is re-raised with its step
    number."""
    linear = FrozenLUSolver()
    history = [state]
    for n in range(1, num_steps + 1):
        start = _newton_start(history)
        try:
            accepted, rec, iterates = newton_solve(
                state, tau, p, cfg, ops=ops, linear=linear, start=start)
        except NewtonError as exc:
            raise NewtonError(f"step {n} (t={exc.time:.6g}): {exc}",
                              step=n, time=exc.time) from exc
        except SolverError as exc:
            raise SolverError(f"step {n} (t={state.time + tau:.6g}): "
                              f"{exc}") from exc
        state = accepted
        history = [accepted] + history[:_HISTORY - 1]
        yield rec, iterates


class TrajectorySolution:
    """Accepted states of a full time march plus per-step Newton history.

    `U` and `W` have shape (N+1, nv); row n holds the state at times[n].
    `penultimate[n]` (when stored) is the next-to-last Newton iterate of
    step n, which the a posteriori indicators of the linearized scheme
    need; index 0 is None.
    """

    def __init__(self, mesh, times, U, W, params, newton=None,
                 penultimate=None, tau=None, initial=None):
        self.mesh = mesh
        self.times = np.asarray(times, dtype=float)
        self.U = U
        self.W = W
        self.params = params
        self.newton = newton or []
        self.penultimate = penultimate
        self.tau = tau
        self.initial = initial   # the (u0, w0) callables the march projected
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise SolverError("times must start at 0 and increase strictly")
        shape = (len(self.times), mesh.num_vertices)
        if U.shape != shape or W.shape != shape:
            raise SolverError("state array shape does not match times/mesh")

    @property
    def num_steps(self):
        return len(self.times) - 1

    def state(self, n):
        return StateField(self.mesh, self.U[n], self.W[n],
                          float(self.times[n]))

    def newton_counts(self):
        return np.array([r.iterations for r in self.newton], dtype=int)

    def save(self, path):
        """Checkpoint to an uncompressed .npz archive with the keys

        format_version (2), base_n and levels (the mesh is
        mesh_chain(base_n, levels)[-1]), times, U, W, tau (NaN when
        unknown), params ([A, a, eps, M_scalar]) and newton_iterations
        (one count per step).  The columns of U and W follow the vertex
        numbering of that mesh, row by row also on refined meshes; format
        1 numbered the midpoints of a refinement after the coarse
        vertices.  The initial data and the penultimate iterates are not
        saved.  Compressing took over ten times as long as writing,
        for a file about 1.6 times smaller; :meth:`load` reads both
        kinds.
        """
        if self.mesh.base_n is None:
            raise SolverError("only structured meshes (unit_square_mesh + "
                              "refinements) can be checkpointed")
        p = self.params
        np.savez(
            path,
            format_version=_CHECKPOINT_VERSION,
            base_n=self.mesh.base_n,
            levels=self.mesh.levels,
            times=self.times,
            U=self.U,
            W=self.W,
            tau=self.tau if self.tau is not None else np.nan,
            params=np.array([p.A, p.a, p.eps, p.M_scalar]),
            newton_iterations=self.newton_counts(),
        )

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by :meth:`save`; a checkpoint of any
        other format version is refused with SolverError.

        The initial data is not in the checkpoint, so
        :func:`estimators.estimate_trajectory` of a loaded trajectory
        needs the run's `initial=` pair (`ionic.initial_pair()` for the
        default data) and raises ValueError without it.
        """
        with np.load(path) as data:
            version = int(data["format_version"])
            if version != _CHECKPOINT_VERSION:
                raise SolverError(f"checkpoint format version {version} is "
                                  f"not supported (expected "
                                  f"{_CHECKPOINT_VERSION})")
            base_n = int(data["base_n"])
            levels = int(data["levels"])
            mesh = mesh_chain(base_n, levels)[-1]
            A, a, eps, M = data["params"]
            params = ionic.AlievPanfilovParams(A=float(A), a=float(a),
                                               eps=float(eps),
                                               M_scalar=float(M))
            tau = float(data["tau"])
            newton = [NewtonRecord(iterations=int(k))
                      for k in data["newton_iterations"]]
            return cls(mesh, data["times"], data["U"], data["W"], params,
                       newton=newton, tau=None if np.isnan(tau) else tau)


def initial_state(ops, initial=None):
    """State at t=0 on ops.mesh: the L2 projections onto V_h of the pair
    of callables :func:`ionic.initial_pair` makes of `initial`, solved on
    the operators' own mass matrix with no factorization."""
    u0, w0 = l2_project(ops.mesh, ionic.initial_pair(initial),
                        mass=ops.mass)
    return StateField(ops.mesh, u0, w0, 0.0)


def step_count(tau, t_end):
    """Number of steps of length tau from 0 to t_end; SolverError unless
    both are positive and tau divides t_end to 1e-9 max(1, t_end)."""
    if not tau > 0 or not t_end > 0:
        raise SolverError("tau and t_end must be positive")
    N = int(round(t_end / tau))
    if N < 1 or abs(N * tau - t_end) > 1e-9 * max(1.0, t_end):
        raise SolverError(f"tau={tau} does not divide t_end={t_end}")
    return N


def trajectory_nbytes(num_vertices, num_steps, store_penultimate=True):
    """Bytes of the state arrays :func:`time_march` keeps for a march of
    `num_steps` steps on a mesh with `num_vertices` vertices: U and W,
    plus one penultimate (u, w) pair per step when those are stored."""
    per_state = 8 * num_vertices
    states = 2 * (num_steps + 1)
    if store_penultimate:
        states += 2 * num_steps
    return states * per_state


def time_march(mesh, p, tau, t_end, cfg=None, initial=None,
               store_penultimate=True):
    """March the monodomain system from its projected initial data to t_end.

    Every linear solve of the march goes through one FrozenLUSolver:
    GMRES with the block-triangular preconditioner of the DCT-I grid
    solve of the u-block and Chebyshev steps on the mass matrix, each
    solve checked to |Ax - b| <= 1e-10 |b|.  The march factors no matrix:
    the initial data is projected with Chebyshev steps as well.  `mesh`
    must be a structured grid (:func:`mesh.grid_cells`); any other mesh
    is refused with SolverError before anything is assembled.

    Parameters
    ----------
    mesh : TriMesh
    p : AlievPanfilovParams
        Model constants; the conductivity is the scalar p.M_scalar.
    tau : float
        Uniform timestep; must divide t_end.
    t_end : float
    cfg : NewtonConfig, optional
    initial : pair of callables (x, y) -> values, optional
        Defaults to the Gaussian excitation of :func:`ionic.initial_data`;
        both components are taken into V_h by L2 projection.
    store_penultimate : bool
        Keep the next-to-last Newton iterate of every step (needed by the
        linearization-aware indicators; off for large reference runs).
    """
    if cfg is None:
        cfg = NewtonConfig()
    N = step_count(tau, t_end)
    _require_grid(mesh)

    ops = DiscreteOperators.for_params(mesh, p)
    initial = ionic.initial_pair(initial)
    state = initial_state(ops, initial)

    nv = mesh.num_vertices
    times = np.linspace(0.0, t_end, N + 1)
    U = np.empty((N + 1, nv))
    W = np.empty((N + 1, nv))
    U[0] = state.u
    W[0] = state.w

    newton = []
    penultimate = [None] * (N + 1) if store_penultimate else None
    steps = _march_steps(state, tau, N, p, cfg, ops)
    for n, (rec, iterates) in enumerate(steps, start=1):
        U[n] = iterates[-1].u
        W[n] = iterates[-1].w
        newton.append(rec)
        if store_penultimate:
            penultimate[n] = (iterates[-2].u, iterates[-2].w)

    return TrajectorySolution(mesh, times, U, W, p, newton=newton,
                              penultimate=penultimate, tau=tau,
                              initial=initial)
