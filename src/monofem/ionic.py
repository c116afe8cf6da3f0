"""Aliev-Panfilov reaction kinetics.

Cubic ionic current f and linear-in-recovery dynamics g,

    f(u, w) = A u (u - a)(u - 1) + u w,
    g(u, w) = eps (A u (u - 1 - a) + w),

their four partial derivatives, the model parameters, and the Gaussian
initial excitation used by the experiments.  All functions are pure and
accept numpy arrays.

The recovery equation is linear in w and its u-derivative is linear in u:
g_w = eps and g_u = eps A (2u - 1 - a).  The Newton system of a step
needs no pointwise g_u or g_w, only the coefficients
:func:`recovery_jacobian` returns, and its right-hand side reduces to the
two weights :func:`newton_load` returns.  :func:`react` evaluates the
general form and is the reference the reduced ones are checked against.
"""

import numpy as np
from dataclasses import dataclass

__all__ = [
    "AlievPanfilovParams",
    "ReactionEval",
    "react",
    "recovery_jacobian",
    "newton_load",
    "initial_data",
    "initial_pair",
]


@dataclass(frozen=True)
class AlievPanfilovParams:
    """Model constants: gain A > 0, threshold a in (0,1), recovery rate
    eps > 0, and the scalar conductivity used by the isotropic runs."""

    A: float = 8.0
    a: float = 0.15
    eps: float = 0.2
    M_scalar: float = 1.0

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"A must be positive, got {self.A}")
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must lie in (0, 1), got {self.a}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.M_scalar > 0:
            raise ValueError(f"M_scalar must be positive, got {self.M_scalar}")

    @property
    def recovery_cap(self):
        """Upper bound A (1+a)^2 / 4 of the invariant region for w."""
        return self.A * (1.0 + self.a) ** 2 / 4.0


@dataclass(frozen=True)
class ReactionEval:
    """f, g and the four partials at one point (or arrays of points)."""

    f: np.ndarray
    g: np.ndarray
    f_u: np.ndarray
    f_w: np.ndarray
    g_u: np.ndarray
    g_w: np.ndarray


def f_value(u, w, p):
    return p.A * u * (u - p.a) * (u - 1.0) + u * w


def g_value(u, w, p):
    return p.eps * (p.A * u * (u - 1.0 - p.a) + w)


def f_du(u, w, p):
    return p.A * (3.0 * u * u - 2.0 * (1.0 + p.a) * u + p.a) + w


def g_du(u, w, p):
    return p.eps * p.A * (2.0 * u - 1.0 - p.a)


def g_dw(u, w, p):
    return np.full_like(np.asarray(u, dtype=float), p.eps)


def react(u, w, p):
    """Evaluate f, g and their Jacobian entries at (u, w)."""
    u, w = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(w, dtype=float))
    return ReactionEval(
        f=f_value(u, w, p),
        g=g_value(u, w, p),
        f_u=f_du(u, w, p),
        f_w=u,
        g_u=g_du(u, w, p),
        g_w=g_dw(u, w, p),
    )


def recovery_jacobian(p):
    """(s, c, g_w): the partials of g are g_u = s u + c and the constant
    g_w, with s = 2 eps A, c = -eps A (1 + a) and g_w = eps."""
    return 2.0 * p.eps * p.A, -p.eps * p.A * (1.0 + p.a), p.eps


def newton_load(u, w, p):
    """Reaction weights of the Newton right-hand side linearized at
    (u, w): f_u u + f_w w - f = A u^2 (2u - 1 - a) + u w and
    g_u u + g_w w - g = eps A u^2."""
    u2 = u * u
    load_f = (2.0 * u - (1.0 + p.a)) * u2
    load_f *= p.A
    load_f += u * w
    u2 *= p.eps * p.A
    return load_f, u2


def initial_data(x, y):
    """Initial excitation: a Gaussian bump peaked at (1, 0) and zero
    recovery.

    u0 = exp(-((x-1)^2 + y^2) / 0.25), w0 = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u0 = np.exp(-((x - 1.0) ** 2 + y ** 2) / 0.25)
    return u0, np.zeros_like(u0)


def initial_pair(initial=None):
    """The (u0, w0) callables of a run: `initial` when given, otherwise
    the two components of :func:`initial_data`."""
    if initial is not None:
        return initial
    # w0 is zero: its callable does not evaluate the Gaussian again
    return (lambda x, y: initial_data(x, y)[0],
            lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x),
                                                      np.shape(y))))

