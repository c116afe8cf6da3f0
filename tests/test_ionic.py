import numpy as np
import pytest

from monofem.ionic import (AlievPanfilovParams, initial_data, newton_load,
                           react, recovery_jacobian)


def test_paper_parameter_defaults(params):
    assert (params.A, params.a, params.eps, params.M_scalar) == \
        (8.0, 0.15, 0.2, 1.0)
    assert params.recovery_cap == pytest.approx(8.0 * 1.15 ** 2 / 4.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        AlievPanfilovParams(A=0.0)
    with pytest.raises(ValueError):
        AlievPanfilovParams(a=1.0)
    with pytest.raises(ValueError):
        AlievPanfilovParams(a=-0.1)
    with pytest.raises(ValueError):
        AlievPanfilovParams(eps=0.0)
    with pytest.raises(ValueError):
        AlievPanfilovParams(M_scalar=-1.0)


def test_zero_conductivity_rejected():
    # the conductivity tensor M_scalar I is positive definite exactly when
    # M_scalar > 0; the parameters are its one home, so they refuse 0
    with pytest.raises(ValueError, match="M_scalar must be positive"):
        AlievPanfilovParams(M_scalar=0.0)


def test_reaction_values_at_rest_state(params):
    r = react(0.0, 0.0, params)
    assert r.f == 0.0
    assert r.g == 0.0


def test_reaction_values_at_excited_state(params):
    r = react(1.0, 0.0, params)
    assert r.f == pytest.approx(0.0, abs=1e-15)
    assert r.g == pytest.approx(-0.24, rel=1e-14)


def test_reaction_values_midrange(params):
    r = react(0.5, 0.2, params)
    assert r.f == pytest.approx(-0.6, rel=1e-14)
    assert r.g == pytest.approx(-0.48, rel=1e-14)


def test_jacobian_values(params):
    r = react(0.0, 0.0, params)
    assert r.f_u == pytest.approx(1.2, rel=1e-14)       # A a
    assert r.g_u == pytest.approx(-1.84, rel=1e-14)     # eps A (-1-a)
    assert r.g_w == pytest.approx(0.2, rel=1e-15)
    r = react(0.7, 1.3, params)
    assert r.f_w == pytest.approx(0.7)
    assert r.g_w == pytest.approx(0.2)


def test_cubic_roots_of_f(params):
    for u in (0.0, params.a, 1.0):
        assert react(u, 0.0, params).f == pytest.approx(0.0, abs=1e-15)


def test_jacobian_matches_finite_differences(params):
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        u = rng.uniform(-0.5, 1.5)
        w = rng.uniform(-0.5, 2.5)
        r = react(u, w, params)
        fd_fu = (react(u + h, w, params).f - react(u - h, w, params).f) \
            / (2 * h)
        fd_fw = (react(u, w + h, params).f - react(u, w - h, params).f) \
            / (2 * h)
        fd_gu = (react(u + h, w, params).g - react(u - h, w, params).g) \
            / (2 * h)
        fd_gw = (react(u, w + h, params).g - react(u, w - h, params).g) \
            / (2 * h)
        scale = max(1.0, abs(r.f_u), abs(r.f_w), abs(r.g_u), abs(r.g_w))
        assert abs(fd_fu - r.f_u) <= 1e-6 * scale
        assert abs(fd_fw - r.f_w) <= 1e-6 * scale
        assert abs(fd_gu - r.g_u) <= 1e-6 * scale
        assert abs(fd_gw - r.g_w) <= 1e-6 * scale


def test_react_is_vectorized(params):
    u = np.linspace(-0.5, 1.5, 7).reshape(7, 1)
    w = np.linspace(-0.5, 2.5, 5).reshape(1, 5)
    r = react(u, w, params)
    assert r.f.shape == (7, 5)
    assert r.g_w.shape == (7, 5)
    scalar = react(float(u[3, 0]), float(w[0, 2]), params)
    assert r.f[3, 2] == pytest.approx(float(scalar.f))


def test_initial_data_values():
    u0, w0 = initial_data(1.0, 0.0)
    assert u0 == pytest.approx(1.0)
    assert w0 == 0.0
    u0, _ = initial_data(0.0, 0.0)
    assert u0 == pytest.approx(np.exp(-4.0), rel=1e-14)
    u0, _ = initial_data(1.0, 1.0)
    assert u0 == pytest.approx(np.exp(-4.0), rel=1e-14)


def test_initial_data_vectorized():
    x = np.array([0.0, 1.0, 0.5])
    y = np.array([0.0, 0.0, 0.5])
    u0, w0 = initial_data(x, y)
    assert u0.shape == (3,)
    assert np.all(w0 == 0.0)
    assert u0[1] == pytest.approx(1.0)


@pytest.mark.parametrize("p", [AlievPanfilovParams(),
                               AlievPanfilovParams(A=5.0, a=0.3, eps=0.05)])
def test_reduced_newton_weights_match_react(p):
    # the Newton system needs g_u = s u + c, the constant g_w and the
    # right-hand side weights f_u u + f_w w - f and g_u u + g_w w - g
    rng = np.random.default_rng(8)
    u, w = rng.uniform(-0.2, 1.2, (2, 5, 6))
    r = react(u, w, p)
    s, c, g_w = recovery_jacobian(p)
    assert np.abs(s * u + c - r.g_u).max() <= 1e-14
    assert np.all(r.g_w == g_w)
    load_f, load_g = newton_load(u, w, p)
    assert np.abs(load_f - (r.f_u * u + r.f_w * w - r.f)).max() <= 1e-13
    assert np.abs(load_g - (r.g_u * u + r.g_w * w - r.g)).max() <= 1e-14
    assert np.array_equal(r.f_w, u)
