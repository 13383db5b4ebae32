"""Rotation model: exact solution, stationarity, circle averages."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aplab.grid import make_grid2d, sample
from aplab.rotating import (RotatingModel, circle_average, exact_rotating,
                            ic_gaussian, rotate)


def ic_shifted(x, y):
    # not radial, so rotation actually moves it; negligible at the boundary
    return np.exp(-2.0 * ((x - 1.0) ** 2 + y * y))


def test_ic_gaussian_center_and_radial():
    assert ic_gaussian(0.0, 0.0) == 1.0
    assert ic_gaussian(0.3, 0.4) == pytest.approx(ic_gaussian(0.5, 0.0), abs=1e-15)


def test_model_validation():
    RotatingModel(0.0)
    RotatingModel(1.0)
    with pytest.raises(ValueError):
        RotatingModel(-1e-9)
    with pytest.raises(ValueError):
        RotatingModel(float("inf"))
    assert RotatingModel(1.0).f_in is ic_gaussian


def test_rotate_basic():
    x, y = rotate(1.0, 0.0, 0.0)
    assert (x, y) == (1.0, 0.0)
    x, y = rotate(1.0, 0.0, np.pi / 2.0)
    # counterclockwise quarter turn
    assert abs(x) < 1e-15 and y == pytest.approx(1.0, abs=1e-15)
    xs, ys = rotate(np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.pi)
    assert np.allclose(xs, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(ys, [0.0, -2.0], atol=1e-12)


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-20, 20))
def test_rotate_round_trip(x, y, angle):
    xr, yr = rotate(*rotate(x, y, angle), -angle)
    assert abs(xr - x) <= 1e-13 and abs(yr - y) <= 1e-13


def test_exact_t0_is_initial_data():
    g = make_grid2d(-3, 3, -3, 3, 40, 40)
    m = RotatingModel(0.7, ic_shifted)
    f = exact_rotating(m, 0.0, g)
    assert np.array_equal(f.values, sample(g, ic_shifted).values)


@pytest.mark.parametrize("eps,t", [(1.0, 0.33), (1e-3, 0.5), (0.2, 7.0)])
def test_exact_radial_data_is_stationary(eps, t):
    g = make_grid2d(-3, 3, -3, 3, 40, 40)
    m = RotatingModel(eps)
    f = exact_rotating(m, t, g)
    assert np.allclose(f.values, sample(g, ic_gaussian).values, atol=1e-13)


@pytest.mark.parametrize("eps,tol", [(0.5, 1e-12), (1e-3, 1e-10)])
def test_exact_period_two_pi_eps(eps, tol):
    g = make_grid2d(-3, 3, -3, 3, 40, 40)
    m = RotatingModel(eps, ic_shifted)
    f = exact_rotating(m, 2.0 * np.pi * eps, g)
    assert np.max(np.abs(f.values - sample(g, ic_shifted).values)) <= tol


def test_exact_rejects_eps_zero():
    g = make_grid2d(-3, 3, -3, 3, 16, 16)
    with pytest.raises(ValueError, match="eps > 0"):
        exact_rotating(RotatingModel(0.0), 0.1, g)


def test_exact_quarter_turn_permutes_nodes():
    # angle pi/2 maps the symmetric periodic node set onto itself:
    # f(x_i, y_j) = f_in(-y_j, x_i), so the field is a permutation of the
    # initial samples and the discrete max is preserved. Needs data that is
    # negligible at the boundary, where the node identification wraps.
    def bump(x, y):
        return np.exp(-8.0 * ((x - 0.5) ** 2 + y * y))

    g = make_grid2d(-3, 3, -3, 3, 40, 40)
    m = RotatingModel(1.0, bump)
    f = exact_rotating(m, np.pi / 2.0, g)
    f0 = sample(g, bump).values
    n = g.nx - 1
    perm = np.empty_like(f0)
    for j in range(n):
        perm[:, j] = f0[(-j) % n, :]
    assert np.allclose(f.values, perm, atol=1e-12)
    assert np.max(f.values) == pytest.approx(np.max(f0), abs=1e-12)


def test_circle_average_constant():
    g = make_grid2d(-3, 3, -3, 3, 20, 20)
    f = sample(g, lambda x, y: 2.5 + 0.0 * x)
    assert circle_average(f, 1.3) == pytest.approx(2.5, abs=1e-14)


def test_circle_average_odd_function_vanishes():
    g = make_grid2d(-3, 3, -3, 3, 40, 40)
    f = sample(g, lambda x, y: x + 0.0 * y)
    assert abs(circle_average(f, 1.0)) <= 1e-13


@pytest.mark.parametrize("n,bound", [(41, 3e-3), (81, 7e-4), (161, 2e-4)])
def test_circle_average_gaussian_interpolation_error(n, bound):
    # exact value on the unit circle is e^{-2}; bilinear error is O(dx^2)
    g = make_grid2d(-3, 3, -3, 3, n, n)
    f = sample(g, ic_gaussian)
    assert abs(circle_average(f, 1.0) - np.exp(-2.0)) <= bound


def test_circle_average_validation():
    g = make_grid2d(-3, 3, -3, 3, 20, 20)
    f = sample(g, ic_gaussian)
    with pytest.raises(ValueError, match="radius"):
        circle_average(f, -0.5)
    with pytest.raises(ValueError, match="outside"):
        circle_average(f, 3.5)


def test_exact_flow_conserves_circle_averages():
    g = make_grid2d(-3, 3, -3, 3, 161, 161)
    m = RotatingModel(0.3, ic_shifted)
    vals = [circle_average(exact_rotating(m, t, g), 1.5)
            for t in (0.0, 0.1, 0.7, 2.0)]
    assert max(vals) - min(vals) <= 1e-3


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.0, 5.0))
def test_exact_preserves_value_range(eps, t):
    # rotation only relocates samples of f_in, all of which lie in (0, 1]
    g = make_grid2d(-3, 3, -3, 3, 24, 24)
    f = exact_rotating(RotatingModel(eps, ic_shifted), t, g)
    assert np.all(f.values > 0.0) and np.all(f.values <= 1.0)
