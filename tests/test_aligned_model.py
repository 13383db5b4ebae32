import numpy as np
import pytest

from aplab.aligned import (
    AlignedModel,
    exact_aligned,
    ic_two_mode,
    limit_aligned,
    y_average,
)
from aplab.grid import make_grid2d, sample


def torus_grid(n=201):
    return make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, n, n)


def test_model_validation():
    AlignedModel(a=0.0, b=1.0, eps=1.0)
    with pytest.raises(ValueError):
        AlignedModel(a=-0.1, b=1.0, eps=1.0)
    with pytest.raises(ValueError):
        AlignedModel(a=0.1, b=0.0, eps=1.0)
    with pytest.raises(ValueError):
        AlignedModel(a=0.1, b=1.0, eps=-1e-6)


def test_exact_at_t_zero_is_initial_sample():
    g = torus_grid(41)
    m = AlignedModel(a=0.1, b=1.0, eps=1.0)
    f = exact_aligned(m, 0.0, g)
    f0 = sample(g, ic_two_mode)
    assert np.allclose(f.values, f0.values, rtol=0.0, atol=1e-15)


def test_exact_closed_form_at_unit_time():
    g = torus_grid(101)
    m = AlignedModel(a=0.1, b=1.0, eps=1.0)
    f = exact_aligned(m, 1.0, g)
    x = g.x_nodes()[:, None]
    y = g.y_nodes()[None, :]
    ref = np.sin(x - 0.1) * (np.cos(2.0 * (y - 1.0)) + 1.0)
    assert np.max(np.abs(f.values - ref)) <= 1e-12


def test_exact_y_period_drops_out():
    # t = pi*eps shifts y by exactly pi, which the cos(2y) factor cannot see
    g = torus_grid(64)
    eps = 0.5
    m = AlignedModel(a=0.1, b=1.0, eps=eps)
    t = np.pi * eps
    f = exact_aligned(m, t, g)
    x = g.x_nodes()[:, None]
    y = g.y_nodes()[None, :]
    ref = np.sin(x - 0.1 * t) * (np.cos(2.0 * y) + 1.0)
    assert np.max(np.abs(f.values - ref)) <= 1e-12


def test_exact_rejects_eps_zero():
    g = torus_grid(11)
    m = AlignedModel(a=0.1, b=1.0, eps=0.0)
    with pytest.raises(ValueError):
        exact_aligned(m, 1.0, g)


def test_exact_small_eps_stays_bounded():
    g = torus_grid(33)
    m = AlignedModel(a=0.1, b=1.0, eps=1e-10)
    f = exact_aligned(m, 0.7, g)
    assert np.max(np.abs(f.values)) <= 2.0 + 1e-12


def test_y_average_constant():
    g = torus_grid(17)
    f = sample(g, lambda x, y: 4.5 + 0.0 * x)
    assert np.allclose(y_average(f), 4.5, rtol=0.0, atol=0.0)


def test_y_average_two_mode_is_sine():
    g = torus_grid(201)
    f = sample(g, ic_two_mode)
    assert np.max(np.abs(y_average(f) - np.sin(g.x_nodes()))) <= 1e-12


def test_y_average_pure_cosine_vanishes():
    g = torus_grid(201)
    f = sample(g, lambda x, y: np.cos(2.0 * y) + 0.0 * x)
    assert np.max(np.abs(y_average(f))) <= 1e-12


def test_limit_at_t_zero():
    g = torus_grid(51)
    m = AlignedModel(a=0.1, b=1.0, eps=1.0)
    assert np.allclose(limit_aligned(m, 0.0, g),
                       y_average(sample(g, ic_two_mode)), rtol=0.0, atol=1e-14)


def test_limit_closed_form():
    g = torus_grid(101)
    m = AlignedModel(a=0.1, b=1.0, eps=1e-3)
    lim = limit_aligned(m, 1.0, g)
    assert np.max(np.abs(lim - np.sin(g.x_nodes() - 0.1))) <= 1e-12


def test_limit_of_y_independent_profile():
    g = torus_grid(101)
    m = AlignedModel(a=0.3, b=1.0, eps=1.0, f_in=lambda x, y: np.sin(x) + 0.0 * y)
    lim = limit_aligned(m, 0.8, g)
    assert np.max(np.abs(lim - np.sin(g.x_nodes() - 0.3 * 0.8))) <= 1e-12


@pytest.mark.parametrize("eps,t", [(1.0, 0.83), (0.37, 1.7), (1e-6, 0.5)])
def test_average_of_exact_equals_limit(eps, t):
    g = torus_grid(101)
    m = AlignedModel(a=0.1, b=1.0, eps=eps)
    avg = y_average(exact_aligned(m, t, g))
    lim = limit_aligned(m, t, g)
    assert np.max(np.abs(avg - lim)) <= 1e-12


def test_exact_quasi_periodic_in_t():
    # advancing t by L_y*eps/b re-wraps the fast phase completely; only the
    # slow x-shift remembers the extra time
    g = torus_grid(64)
    eps, t = 0.25, 0.4
    m = AlignedModel(a=0.1, b=1.0, eps=eps)
    period = g.ly * eps / m.b
    f = exact_aligned(m, t + period, g)
    x = g.x_nodes()[:, None]
    y = g.y_nodes()[None, :]
    ref = np.sin(x - m.a * (t + period)) * (np.cos(2.0 * (y - m.b * t / eps)) + 1.0)
    assert np.max(np.abs(f.values - ref)) <= 1e-12
