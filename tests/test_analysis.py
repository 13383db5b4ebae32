"""Error metrics, slope fitting, amplification factors, condition sweeps."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aplab.aligned import AlignedModel, exact_aligned, ic_two_mode, limit_aligned
from aplab.aligned_schemes import AlignedScheme, AlignedSchemeConfig, run_aligned
from aplab.analysis import (
    amplification_factors,
    cond_family_aligned,
    cond_family_rotating,
    cond_sweep,
    error_eta,
    error_gamma,
    fit_loglog_slope,
    xi_imex,
)
from aplab.grid import Field2D, make_grid2d, sample
from aplab.linalg import CyclicTridiag, cond2
from aplab.rotating_schemes import assemble_imp, assemble_lagrange_rot

GRID64 = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 64, 64)


def imex_cfg(a=0.1, b=1.0, dt=0.01, eps=1.0, grid=GRID64):
    model = AlignedModel(a=a, b=b, eps=eps, f_in=ic_two_mode)
    return AlignedSchemeConfig(model, grid, dt, "imex")


def test_convergence_table_validation():
    fit_loglog_slope([1.0, 0.5, 0.25], [3.0, 1.5, 0.75])
    with pytest.raises(ValueError, match="decreasing"):
        fit_loglog_slope([1.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="decreasing"):
        fit_loglog_slope([0.25, 0.5, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope([1.0, 0.5, 0.25], [1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        fit_loglog_slope([1.0, 0.5, 0.25], [1.0, np.inf, 1.0])
    with pytest.raises(ValueError, match="finite"):
        fit_loglog_slope([1.0, 0.5, 0.25], [1.0, np.nan, 1.0])
    for steps in ([1.0, 0.5, 0.0], [np.inf, 1.0, 0.5], [1.0, 0.5, -0.5], [np.nan, 1.0, 0.5]):
        with pytest.raises(ValueError, match="step_sizes must be positive and finite"):
            fit_loglog_slope(steps, [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="1-d"):
        fit_loglog_slope([1.0, 0.5], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="1-d"):
        fit_loglog_slope([[1.0, 0.5, 0.25]], [[1.0, 0.5, 0.25]])


def test_error_eta_basics():
    g = make_grid2d(0, 2 * np.pi, 0, 2 * np.pi, 9, 9)
    f = sample(g, ic_two_mode)
    assert error_eta(f, f) == 0.0
    bumped = f.values.copy()
    bumped[3, 4] += 0.25
    assert error_eta(f.with_values(bumped), f) == pytest.approx(0.25, abs=1e-15)
    other = sample(make_grid2d(0, 2 * np.pi, 0, 2 * np.pi, 11, 9), ic_two_mode)
    with pytest.raises(ValueError, match="grids"):
        error_eta(f, other)


def test_error_eta_decreases_with_resolution():
    etas = {}
    for n in (51, 101):
        cfg = imex_cfg(grid=make_grid2d(0, 2 * np.pi, 0, 2 * np.pi, n, n),
                       dt=1.0 / (n - 1))
        r = run_aligned(cfg, n - 1)
        t, f = r.snapshots[-1]
        etas[n] = error_eta(f, exact_aligned(cfg.model, t, cfg.grid))
    assert 0.0 < etas[101] < etas[51]


def test_error_gamma_basics():
    g = make_grid2d(0, 2 * np.pi, 0, 2 * np.pi, 17, 41)
    profile = np.cos(g.x_nodes())
    flat = Field2D(g, np.broadcast_to(profile[:, None], (16, 40)).copy())
    assert error_gamma(flat, profile) == 0.0
    wavy = flat.with_values(flat.values + np.cos(2.0 * g.y_nodes())[None, :])
    # the y-grid contains y = 0, where cos(2y) attains its maximum
    assert error_gamma(wavy, profile) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="profile"):
        error_gamma(flat, profile[:-1])


def test_error_gamma_orders_with_eps():
    gammas = {}
    for eps in (1.0, 1e-10):
        cfg = imex_cfg(eps=eps, grid=make_grid2d(0, 2 * np.pi, 0, 2 * np.pi, 65, 65))
        r = run_aligned(cfg, 20)
        t, f = r.snapshots[-1]
        gammas[eps] = error_gamma(f, limit_aligned(cfg.model, t, cfg.grid))
    assert gammas[1e-10] < gammas[1.0] / 3.0


def test_error_eta_triangle_inequality():
    g = make_grid2d(0, 2 * np.pi, 0, 2 * np.pi, 12, 12)
    rng = np.random.default_rng(5)
    f, h, k = (Field2D(g, rng.standard_normal((11, 11))) for _ in range(3))
    assert error_eta(f, k) <= error_eta(f, h) + error_eta(h, k) + 1e-15


def test_fit_slope_exact_powers():
    h = np.array([1.0, 0.5, 0.25])
    slope, window = fit_loglog_slope(h, 0.7 * h)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert window == (0, 3)
    slope2, _ = fit_loglog_slope(h, 0.7 * h ** 2)
    assert slope2 == pytest.approx(2.0, abs=1e-12)


def test_fit_slope_needs_three_points():
    with pytest.raises(ValueError, match="3 points"):
        fit_loglog_slope([1.0, 0.5], [1.0, 0.5])


def test_fit_slope_flat_data():
    slope, _ = fit_loglog_slope(np.logspace(0, -2, 7), np.full(7, 0.3))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_trims_saturated_tail():
    h = np.logspace(0, -2, 9)
    slope, window = fit_loglog_slope(h, np.maximum(0.3 * h, 0.008))
    assert slope == pytest.approx(1.0, abs=1e-6)
    assert window == (0, 7)


@given(st.floats(1e-6, 1e6))
def test_fit_slope_scale_invariant(c):
    h = np.array([1.0, 0.4, 0.2, 0.09])
    e = np.array([2.0, 0.9, 0.5, 0.21])
    s1, _ = fit_loglog_slope(h, e)
    s2, _ = fit_loglog_slope(h, c * e)
    assert s1 == pytest.approx(s2, abs=1e-10)


def test_xi_imex_closed_form_limits():
    assert xi_imex(0.5, 2.0, 0.3, 0, 0, 0.1, 0.1) == 1.0
    for k in (1, 5, 17):
        assert xi_imex(1.0, 2.0, 0.3, k, 0, 0.1, 0.1) == pytest.approx(1.0, abs=1e-14)
    # stiff direction kills the mode as eps -> 0
    assert xi_imex(0.5, 1.0, 1e-12, 3, 2, 0.1, 0.1) <= 1e-10
    assert xi_imex(0.5, 1.0, 0.3, 4, 2, 0.1, 0.1) == xi_imex(0.5, 1.0, 0.3, -4, 2, 0.1, 0.1)


def closed_form_symbol(cfg):
    """Complex one-step symbol of ``cfg.scheme`` at every mode, indexed as
    ``amplification_factors`` indexes it: the upwind factor 1 - alpha (1 - e^{-i phi})
    times eps / (eps + beta (1 - e^{-i theta})) for the IMEX family, and times
    1 / (1 + i l b dt / eps) for Fourier, whose real FFT keeps only the real part
    of that at the Nyquist mode of an even ny - 1. At eps = 0 every scheme keeps
    only the column means."""
    g, eps = cfg.grid, cfg.model.eps
    k = np.fft.fftfreq(g.nx - 1, 1.0 / (g.nx - 1))[:, None]
    l = np.fft.fftfreq(g.ny - 1, 1.0 / (g.ny - 1))[None, :]
    upwind = 1.0 - cfg.alpha * (1.0 - np.exp(-1j * k * g.dx))
    if eps == 0.0:
        return upwind * (l == 0)
    if cfg.scheme is AlignedScheme.FOURIER:
        y = 1.0 / (1.0 + 1j * l * cfg.model.b * cfg.dt / eps)
        return upwind * np.where(2 * np.abs(l) == g.ny - 1, y.real, y)
    return upwind * eps / (eps + cfg.beta * (1.0 - np.exp(-1j * l * g.dy)))


# (nx, ny, a, b, dt): a non-square grid with even nx - 1 and ny - 1, whose
# Nyquist modes the Fourier scheme treats apart, and a 64 x 64 one with odd ones
SYMBOL_GRIDS = {"65x33": (65, 33, 2.5, 3.0, 0.02), "64x64": (64, 64, 0.1, 1.0, 0.01)}
SYMBOL_CASES = [pytest.param(shape, scheme, eps, id=f"{shape}-{scheme.value}-eps{eps:g}")
                for shape in SYMBOL_GRIDS for scheme in AlignedScheme
                for eps in (1.0, 1e-3, 0.0)
                if not (scheme is AlignedScheme.IMEX and eps == 0.0)]  # singular there


@pytest.mark.parametrize("shape,scheme,eps", SYMBOL_CASES)
def test_amplification_factors_match_symbol(shape, scheme, eps):
    nx, ny, a, b, dt = SYMBOL_GRIDS[shape]
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, nx, ny)
    cfg = AlignedSchemeConfig(AlignedModel(a=a, b=b, eps=eps, f_in=ic_two_mode), grid, dt,
                              scheme)
    xi = amplification_factors(cfg)
    assert xi.shape == (nx - 1, ny - 1)
    assert np.max(np.abs(xi - closed_form_symbol(cfg))) <= 1e-12


@pytest.mark.parametrize("scheme", list(AlignedScheme))
@pytest.mark.parametrize("eps", [1.0, 1e-3])
def test_n_steps_follow_the_symbol_on_every_mode(scheme, eps):
    # 1,000 steps of a seeded field against xi^N on every mode of a 17 x 17
    # grid. alpha = 0.99 and beta = 1e-4 keep 112 of the 256 modes above
    # 1e-3 of their start after N steps at eps = 1, and 7 at eps = 1e-3 (for
    # imex). The steps also run every work buffer a stepper reuses 1,000 times
    n_steps = 1000
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 17, 17)
    dt = 0.99 * grid.dx
    f0 = np.random.default_rng(17).standard_normal((16, 16))
    model = AlignedModel(a=1.0, b=1e-4 * grid.dy / dt, eps=eps, f_in=lambda x, y: f0)
    cfg = AlignedSchemeConfig(model, grid, dt, scheme)
    final = run_aligned(cfg, n_steps).snapshots[-1][1].values
    expected = np.fft.ifft2(amplification_factors(cfg) ** n_steps * np.fft.fft2(f0))
    # about N u of rounding from the steps and as much from xi^N
    tol = 10 * n_steps * np.finfo(float).eps * np.max(np.abs(f0))
    assert np.max(np.abs(expected.imag)) <= tol
    assert np.max(np.abs(final - expected.real)) <= tol


def test_cond_sweep_identity_family():
    fam = lambda e: CyclicTridiag(8, 1.0, 0.0).to_sparse()
    out = cond_sweep(fam, [1.0, 0.1])
    assert [c for _, c in out] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_cond_sweep_continues_past_singular_entries():
    # d = 1, s = -1 on n = 6 has the exact eigenvalue 1 - 2 cos(pi/3) = 0
    fam = lambda e: CyclicTridiag(6, e, -1.0).to_sparse()
    out = cond_sweep(fam, [2.0, 1.0, 4.0])
    assert out[0][1] == pytest.approx(3.0, rel=1e-5)
    assert np.isnan(out[1][1])
    assert np.isfinite(out[2][1])


@pytest.mark.parametrize("m", [2, 8, 63])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_micro_macro_family_has_the_zero_mean_spectrum(m, beta):
    # the cyclic matrix is a normal circulant and the zero-mean subspace is
    # invariant, so restricting it to an orthonormal zero-sum basis keeps the
    # singular values |eps + beta - beta e^{-2 pi i k/m}| of modes k = 1 .. m-1
    k = np.arange(1, m)
    for eps in (1.0, 1e-3, 0.0):
        A = cond_family_aligned("micro-macro", m, beta)(eps).toarray()
        assert A.shape == (m - 1, m - 1)
        sv = np.sort(np.linalg.svd(A, compute_uv=False))
        exact = np.sort(np.abs(eps + beta - beta * np.exp(-2j * np.pi * k / m)))
        assert np.max(np.abs(sv - exact) / exact) <= 1e-13, (m, beta, eps)


def test_cond_family_aligned_imex_matches_cyclic():
    fam = cond_family_aligned("imex", 8, 2.0)
    A = fam(0.3).toarray()
    B = CyclicTridiag(8, 2.3, -2.0).to_dense()
    assert np.max(np.abs(A - B)) <= 1e-15


def test_cond_family_aligned_micromacro_regular_at_zero():
    fam = cond_family_aligned("micro-macro", 8, 2.0)
    M = fam(0.0)
    assert M.shape == (7, 7)
    assert np.isfinite(cond2(M))


def test_cond_family_aligned_lagrange_regular_at_zero():
    fam = cond_family_aligned("lagrange", 8, 2.0)
    M = fam(0.0)
    assert M.shape == (16, 16)
    assert np.isfinite(cond2(M))


def test_cond_family_aligned_rejects_fourier():
    with pytest.raises(ValueError, match="no linear system"):
        cond_family_aligned("fourier", 8, 2.0)


def test_cond_family_rotating_matches_assembly():
    g = make_grid2d(-3, 3, -3, 3, 8, 8)
    fam = cond_family_rotating("imp", g, 0.05)
    assert abs(fam(0.25) - assemble_imp(g, 0.25, 0.05)).max() == 0.0
    fam = cond_family_rotating("lagrange", g, 0.05, gamma=0.8)
    assert abs(fam(0.1) - assemble_lagrange_rot(g, 0.1, 0.05, 0.8)).max() == 0.0
