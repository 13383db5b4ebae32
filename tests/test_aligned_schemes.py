import numpy as np
import pytest

from aplab.aligned import AlignedModel, ic_constant, ic_two_mode, y_average
from aplab.aligned_schemes import (
    AlignedScheme,
    AlignedSchemeConfig,
    FourierStepper,
    ImexStepper,
    LagrangeAlignedStepper,
    LagrangeState,
    MicroMacroState,
    MicroMacroStepper,
    run_aligned,
    upwind_x,
)
from aplab.grid import make_grid2d, sample
from aplab.linalg import SingularMatrixError, dft_wavenumbers, dft_y


def make_cfg(scheme, eps, a=0.1, b=1.0, dt=0.01, nx=33, ny=33, f_in=ic_two_mode):
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, nx, ny)
    model = AlignedModel(a=a, b=b, eps=eps, f_in=f_in)
    return AlignedSchemeConfig(model, grid, dt, scheme)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(AlignedScheme.IMEX, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        make_cfg(AlignedScheme.IMEX, 1.0, dt=-0.1)


def test_config_accepts_scheme_string():
    cfg = make_cfg("fourier", 1.0)
    assert cfg.scheme is AlignedScheme.FOURIER


def test_config_derived_ratios():
    cfg = make_cfg(AlignedScheme.IMEX, 1.0, a=2.0, b=3.0, dt=0.5, nx=33, ny=17)
    assert cfg.alpha == pytest.approx(2.0 * 0.5 / cfg.grid.dx)
    assert cfg.beta == pytest.approx(3.0 * 0.5 / cfg.grid.dy)


def test_upwind_x_shift_at_unit_ratio():
    vals = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(upwind_x(vals, 1.0), np.roll(vals, 1, axis=0))
    assert np.array_equal(upwind_x(vals, 0.0), vals)


def test_upwind_x_matches_roll_form():
    rng = np.random.default_rng(5)
    for vals in (rng.standard_normal((6, 4)), rng.standard_normal(1), np.arange(5),
                 rng.standard_normal(5) + 1j * rng.standard_normal(5)):
        ref = vals - 0.37 * (vals - np.roll(vals, 1, axis=0))
        assert upwind_x(vals, 0.37).tobytes() == ref.tobytes()


def test_imex_constants_fixed():
    cfg = make_cfg(AlignedScheme.IMEX, 0.8, f_in=ic_constant(2.5))
    f0 = sample(cfg.grid, cfg.model.f_in)
    f1 = ImexStepper(cfg).step(f0)[0]
    assert np.max(np.abs(f1.values - 2.5)) <= 1e-13
    assert f1.time == pytest.approx(cfg.dt)


def test_imex_huge_eps_is_explicit_upwind():
    # alpha = 1 makes the explicit part an exact one-cell shift; the
    # implicit part collapses as eps -> infinity
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 65, 33)
    model = AlignedModel(a=1.0, b=1.0, eps=1e12)
    cfg = AlignedSchemeConfig(model, grid, grid.dx, AlignedScheme.IMEX)
    assert cfg.alpha == pytest.approx(1.0)
    f0 = sample(grid, ic_two_mode)
    f1 = ImexStepper(cfg).step(f0)[0]
    assert np.max(np.abs(f1.values - np.roll(f0.values, 1, axis=0))) <= 1e-9


def test_imex_plane_wave_amplification():
    cfg = make_cfg(AlignedScheme.IMEX, 0.7, a=2.5, b=3.0, dt=0.02, nx=65, ny=33)
    k, l = 3, 2
    phase = lambda x, y: k * x + l * y
    f_cos = sample(cfg.grid, lambda x, y: np.cos(phase(x, y)))
    f_sin = sample(cfg.grid, lambda x, y: np.sin(phase(x, y)))
    stepper = ImexStepper(cfg)
    W1 = stepper.step(f_cos)[0].values + 1j * stepper.step(f_sin)[0].values
    alpha, beta, eps = cfg.alpha, cfg.beta, cfg.model.eps
    num = 1.0 - 4.0 * alpha * (1.0 - alpha) * np.sin(k * cfg.grid.dx / 2.0) ** 2
    den = eps ** 2 + 4.0 * beta * (eps + beta) * np.sin(l * cfg.grid.dy / 2.0) ** 2
    xi = eps * np.sqrt(num / den)
    assert np.max(np.abs(np.abs(W1) - xi)) <= 1e-10


def test_imex_mass_conserved():
    for eps in (1.0, 1e-4):
        cfg = make_cfg(AlignedScheme.IMEX, eps)
        f0 = sample(cfg.grid, ic_two_mode)
        f1 = ImexStepper(cfg).step(f0)[0]
        scale = max(1.0, abs(f0.values.sum()))
        assert abs(f1.values.sum() - f0.values.sum()) <= 1e-12 * scale


def test_imex_singular_at_eps_zero():
    cfg = make_cfg(AlignedScheme.IMEX, 0.0)
    f0 = sample(cfg.grid, ic_two_mode)
    with pytest.raises(SingularMatrixError):
        ImexStepper(cfg).step(f0)[0]


def test_fourier_y_independent_reduces_to_upwind():
    cfg = make_cfg(AlignedScheme.FOURIER, 1.0, f_in=lambda x, y: np.sin(x) + 0.0 * y)
    f0 = sample(cfg.grid, cfg.model.f_in)
    f1 = FourierStepper(cfg).step(f0)[0]
    assert np.max(np.abs(f1.values - upwind_x(f0.values, cfg.alpha))) <= 1e-12


def test_fourier_eps_zero_projects_to_mean():
    cfg = make_cfg(AlignedScheme.FOURIER, 0.0, a=0.0)
    f0 = sample(cfg.grid, ic_two_mode)
    f1 = FourierStepper(cfg).step(f0)[0]
    ref = np.repeat(y_average(f0)[:, None], cfg.grid.ny - 1, axis=1)
    assert np.max(np.abs(f1.values - ref)) <= 1e-12


def test_fourier_mode_damping_factor():
    cfg = make_cfg(AlignedScheme.FOURIER, 1.0, a=0.0, dt=10.0 / 500.0,
                   f_in=lambda x, y: np.cos(2.0 * y) + 0.0 * x)
    f0 = sample(cfg.grid, cfg.model.f_in)
    f1 = FourierStepper(cfg).step(f0)[0]
    ks = dft_wavenumbers(cfg.grid.ny - 1)
    c0 = dft_y(f0.values[0])
    c1 = dft_y(f1.values[0])
    ratio = abs(c1[ks == 2][0]) / abs(c0[ks == 2][0])
    assert ratio == pytest.approx(1.0 / abs(1.0 + 2j * cfg.dt), abs=1e-12)


def test_fourier_mass_conserved():
    for eps in (1.0, 1e-4, 0.0):
        cfg = make_cfg(AlignedScheme.FOURIER, eps)
        f0 = sample(cfg.grid, ic_two_mode)
        f1 = FourierStepper(cfg).step(f0)[0]
        scale = max(1.0, abs(f0.values.sum()))
        assert abs(f1.values.sum() - f0.values.sum()) <= 1e-12 * scale


def test_fourier_mode_limit():
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 3, 1027)
    model = AlignedModel(a=0.0, b=1.0, eps=1.0)
    cfg = AlignedSchemeConfig(model, grid, 0.01, AlignedScheme.FOURIER)
    f0 = sample(grid, ic_two_mode)
    with pytest.raises(ValueError):
        FourierStepper(cfg).step(f0)[0]


def test_micromacro_state_checks_zero_mean():
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 9, 9)
    f = sample(grid, ic_constant(1.0))
    with pytest.raises(ValueError):
        MicroMacroState(np.zeros(grid.nx - 1), f)


def test_micromacro_y_independent_keeps_h_zero():
    cfg = make_cfg(AlignedScheme.MICRO_MACRO, 1.0, f_in=lambda x, y: np.sin(x) + 0.0 * y)
    s0 = MicroMacroState.from_field(sample(cfg.grid, cfg.model.f_in))
    assert np.max(np.abs(s0.h.values)) <= 1e-14
    s1 = MicroMacroStepper(cfg).step(s0)[0]
    assert np.max(np.abs(s1.h.values)) <= 1e-14
    assert np.allclose(s1.H, upwind_x(s0.H, cfg.alpha), rtol=0, atol=1e-14)


def test_micromacro_reconstruction_matches_imex():
    cfg = make_cfg(AlignedScheme.MICRO_MACRO, 1e-2, nx=65, ny=65)
    f0 = sample(cfg.grid, ic_two_mode)
    s1 = MicroMacroStepper(cfg).step(MicroMacroState.from_field(f0))[0]
    imex_cfg = make_cfg(AlignedScheme.IMEX, 1e-2, nx=65, ny=65)
    f1 = ImexStepper(imex_cfg).step(f0)[0]
    assert np.max(np.abs(s1.field.values - f1.values)) <= 1e-10


def test_micromacro_eps_zero_is_limit_scheme():
    cfg = make_cfg(AlignedScheme.MICRO_MACRO, 0.0)
    f0 = sample(cfg.grid, ic_two_mode)
    s0 = MicroMacroState.from_field(f0)
    s1 = MicroMacroStepper(cfg).step(s0)[0]
    assert np.max(np.abs(s1.h.values)) == 0.0
    assert np.allclose(s1.H, upwind_x(y_average(f0), cfg.alpha), rtol=0, atol=1e-14)


def test_micromacro_mean_invariant_after_steps():
    cfg = make_cfg(AlignedScheme.MICRO_MACRO, 1e-3)
    s = MicroMacroState.from_field(sample(cfg.grid, ic_two_mode))
    stepper = MicroMacroStepper(cfg)
    for _ in range(5):
        s = stepper.step(s)[0]
    assert np.max(np.abs(s.h.values.mean(axis=1))) <= 1e-12


def test_lagrange_state_grid_mismatch():
    g1 = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 9, 9)
    g2 = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 9, 17)
    with pytest.raises(ValueError):
        LagrangeState(sample(g1, ic_two_mode), sample(g2, ic_two_mode))


def test_lagrange_constants_fixed():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 0.5, f_in=ic_constant(3.0))
    s0 = LagrangeState.from_field(sample(cfg.grid, cfg.model.f_in))
    s1 = LagrangeAlignedStepper(cfg).step(s0)[0]
    assert np.max(np.abs(s1.f.values - 3.0)) <= 1e-12
    assert np.max(np.abs(s1.q.values)) <= 1e-12


def test_lagrange_matches_imex():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 1e-2, nx=65, ny=65)
    f0 = sample(cfg.grid, ic_two_mode)
    s1 = LagrangeAlignedStepper(cfg).step(LagrangeState.from_field(f0))[0]
    f1 = ImexStepper(make_cfg(AlignedScheme.IMEX, 1e-2, nx=65, ny=65)).step(f0)[0]
    assert np.max(np.abs(s1.f.values - f1.values)) <= 1e-10


def test_lagrange_eps_zero_projects_columns():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 0.0, a=0.0)
    f0 = sample(cfg.grid, ic_two_mode)
    s1 = LagrangeAlignedStepper(cfg).step(LagrangeState.from_field(f0))[0]
    col_means = f0.values.mean(axis=1)
    assert np.max(np.abs(s1.f.values - col_means[:, None])) <= 1e-10


def test_lagrange_multiplier_pinned():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 1e-3)
    s0 = LagrangeState.from_field(sample(cfg.grid, ic_two_mode))
    s1 = LagrangeAlignedStepper(cfg).step(s0)[0]
    assert np.all(s1.q.values[:, 0] == 0.0)


def test_lagrange_mass_conserved():
    for eps in (1.0, 1e-4, 0.0):
        cfg = make_cfg(AlignedScheme.LAGRANGE, eps)
        f0 = sample(cfg.grid, ic_two_mode)
        s1 = LagrangeAlignedStepper(cfg).step(LagrangeState.from_field(f0))[0]
        scale = max(1.0, abs(f0.values.sum()))
        assert abs(s1.f.values.sum() - f0.values.sum()) <= 1e-12 * scale


def test_run_zero_steps():
    cfg = make_cfg(AlignedScheme.IMEX, 1.0)
    result = run_aligned(cfg, 0)
    assert len(result.snapshots) == 1
    t, f = result.snapshots[0]
    assert t == 0.0
    assert np.array_equal(f.values, sample(cfg.grid, ic_two_mode).values)


def test_run_records_requested_snapshots():
    cfg = make_cfg(AlignedScheme.FOURIER, 1.0, dt=0.1)
    result = run_aligned(cfg, 10, snapshot_times=[0.0, 0.5, 1.0])
    assert [t for t, _ in result.snapshots] == [0.0, 0.5, 1.0]
    assert len(result.diagnostics) == 11


def test_run_rejects_misaligned_snapshot():
    cfg = make_cfg(AlignedScheme.IMEX, 1.0, dt=0.1)
    with pytest.raises(ValueError):
        run_aligned(cfg, 10, snapshot_times=[0.25])


def test_run_attaches_step_index_to_failure():
    cfg = make_cfg(AlignedScheme.IMEX, 0.0)
    with pytest.raises(SingularMatrixError, match="step 1:"):
        run_aligned(cfg, 3)


def test_run_amplitude_decays():
    cfg = make_cfg(AlignedScheme.IMEX, 1.0, dt=1.0 / 100.0)
    result = run_aligned(cfg, 20)
    f0 = result.snapshots[0][1]
    f1 = result.snapshots[-1][1]
    assert np.max(np.abs(f1.values)) < np.max(np.abs(f0.values))


def test_run_trace_decays_to_mean():
    # 1D sub-case: the fluctuating y-modes are damped hard, leaving the
    # mean value 1
    cfg = make_cfg(AlignedScheme.IMEX, 1e-2, a=0.0, dt=10.0 / 500.0, nx=3, ny=65,
                   f_in=lambda x, y: np.cos(2.0 * y) + 1.0 + 0.0 * x)
    result = run_aligned(cfg, 500)
    final = result.snapshots[-1][1]
    assert np.max(np.abs(final.values - 1.0)) <= 1e-3


def test_run_manifest_contents():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 0.5, dt=0.25)
    result = run_aligned(cfg, 4)
    m = result.manifest
    assert m["scheme"] == "lagrange"
    assert m["eps"] == 0.5
    assert m["n_steps"] == 4
    assert m["grid"][4] == 33
