import numpy as np
import pytest

from aplab.aligned import AlignedModel, _row_means, ic_two_mode, y_average
from aplab.aligned_schemes import (
    AlignedScheme,
    AlignedSchemeConfig,
    FourierStepper,
    ImexStepper,
    LagrangeAlignedStepper,
    MicroMacroState,
    MicroMacroStepper,
    aligned_lagrange_matrix,
    make_aligned_stepper,
    run_aligned,
    upwind_x,
)
from aplab.grid import make_grid2d, sample
from aplab.linalg import SingularMatrixError, SparseFactor


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
    cfg = make_cfg(AlignedScheme.IMEX, 0.8, f_in=lambda x, y: 2.5 + 0.0 * x)
    f0 = sample(cfg.grid, cfg.model.f_in)
    f1 = ImexStepper(cfg).step(f0)[0]
    assert np.max(np.abs(f1.values - 2.5)) <= 1e-13


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
    c0 = np.fft.rfft(f0.values[0])
    c1 = np.fft.rfft(f1.values[0])
    ratio = abs(c1[2]) / abs(c0[2])
    assert ratio == pytest.approx(1.0 / abs(1.0 + 2j * cfg.dt), abs=1e-12)


def test_fourier_mass_conserved():
    for eps in (1.0, 1e-4, 0.0):
        cfg = make_cfg(AlignedScheme.FOURIER, eps)
        f0 = sample(cfg.grid, ic_two_mode)
        f1 = FourierStepper(cfg).step(f0)[0]
        scale = max(1.0, abs(f0.values.sum()))
        assert abs(f1.values.sum() - f0.values.sum()) <= 1e-12 * scale


def _dense_fourier_step(cfg, values):
    """Reference Fourier step through dense O(m^2) DFT matrices in the
    centered mode order, with the symbol written out on its own."""
    m = cfg.grid.ny - 1
    ks = np.arange(-(m // 2), m - m // 2)
    j = np.arange(m)
    fwd = np.exp(-2j * np.pi * np.outer(ks, j) / m) / m
    inv = np.exp(2j * np.pi * np.outer(j, ks) / m)
    eps = cfg.model.eps
    if eps > 0.0:
        symbol = 1.0 / (1.0 + 1j * (2.0 * np.pi / cfg.grid.ly) * ks * cfg.model.b * cfg.dt / eps)
    else:
        symbol = (ks == 0).astype(complex)
    coeffs = upwind_x(values @ fwd.T, cfg.alpha) * symbol
    return (coeffs @ inv.T).real


@pytest.mark.parametrize("ny", [32, 33])  # m = 31 and 32 y-modes
@pytest.mark.parametrize("eps", [1.0, 1e-6, 0.0])
def test_fourier_matches_dense_transform(ny, eps):
    # the random field seeds every y-mode, the Nyquist mode at m = 32 included
    cfg = make_cfg(AlignedScheme.FOURIER, eps, ny=ny)
    stepper = FourierStepper(cfg)
    two_mode = sample(cfg.grid, ic_two_mode)
    rng = np.random.default_rng(ny)
    for f in (two_mode, two_mode.with_values(rng.standard_normal(two_mode.values.shape))):
        ref = f.values
        for _ in range(20):
            f = stepper.step(f)[0]
            ref = _dense_fourier_step(cfg, ref)
        assert np.max(np.abs(f.values - ref)) <= 1e-12


def test_fourier_mode_limit():
    # no cap on the number of y-modes: beyond 1024 the N-step result is
    # still the symbol xi(2)^N applied to the e^{2iy} part of cos(2y)
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 3, 1027)
    model = AlignedModel(a=0.0, b=1.0, eps=1.0, f_in=lambda x, y: np.cos(2.0 * y) + 0.0 * x)
    cfg = AlignedSchemeConfig(model, grid, 0.01, AlignedScheme.FOURIER)
    n_steps = 50
    final = run_aligned(cfg, n_steps).snapshots[-1][1]
    xi = 1.0 / (1.0 + 2j * cfg.dt)
    exact = (xi ** n_steps * np.exp(2j * grid.y_nodes())).real
    assert np.max(np.abs(final.values - exact[None, :])) <= 1e-12


def test_micromacro_state_checks_zero_mean():
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 9, 9)
    f = sample(grid, lambda x, y: 1.0 + 0.0 * x)
    with pytest.raises(ValueError):
        MicroMacroState(np.zeros(grid.nx - 1), f)


def test_micromacro_state_rejects_one_column_off_zero():
    # a zero-mean fluctuation passes; one column moved off zero by more than
    # 1e-10 of max(1, max|h|) fails, by less passes
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 9, 9)
    H = np.zeros(grid.nx - 1)
    h = np.cos(grid.y_nodes())[None, :] * np.arange(1.0, grid.nx)[:, None]
    zero = sample(grid, lambda x, y: 0.0)
    MicroMacroState(H, zero.with_values(h))
    shifted = h.copy()
    shifted[3] += 1e-12 * np.max(np.abs(h))
    MicroMacroState(H, zero.with_values(shifted))
    shifted[3] += 1e-8 * np.max(np.abs(h))
    with pytest.raises(ValueError, match="column means"):
        MicroMacroState(H, zero.with_values(shifted))


def test_micromacro_column_means_match_numpy_bit_for_bit():
    # the same bytes whatever the layout a solve returns: numpy sums a
    # contiguous row pairwise but a strided one in order
    rng = np.random.default_rng(5)
    for shape in [(100, 7), (400, 400), (16, 16), (8, 1)]:
        h = rng.standard_normal(shape)
        for layout in (h, np.asfortranarray(h)):
            assert np.array_equal(_row_means(layout), h.mean(axis=1))


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


def test_lagrange_constants_fixed():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 0.5, f_in=lambda x, y: 3.0 + 0.0 * x)
    f1 = LagrangeAlignedStepper(cfg).step(sample(cfg.grid, cfg.model.f_in))[0]
    assert np.max(np.abs(f1.values - 3.0)) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 8, 200])
@pytest.mark.parametrize("eps", [1.0, 1e-3, 0.0])
def test_lagrange_matrix_stores_every_entry(m, eps):
    # 3 entries in each evolution row, 4 in each of the m - 1 constraint rows
    # and the pin: at eps = 0 the constraint rows' multiplier entries are
    # stored as explicit zeros
    A = aligned_lagrange_matrix(m, 0.3, eps)
    assert A.shape == (2 * m, 2 * m)
    assert A.nnz == 7 * m - 3 and A.has_canonical_format


def test_lagrange_multiplier_vanishes_on_constants():
    # the stepper keeps only the field half of the column solve
    m = 32
    rhs = np.concatenate([np.full(m, 3.0), np.zeros(m)])
    sol = SparseFactor(aligned_lagrange_matrix(m, 0.3, 0.5)).solve(rhs)[0]
    assert np.max(np.abs(sol[:m] - 3.0)) <= 1e-12
    assert np.max(np.abs(sol[m:])) <= 1e-12


def test_lagrange_matches_imex():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 1e-2, nx=65, ny=65)
    f0 = sample(cfg.grid, ic_two_mode)
    s1 = LagrangeAlignedStepper(cfg).step(f0)[0]
    f1 = ImexStepper(make_cfg(AlignedScheme.IMEX, 1e-2, nx=65, ny=65)).step(f0)[0]
    assert np.max(np.abs(s1.values - f1.values)) <= 1e-10


def test_lagrange_eps_zero_projects_columns():
    cfg = make_cfg(AlignedScheme.LAGRANGE, 0.0, a=0.0)
    f0 = sample(cfg.grid, ic_two_mode)
    s1 = LagrangeAlignedStepper(cfg).step(f0)[0]
    col_means = f0.values.mean(axis=1)
    assert np.max(np.abs(s1.values - col_means[:, None])) <= 1e-10


def test_lagrange_mass_conserved():
    for eps in (1.0, 1e-4, 0.0):
        cfg = make_cfg(AlignedScheme.LAGRANGE, eps)
        f0 = sample(cfg.grid, ic_two_mode)
        s1 = LagrangeAlignedStepper(cfg).step(f0)[0]
        scale = max(1.0, abs(f0.values.sum()))
        assert abs(s1.values.sum() - f0.values.sum()) <= 1e-12 * scale


@pytest.mark.parametrize("scheme", [AlignedScheme.IMEX, AlignedScheme.MICRO_MACRO,
                                    AlignedScheme.LAGRANGE])
@pytest.mark.parametrize("eps,k,l", [(1.0, 1, 1), (1e-10, 1, 0), (1e-10, 2, 3)])
def test_n_step_symbol(scheme, eps, k, l):
    # the schemes are circulant in both directions, so N steps take the mode
    # cos(phi i + theta j) to Re(xi^N e^{i(phi i + theta j)}), with the
    # symbol xi = eps (1 - alpha (1 - e^{-i phi})) / (eps + beta (1 - e^{-i theta}));
    # at l = 0 and eps = 1e-10 the exact eps of the smallest eigenvalue
    # (d_lo in CyclicTridiag) is what keeps xi = 1 - alpha (1 - e^{-i phi}),
    # and at l = 3 the stiff mode must decay without leaking into l = 0
    n_steps = 1000
    cfg = make_cfg(scheme, eps, a=1.0, b=1.0, dt=0.008, nx=9, ny=9,
                   f_in=lambda x, y: np.cos(k * x + l * y))
    final = run_aligned(cfg, n_steps).snapshots[-1][1].values
    phi, theta = k * cfg.grid.dx, l * cfg.grid.dy
    xi = (eps * (1.0 - cfg.alpha * (1.0 - np.exp(-1j * phi)))
          / (eps + cfg.beta * (1.0 - np.exp(-1j * theta))))
    phase = k * cfg.grid.x_nodes()[:, None] + l * cfg.grid.y_nodes()[None, :]
    exact = np.abs(xi) ** n_steps * np.cos(phase + n_steps * np.angle(xi))
    assert np.max(np.abs(final - exact)) <= 1e-13


def _values(state):
    return (state.H, state.h.values) if isinstance(state, MicroMacroState) else (state.values,)


@pytest.mark.parametrize("scheme", list(AlignedScheme))
@pytest.mark.parametrize("eps", [1.0, 1e-6])
def test_stepping_a_state_twice_gives_equal_results(scheme, eps):
    # a stepper reuses its work buffers from step to step: a step must read
    # none of what an earlier step left there, and must hand out none of them
    cfg = make_cfg(scheme, eps, nx=17, ny=17)
    stepper = make_aligned_stepper(cfg)
    s0 = stepper.initial(sample(cfg.grid, cfg.model.f_in))
    s1 = stepper.step(s0)[0]
    kept = [v.copy() for v in _values(s1)]
    stepper.step(s1)
    for again in (stepper.step(s0)[0], s1):
        for value, expected in zip(_values(again), kept):
            assert np.array_equal(value, expected)


@pytest.mark.parametrize("scheme", list(AlignedScheme))
def test_snapshots_are_not_changed_by_later_steps(scheme):
    cfg = make_cfg(scheme, 1e-3, nx=17, ny=17)
    n = 5
    snaps = run_aligned(cfg, n, snapshot_steps=range(n + 1)).snapshots
    for k, (_, field) in enumerate(snaps):
        assert np.array_equal(field.values, run_aligned(cfg, k).snapshots[-1][1].values)


def test_run_zero_steps():
    cfg = make_cfg(AlignedScheme.IMEX, 1.0)
    result = run_aligned(cfg, 0)
    assert len(result.snapshots) == 1
    t, f = result.snapshots[0]
    assert t == 0.0
    assert np.array_equal(f.values, sample(cfg.grid, ic_two_mode).values)


def test_run_records_requested_snapshots():
    cfg = make_cfg(AlignedScheme.FOURIER, 1.0, dt=0.1)
    result = run_aligned(cfg, 10, snapshot_steps=[0, 5, 10])
    assert [t for t, _ in result.snapshots] == [0.0, 0.5, 1.0]
    assert len(result.diagnostics) == 11


def test_run_rejects_snapshot_step_outside_run():
    cfg = make_cfg(AlignedScheme.IMEX, 1.0, dt=0.1)
    for step in (-1, 11):
        with pytest.raises(ValueError, match="not an integer in 0..10"):
            run_aligned(cfg, 10, snapshot_steps=[0, step])


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
