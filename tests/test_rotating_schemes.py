"""Schemes for the rotation model: upwind operator, IMP, multiplier system."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from aplab.experiments import run_experiment
from aplab.grid import Field2D, make_grid2d, sample
from aplab.linalg import SparseFactor, cond2
from aplab.results import DIAGNOSTICS
from aplab.rotating import RotatingModel, circle_average, ic_gaussian
from aplab.rotating_schemes import (
    ImpStepper,
    LagrangeRotatingStepper,
    RotatingScheme,
    RotatingSchemeConfig,
    assemble_imp,
    assemble_lagrange_rot,
    run_rotating,
    stabilization,
    upwind_rotation_matrix,
)

GRID40 = make_grid2d(-3, 3, -3, 3, 40, 40)
DT = 1.0 / 63.0


def make_cfg(scheme, eps, dt=DT, grid=GRID40, **kw):
    return RotatingSchemeConfig(RotatingModel(eps), grid, dt, scheme=scheme, **kw)


def upwind_rotation_apply(g: Field2D) -> Field2D:
    """Matrix-free oracle of ``upwind_rotation_matrix``: the upwind
    discretization of y*d/dx - x*d/dy applied with shifted copies."""
    gr = g.grid
    x = gr.x_nodes()[:, None]
    y = gr.y_nodes()[None, :]
    V = g.values
    bdx = V - np.roll(V, 1, axis=0)
    fdx = np.roll(V, -1, axis=0) - V
    bdy = V - np.roll(V, 1, axis=1)
    fdy = np.roll(V, -1, axis=1) - V
    out = ((np.maximum(y, 0.0) * bdx + np.minimum(y, 0.0) * fdx) / gr.dx
           - (np.maximum(x, 0.0) * fdy + np.minimum(x, 0.0) * bdy) / gr.dy)
    return g.with_values(out)


def test_config_validation():
    with pytest.raises(ValueError, match="time step"):
        make_cfg("imp", 1.0, dt=0.0)
    with pytest.raises(ValueError, match="time step"):
        make_cfg("imp", 1.0, dt=float("inf"))
    with pytest.raises(ValueError, match="gamma"):
        make_cfg("imp", 1.0, gamma=float("nan"))
    cfg = make_cfg("lagrange", 0.5, dt=0.2)
    assert cfg.scheme is RotatingScheme.LAGRANGE
    assert cfg.r_x == pytest.approx(0.2 / GRID40.dx)
    assert cfg.r_y == pytest.approx(0.2 / GRID40.dy)


def test_upwind_annihilates_constants():
    f = sample(GRID40, lambda x, y: 3.7 + 0.0 * x)
    out = upwind_rotation_apply(f)
    assert np.all(out.values == 0.0)


def test_upwind_output_sums_to_zero():
    g = make_grid2d(-3, 3, -3, 3, 10, 10)
    rng = np.random.default_rng(7)
    f = Field2D(g, rng.standard_normal((g.nx - 1, g.ny - 1)))
    out = upwind_rotation_apply(f).values
    assert abs(out.sum()) <= 1e-12 * np.abs(out).sum()


def test_upwind_gaussian_residual_halves_with_dx():
    # the radial Gaussian lies in the kernel of the continuous operator
    res = {}
    for n in (41, 81):
        g = make_grid2d(-3, 3, -3, 3, n, n)
        res[n] = float(np.max(np.abs(upwind_rotation_apply(sample(g, ic_gaussian)).values)))
    assert res[41] <= 0.1
    assert 0.4 <= res[81] / res[41] <= 0.6


def test_upwind_matrix_matches_apply():
    g = make_grid2d(-3, 3, -3, 3, 12, 12)
    rng = np.random.default_rng(3)
    f = Field2D(g, rng.standard_normal((g.nx - 1, g.ny - 1)))
    via_matrix = upwind_rotation_matrix(g) @ f.values.ravel()
    direct = upwind_rotation_apply(f).values.ravel()
    assert np.max(np.abs(via_matrix - direct)) <= 1e-13


def test_upwind_matrix_structure():
    g = make_grid2d(-3, 3, -3, 3, 10, 10)
    U = upwind_rotation_matrix(g)
    m = (g.nx - 1) * (g.ny - 1)
    assert U.shape == (m, m)
    assert U.nnz == 5 * m  # explicit zeros included: one of each upwind pair is 0
    col_sums = np.asarray(np.abs(U.sum(axis=0))).ravel()
    assert np.max(col_sums) <= 1e-13
    assert upwind_rotation_matrix(g) is upwind_rotation_matrix(g)


@pytest.mark.parametrize("n, nnz", [(3, 12), (4, 45), (12, 605), (160, 126405)])
def test_upwind_matrix_keeps_its_explicit_zeros(n, nnz):
    # 5 stored entries per unknown from 4 nodes a side on, explicit zeros
    # included; on 3^2 the two x- and the two y-neighbours coincide and are
    # summed, which leaves 3 per unknown
    U = upwind_rotation_matrix(make_grid2d(-3, 3, -3, 3, n, n))
    assert U.nnz == nnz and U.has_canonical_format


def test_assemble_imp_large_eps_is_identity():
    g = make_grid2d(-3, 3, -3, 3, 8, 8)
    A = assemble_imp(g, 1e12, 0.1)
    d = A - sp.identity(A.shape[0])
    assert abs(d).max() <= 1e-10


def test_assemble_imp_row_sums_one():
    g = make_grid2d(-3, 3, -3, 3, 8, 8)
    A = assemble_imp(g, 0.3, 0.05)
    rows = np.asarray(A.sum(axis=1)).ravel()
    assert np.max(np.abs(rows - 1.0)) <= 1e-13


def test_assemble_imp_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        assemble_imp(GRID40, 0.0, DT)
    with pytest.raises(ValueError):
        assemble_imp(GRID40, -1.0, DT)


def test_imp_conditioning_grows_like_one_over_eps():
    c1 = cond2(assemble_imp(GRID40, 1.0, DT))
    c4 = cond2(assemble_imp(GRID40, 1e-4, DT))
    assert c4 / c1 > 100.0


def test_step_imp_preserves_constants():
    f = sample(GRID40, lambda x, y: 1.5 + 0.0 * x)
    out = ImpStepper(make_cfg("imp", 0.01)).step(f)[0]
    assert np.max(np.abs(out.values - 1.5)) <= 1e-12


def test_step_imp_collapses_to_mean_for_tiny_eps():
    # the eps -> 0 limit of (Id + dt/eps U)^{-1} projects onto constants,
    # so two steps flatten the Gaussian to its discrete mean
    f = sample(GRID40, ic_gaussian)
    mean0 = float(np.mean(f.values))
    cfg = make_cfg("imp", 1e-10)
    stepper = ImpStepper(cfg)
    out = stepper.step(stepper.step(f)[0])[0]
    assert np.max(np.abs(out.values - mean0)) <= 1e-8
    assert mean0 == pytest.approx(np.pi / 72.0, abs=1e-9)


def test_step_imp_peak_at_eps_one():
    cfg = make_cfg("imp", 1.0)
    r = run_rotating(cfg, 16)
    peak = float(np.max(r.snapshots[-1][1].values))
    assert peak == pytest.approx(0.9648668823472203, abs=1e-9)


def test_imp_peak_decay_monotone_in_eps():
    peaks = []
    for eps in (1.0, 0.1, 0.01, 1e-4):
        r = run_rotating(make_cfg("imp", eps), 8)
        peaks.append(float(np.max(r.snapshots[-1][1].values)))
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_lagrange_system_nonsingular(eps):
    g = make_grid2d(-3, 3, -3, 3, 6, 6)
    A = assemble_lagrange_rot(g, eps, 0.1)
    m = (g.nx - 1) * (g.ny - 1)
    assert A.shape == (2 * m, 2 * m)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(2 * m)
    x, _ = SparseFactor(A).solve(b)
    assert np.max(np.abs(A @ x - b)) <= 1e-10


def test_lagrange_system_blocks():
    g = make_grid2d(-3, 3, -3, 3, 8, 8)
    dt = 0.07
    A = assemble_lagrange_rot(g, 0.4, dt)
    m = (g.nx - 1) * (g.ny - 1)
    U = upwind_rotation_matrix(g)
    assert abs(A[:m, :m] - sp.identity(m)).max() == 0.0
    assert abs(A[:m, m:] - dt * U).max() <= 1e-15
    assert abs(A[m:, :m] - U).max() == 0.0


def test_step_lagrange_constants():
    f = sample(GRID40, lambda x, y: 2.0 + 0.0 * x)
    f1 = LagrangeRotatingStepper(make_cfg("lagrange", 0.5)).step(f)[0]
    assert np.max(np.abs(f1.values - 2.0)) <= 1e-12


GRID16 = make_grid2d(-3, 3, -3, 3, 16, 16)
STAB16 = (GRID16.dx * GRID16.dy) ** 0.91
# dt r^2 + eps r + s has a double root at eps = EPS16: complex roots below, real above
EPS16 = 2.0 * np.sqrt(DT * STAB16)


def _schur(g, eps):
    U = upwind_rotation_matrix(g)
    return DT * (U @ U) + eps * U + STAB16 * sp.identity(U.shape[0], format="csr")


@pytest.mark.parametrize("eps", [1.0, 1e-3, 0.0, EPS16 * (1.0 - 1e-9), EPS16,
                                 EPS16 * (1.0 + 1e-9), 5.0])
def test_lagrange_step_matches_block_solve(eps):
    # the stepper solves the M x M Schur complement S through shifted
    # factors of U and refines against S, applied through U; the f half of
    # the 2M x 2M block solve is the reference
    g = GRID16
    rng = np.random.default_rng(5)
    f = Field2D(g, rng.standard_normal((g.nx - 1, g.ny - 1)))
    m = f.values.size
    stepper = LagrangeRotatingStepper(make_cfg("lagrange", eps, grid=g))
    v = rng.standard_normal(m)
    Sv = _schur(g, eps) @ v
    assert np.max(np.abs(stepper.factor.matrix @ v - Sv)) <= 1e-13 * np.max(np.abs(Sv))
    got = stepper.step(f)[0].values.ravel()
    rhs = np.concatenate([f.values.ravel(), np.zeros(m)])
    want = SparseFactor(assemble_lagrange_rot(g, eps, DT)).solve(rhs)[0][:m]
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("eps", [1e-3, 1.0])  # a complex root pair, two real roots
def test_lagrange_factor_keeps_no_sparse_matrix(eps):
    # S is applied through the stepper's U, and each U - r Id is released
    # once its LU exists; |S|_1 is still that of the assembled S
    stepper = LagrangeRotatingStepper(make_cfg("lagrange", eps, grid=GRID16))
    factor = stepper.factor
    assert len(factor._shifted) == (1 if eps < EPS16 else 2)
    for obj in (factor, *factor._shifted):
        assert not any(sp.issparse(value) for value in vars(obj).values())
    assert factor.norm1 == abs(_schur(GRID16, eps)).sum(axis=0).max()


def test_lagrange_multiplier_vanishes_on_constants():
    # on constants the block solve leaves f unchanged and its multiplier zero
    m = (GRID40.nx - 1) * (GRID40.ny - 1)
    rhs = np.concatenate([np.full(m, 2.0), np.zeros(m)])
    sol = SparseFactor(assemble_lagrange_rot(GRID40, 0.5, DT)).solve(rhs)[0]
    assert np.max(np.abs(sol[:m] - 2.0)) <= 1e-12
    assert np.max(np.abs(sol[m:])) <= 1e-12


def test_step_lagrange_conserves_mass():
    f = sample(GRID40, ic_gaussian)
    total0 = f.values.sum()
    stepper = LagrangeRotatingStepper(make_cfg("lagrange", 1e-6, dt=0.1))
    for _ in range(3):
        f = stepper.step(f)[0]
    assert abs(f.values.sum() - total0) <= 1e-11 * abs(total0)


def test_lagrange_eps_independence():
    # dt = 0.1 keeps the stabilized system away from its resonant band on
    # this coarse grid; the small-eps solutions then collapse onto eps = 0
    outs = {}
    for eps in (0.0, 1e-8, 1e-4):
        r = run_rotating(make_cfg("lagrange", eps, dt=0.1), 20)
        outs[eps] = r.snapshots[-1][1].values
    assert float(np.max(outs[0.0])) == pytest.approx(0.6013675466414258, abs=1e-9)
    assert np.max(np.abs(outs[0.0] - outs[1e-8])) <= 1e-6
    assert np.max(np.abs(outs[1e-8] - outs[1e-4])) <= 1e-3


def test_ap_separation_small_eps():
    r_la = run_rotating(make_cfg("lagrange", 1e-8, dt=0.1), 20)
    r_imp = run_rotating(make_cfg("imp", 1e-8, dt=0.1), 20)
    peak_la = float(np.max(r_la.snapshots[-1][1].values))
    peak_imp = float(np.max(r_imp.snapshots[-1][1].values))
    assert peak_la > 5.0 * peak_imp


def test_imp_and_lagrange_agree_at_eps_one():
    r_imp = run_rotating(make_cfg("imp", 1.0), 16)
    r_la = run_rotating(make_cfg("lagrange", 1.0), 16)
    p_imp = float(np.max(r_imp.snapshots[-1][1].values))
    p_la = float(np.max(r_la.snapshots[-1][1].values))
    assert abs(p_imp - p_la) <= 0.02


def test_lagrange_transient_peak_pinned():
    # regression pin for the stabilization sign: the opposite sign makes
    # this value blow up past 1e10
    r = run_rotating(make_cfg("lagrange", 0.0), 16)
    peak = float(np.max(r.snapshots[-1][1].values))
    assert peak == pytest.approx(1.01729618687575, abs=1e-8)


GRID21 = make_grid2d(-3, 3, -3, 3, 21, 21)


@pytest.fixture(scope="module")
def grid21_upwind_eigenvalues():
    return np.linalg.eigvals(upwind_rotation_matrix(GRID21).toarray())


def tail_growth(stepper, grid) -> float:
    """Mean growth per step of the last 100 of 300 power-iteration steps
    from a seeded field; U is non-normal, so only the tail is fitted."""
    f = Field2D(grid, np.random.default_rng(7).standard_normal((grid.nx - 1, grid.ny - 1)))
    log_growth = []
    for _ in range(300):
        g = stepper.step(f)[0].values
        norm = np.linalg.norm(g)
        log_growth.append(np.log(norm / np.linalg.norm(f.values)))
        f = f.with_values(g / norm)
    return float(np.exp(np.mean(log_growth[-100:])))


@pytest.mark.parametrize("gamma, rho_expected", [(0.91, 1.9143), (1.2, 1.0)])
def test_lagrange_growth_matches_spectral_radius(grid21_upwind_eigenvalues, gamma,
                                                 rho_expected):
    # the step is G = (eps U + s Id)(dt U^2 + eps U + s Id)^-1, a rational
    # function of U, so rho(G) is the largest |(eps mu + s) / (dt mu^2 + eps mu + s)|
    # over the eigenvalues mu of U; s/dt = 0.78 (gamma = 0.91) lies in the
    # unstable band, s/dt = 0.39 (gamma = 1.2) below it, where the kernel of U
    # gives rho(G) = 1
    dt, eps = 1.0 / 7.0, 1e-4
    s = (GRID21.dx * GRID21.dy) ** gamma
    mu = grid21_upwind_eigenvalues
    rho = float(np.max(np.abs((eps * mu + s) / (dt * mu ** 2 + eps * mu + s))))
    assert rho == pytest.approx(rho_expected, rel=1e-4 if rho_expected > 1.0 else 1e-12)
    stepper = LagrangeRotatingStepper(make_cfg("lagrange", eps, dt=dt, grid=GRID21, gamma=gamma))
    tail = tail_growth(stepper, GRID21)
    if rho > 1.0:
        assert tail == pytest.approx(rho, rel=1e-3)
    else:
        assert tail <= 1.0 + 1e-9


@pytest.mark.parametrize("n, least_bound", [(21, 0.5388), (41, 0.5096)])
def test_eps_zero_stability_limit_is_exact(grid21_upwind_eigenvalues, n, least_bound):
    # at eps = 0 the step factor on an eigenvalue mu = a + ib of U is
    # G = s / (dt mu^2 + s), and |G| <= 1 <=> dt |mu|^4 >= 2 s (b^2 - a^2):
    # a mode with b^2 <= a^2 is stable for every s/dt, any other exactly while
    # s/dt <= |mu|^4 / (2 (b^2 - a^2)). The least such bound is the grid's
    # limit on s/dt. The kernel of U, where G = 1, is left out: roundoff
    # in a zero eigenvalue can put it on either side of b^2 = a^2.
    grid = make_grid2d(-3, 3, -3, 3, n, n)
    mu = (grid21_upwind_eigenvalues if n == 21 else
          np.linalg.eigvals(upwind_rotation_matrix(grid).toarray()))
    mu = mu[np.abs(mu) > 1e-10]
    a2, b2 = mu.real ** 2, mu.imag ** 2
    bound = np.full(mu.shape, np.inf)
    bound[b2 > a2] = np.abs(mu[b2 > a2]) ** 4 / (2.0 * (b2 - a2)[b2 > a2])
    least = float(bound.min())
    assert least == pytest.approx(least_bound, abs=5e-5)
    s = stabilization(grid, 0.91)
    for ratio in (0.3, 0.5, 0.98 * least, 1.02 * least, 0.6, 2.0):
        dt = s / ratio
        stable = np.abs(s / (dt * mu ** 2 + s)) <= 1.0
        assert np.array_equal(stable, s / dt <= bound), ratio
    # power iteration on either side of the limit
    for ratio in (0.98 * least, 1.02 * least):
        dt = s / ratio
        rho = float(np.max(np.abs(s / (dt * mu ** 2 + s))))
        tail = tail_growth(LagrangeRotatingStepper(make_cfg("lagrange", 0.0, dt=dt, grid=grid)),
                           grid)
        if ratio > least:
            assert rho > 1.03 and tail == pytest.approx(rho, rel=1e-4)
        else:
            assert rho < 1.0 and tail <= 1.0 + 1e-9


@pytest.mark.parametrize("n", [20, 30])
def test_imp_decay_matches_largest_factor_off_the_kernel(n):
    # IMP's step is G = (Id + (dt/eps) U)^-1, so a field with no part on the
    # kernel of U decays at max |1 / (1 + (dt/eps) mu)| over the other
    # eigenvalues mu. With an even node count no node sits at the origin and
    # the kernel is the constants alone, which a zero-mean field leaves out.
    # The run stops above roundoff, where the ratio would read 1.0. At 30^2
    # and eps = 1 the second factor is 0.98077 against 0.99126, so 400 steps
    # left the ratio up to 1e-2 off for some seeds; 1,500 bring every seed
    # from 0 to 9 within 1e-9.
    grid = make_grid2d(-3, 3, -3, 3, n, n)
    mu = np.linalg.eigvals(upwind_rotation_matrix(grid).toarray())
    assert np.count_nonzero(np.abs(mu) <= 1e-10) == 1
    mu = mu[np.abs(mu) > 1e-10]
    dt = grid.dx / 2.0
    for eps in (1.0, 0.1, 0.01):
        decay = float(np.max(np.abs(1.0 / (1.0 + (dt / eps) * mu))))
        stepper = ImpStepper(make_cfg("imp", eps, dt=dt, grid=grid))
        v = np.random.default_rng(7).standard_normal((n - 1, n - 1))
        f = Field2D(grid, v - v.mean())
        norms = [np.linalg.norm(f.values)]
        for _ in range(1500):
            f = stepper.step(f)[0]
            norms.append(np.linalg.norm(f.values))
            if norms[-1] < 1e-11 * norms[1]:
                break
        assert norms[-1] / norms[-2] == pytest.approx(decay, rel=1e-5), eps


@pytest.mark.parametrize("n, scheme, eps, gamma", [
    (21, "imp", 1.0, 0.91), (21, "imp", 1e-2, 0.91), (21, "imp", 1e-4, 0.91),
    (21, "lagrange", 1.0, 0.91), (21, "lagrange", 1.0, 1.2), (21, "lagrange", 1e-2, 0.91),
    (21, "lagrange", 1e-4, 0.91), (21, "lagrange", 0.0, 0.91), (41, "imp", 1e-4, 0.91)])
def test_rotating_run_is_the_dense_step_matrix_power(tmp_path, grid21_upwind_eigenvalues, n,
                                                     scheme, eps, gamma):
    # Each scheme steps with one fixed matrix G, so a rotating-run ends at
    # G^N f0: IMP's G = (Id + (dt/eps) U)^-1, whose spectral radius is at most
    # 1 (U's eigenvalues have Re >= 0 by column Gershgorin), and Lagrange's
    # G = Id - dt U S^-1 U with S = dt U^2 + eps U + s Id, whose rho(G) is
    # 1.54 to 1.62 below eps = 1 here. The run's rows may differ from G^N f0
    # by the rounding of N solves of condition kappa_1 = |A|_1 |A^-1|_1 of the
    # system solved, grown by rho(G)^N.
    grid, dt, N = make_grid2d(-3, 3, -3, 3, n, n), 1.0 / (n - 1), n - 1
    U = upwind_rotation_matrix(grid).toarray()
    Id = np.eye(U.shape[0])
    if scheme == "imp":
        A = Id + (dt / eps) * U
        G = A_inv = np.linalg.inv(A)
        rho = 1.0
    else:
        s = (grid.dx * grid.dy) ** gamma
        A = dt * U @ U + eps * U + s * Id
        A_inv = np.linalg.inv(A)
        G = Id - dt * U @ A_inv @ U
        mu = grid21_upwind_eigenvalues  # every Lagrange case runs on 21^2
        rho = float(np.max(np.abs((eps * mu + s) / (dt * mu ** 2 + eps * mu + s))))
    f0 = sample(grid, ic_gaussian).values
    f = f0.ravel()
    for _ in range(N):
        f = G @ f
    f = f.reshape(f0.shape)
    kappa = np.linalg.norm(A, 1) * np.linalg.norm(A_inv, 1)
    bound = 10.0 * N * kappa * np.finfo(float).eps * np.max(np.abs(f0)) * max(1.0, rho) ** N

    entry = {"kind": "rotating-run", "name": "run", "nx": n, "ny": n, "nt": n, "gamma": gamma,
             "schemes": [scheme], "eps_list": [eps]}
    (tmp_path / "run.json").write_text(json.dumps(entry), encoding="utf-8")
    assert run_experiment(str(tmp_path / "run.json"), str(tmp_path)) == 0
    out = tmp_path / "run"
    _, _, t, peak, circle_avg = (out / "summary.csv").read_text().splitlines()[1].split(",")
    field = np.loadtxt(next(out.glob("field_*_snap1.csv")), delimiter=",", skiprows=1)
    cut = np.loadtxt(next(out.glob("cut_*.csv")), delimiter=",", skiprows=1)
    assert float(t) == N * dt
    gaps = {"peak": abs(float(peak) - f.max()),
            "circle_avg": abs(float(circle_avg) - circle_average(Field2D(grid, f), 1.0)),
            "cut": np.max(np.abs(cut[:, 1] - f[np.argmin(np.abs(grid.x_nodes()))])),
            "field": np.max(np.abs(field[:, 2] - np.pad(f, ((0, 1), (0, 1)), mode="wrap").ravel()))}
    assert max(gaps.values()) <= bound, (gaps, bound)


@pytest.mark.parametrize("eps, scheme", [(1.0, "imp"), (1.0, "lagrange"), (1e-4, "imp"),
                                         (1e-4, "lagrange"), (0.0, "lagrange")])
def test_mass_drift_hundred_steps(eps, scheme):
    r = run_rotating(make_cfg(scheme, eps, dt=0.1), 100)
    masses = [row[DIAGNOSTICS.index("mass")] for row in r.diagnostics]
    drift = abs(masses[-1] - masses[0]) / max(1.0, abs(masses[0]))
    assert drift <= 1e-11


def test_run_rotating_zero_steps():
    r = run_rotating(make_cfg("imp", 1.0), 0)
    assert len(r.snapshots) == 1
    t, f = r.snapshots[0]
    assert t == 0.0
    assert np.array_equal(f.values, sample(GRID40, ic_gaussian).values)


def test_run_rotating_snapshot_validation():
    for step in (-1, 5):
        with pytest.raises(ValueError, match="not an integer in 0..4"):
            run_rotating(make_cfg("imp", 1.0), 4, snapshot_steps=[step])


def test_run_rotating_manifest_and_diagnostics():
    cfg = make_cfg("lagrange", 0.01, dt=0.1)
    r = run_rotating(cfg, 5, snapshot_steps=[0, 3, 5])
    assert [t for t, _ in r.snapshots] == pytest.approx([0.0, 0.3, 0.5])
    assert len(r.diagnostics) == 6
