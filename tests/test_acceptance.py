"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Each test prints its verdict on the real stdout so the lines survive
pytest's capture, then asserts. Frozen thresholds come from reference runs
recorded at build-qualification time.
"""

import json
import time

import numpy as np
import pytest

from aplab.aligned import AlignedModel, exact_aligned, ic_two_mode, limit_aligned
from aplab.aligned_schemes import AlignedScheme, AlignedSchemeConfig, run_aligned
from aplab.analysis import amplification_factors, error_eta, error_gamma, xi_imex
from aplab.experiments import run_experiment
from aplab.grid import make_grid2d
from aplab.linalg import (CyclicTridiag, SingularMatrixError, SparseFactor,
                          assemble, cond2, solve_cyclic)
from aplab.results import DIAGNOSTICS
from aplab.rotating import RotatingModel, ic_gaussian
from aplab.rotating_schemes import (RotatingScheme, RotatingSchemeConfig,
                                    run_rotating)

GRID64 = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 64, 64)

# reference-run value frozen at build-qualification time, 20% headroom
_C9_FROZEN_DIFF = 171.07586075658833


@pytest.fixture
def verdict(capsys):
    """Prints one criterion line past the capture, then asserts."""
    def _report(num: int, ok: bool, desc: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def sec5_config(scheme, eps):
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 201, 201)
    model = AlignedModel(a=0.1, b=1.0, eps=eps, f_in=ic_two_mode)
    return AlignedSchemeConfig(model, grid, 0.01, scheme)


def run_config(tmp_path, entry, sub):
    path = tmp_path / f"{sub}.json"
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert run_experiment(str(path), str(tmp_path / sub)) == 0
    return tmp_path / sub / entry.get("name", entry["kind"])


def test_criterion_01_von_neumann_exactness(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    # every mode of the 64 x 64 grid, as the phase steps (phi, theta) per cell
    phi = 2.0 * np.pi * np.fft.fftfreq(63)[:, None]
    theta = 2.0 * np.pi * np.fft.fftfreq(63)[None, :]
    worst = worst_symbol = 0.0
    for _ in range(50):
        k = int(rng.integers(-31, 32))
        l = int(rng.integers(-31, 32))
        alpha = float(rng.uniform(0.02, 1.0))
        beta = float(rng.uniform(0.1, 10.0))
        eps = float(10.0 ** rng.uniform(-6.0, 0.0))
        dt = alpha * GRID64.dx
        b = beta * GRID64.dy / dt
        model = AlignedModel(a=1.0, b=b, eps=eps, f_in=ic_two_mode)
        xi = amplification_factors(AlignedSchemeConfig(model, GRID64, dt, AlignedScheme.IMEX))
        form = xi_imex(alpha, beta, eps, k, l, GRID64.dx, GRID64.dy)
        worst = max(worst, abs(abs(xi[k % 63, l % 63]) - form))
        symbol = (eps * (1.0 - alpha * (1.0 - np.exp(-1j * phi)))
                  / (eps + beta * (1.0 - np.exp(-1j * theta))))
        worst_symbol = max(worst_symbol, float(np.abs(xi - symbol).max()))
    wall = time.perf_counter() - t0
    verdict(1, worst <= 1e-10 and worst_symbol <= 1e-10 and wall < 10.0,
           f"impulse amplification matches the closed form on 50 random modes "
           f"(worst {worst:.1e}) and the complex symbol on every mode "
           f"(worst {worst_symbol:.1e}, {wall:.1f} s)")


def test_criterion_02_cfl_sharpness(verdict):
    model = AlignedModel(a=1.0, b=1.0, eps=1.0, f_in=ic_two_mode)
    cfg_at = AlignedSchemeConfig(model, GRID64, 1.0 * GRID64.dx, AlignedScheme.IMEX)
    worst_at = float(np.abs(amplification_factors(cfg_at)).max())
    cfg_over = AlignedSchemeConfig(model, GRID64, 1.05 * GRID64.dx, AlignedScheme.IMEX)
    max_over = float(np.abs(amplification_factors(cfg_over)[:, 0]).max())
    verdict(2, worst_at <= 1.0 + 1e-12 and max_over > 1.0,
           f"stable at alpha = 1 on every mode (max {worst_at - 1.0:+.1e} above 1), "
           f"unstable at alpha = 1.05 (max {max_over:.4f})")


def test_criterion_03_scheme_equivalence(verdict):
    worst = 0.0
    for eps in (1.0, 1e-2, 1e-6):
        fields = {}
        for scheme in (AlignedScheme.IMEX, AlignedScheme.LAGRANGE,
                       AlignedScheme.MICRO_MACRO):
            res = run_aligned(sec5_config(scheme, eps), 100)
            fields[scheme] = res.snapshots[-1][1].values
        worst = max(worst,
                    float(np.max(np.abs(fields[AlignedScheme.IMEX]
                                        - fields[AlignedScheme.LAGRANGE]))),
                    float(np.max(np.abs(fields[AlignedScheme.IMEX]
                                        - fields[AlignedScheme.MICRO_MACRO]))))
    verdict(3, worst <= 1e-9,
           f"IMEX, micro-macro and Lagrange coincide after 100 steps for "
           f"eps down to 1e-6 (worst diff {worst:.1e})")


def test_criterion_04_first_order_convergence(tmp_path, verdict):
    t0 = time.perf_counter()
    slopes = {}
    fourier_spread = None
    for vary in ("dx", "dy", "dt"):
        schemes = ["imex", "micro-macro", "lagrange"]
        if vary == "dy":
            schemes.append("fourier")
        out = run_config(tmp_path, {"kind": "convergence", "name": vary,
                                    "vary": vary, "schemes": schemes}, vary)
        for row in (out / "slopes.csv").read_text().splitlines()[1:]:
            scheme, slope, spread = row.split(",")
            if scheme == "fourier":
                fourier_spread = float(spread)
            else:
                slopes[(vary, scheme)] = float(slope)
    wall = time.perf_counter() - t0
    ok_slopes = all(0.85 <= s <= 1.15 for s in slopes.values())
    ok = ok_slopes and fourier_spread < 0.05 and wall < 300.0
    lo, hi = min(slopes.values()), max(slopes.values())
    verdict(4, ok,
           f"first order in dx, dy, dt (slopes {lo:.3f}..{hi:.3f}), Fourier "
           f"y-error flat to {fourier_spread:.1e} ({wall:.0f} s)")


def test_criterion_05_condition_number_slopes(tmp_path, verdict):
    t0 = time.perf_counter()
    slopes = {}
    for toy in (1, 2):
        out = run_config(tmp_path, {"kind": "cond-sweep", "name": f"t{toy}",
                                    "toy": toy}, f"t{toy}")
        for row in (out / "slopes.csv").read_text().splitlines()[1:]:
            scheme, slope, _ = row.split(",")
            slopes[(toy, scheme)] = float(slope)
    wall = time.perf_counter() - t0
    steep = [slopes[(1, "imex")], slopes[(2, "imp")]]
    flat = [slopes[(1, "micro-macro")], slopes[(1, "lagrange")],
            slopes[(2, "lagrange")]]
    ok = (all(-1.1 <= s <= -0.9 for s in steep)
          and all(abs(s) <= 0.1 for s in flat) and wall < 120.0)
    verdict(5, ok,
           f"implicit families grow like 1/eps (slopes "
           f"{steep[0]:.3f}, {steep[1]:.3f}), reformulated families flat "
           f"(max |slope| {max(abs(s) for s in flat):.1e}) ({wall:.0f} s)")


def test_criterion_06_mass_conservation(verdict):
    i_mass = DIAGNOSTICS.index("mass")
    worst = 0.0
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 65, 65)
    for eps in (1.0, 1e-4):
        for scheme in AlignedScheme:
            model = AlignedModel(a=0.1, b=1.0, eps=eps, f_in=ic_gaussian)
            cfg = AlignedSchemeConfig(model, grid, 0.01, scheme)
            res = run_aligned(cfg, 100)
            masses = np.array([d[i_mass] for d in res.diagnostics])
            worst = max(worst, float(np.max(np.abs(masses - masses[0]))
                                     / abs(masses[0])))
    rgrid = make_grid2d(-3.0, 3.0, -3.0, 3.0, 40, 40)
    for eps in (1.0, 1e-4):
        for scheme in RotatingScheme:
            model = RotatingModel(eps, ic_gaussian)
            cfg = RotatingSchemeConfig(model, rgrid, 0.1, scheme=scheme)
            res = run_rotating(cfg, 100)
            masses = np.array([d[i_mass] for d in res.diagnostics])
            worst = max(worst, float(np.max(np.abs(masses - masses[0]))
                                     / abs(masses[0])))
    verdict(6, worst <= 1e-11,
           f"total mass conserved by all six schemes over 100 steps "
           f"(worst relative drift {worst:.1e})")


def test_criterion_07_ap_limit_at_zero_eps(verdict):
    grid = make_grid2d(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi, 65, 65)
    n_steps, dt, a = 20, 0.05, 0.1
    f0 = ic_two_mode(grid.x_nodes()[:, None], grid.y_nodes()[None, :])
    ubar = f0.mean(axis=1)
    lam = a * dt / grid.dx
    for _ in range(n_steps):
        ubar = ubar - lam * (ubar - np.roll(ubar, 1))
    worst = 0.0
    for scheme in (AlignedScheme.FOURIER, AlignedScheme.MICRO_MACRO,
                   AlignedScheme.LAGRANGE):
        model = AlignedModel(a=a, b=1.0, eps=0.0, f_in=ic_two_mode)
        cfg = AlignedSchemeConfig(model, grid, dt, scheme)
        vals = run_aligned(cfg, n_steps).snapshots[-1][1].values
        worst = max(worst, float(np.max(np.abs(vals - vals[:, :1]))),
                    float(np.max(np.abs(vals[:, 0] - ubar))))
    model = AlignedModel(a=a, b=1.0, eps=0.0, f_in=ic_two_mode)
    cfg = AlignedSchemeConfig(model, grid, dt, AlignedScheme.IMEX)
    with pytest.raises(SingularMatrixError):
        run_aligned(cfg, 1)
    verdict(7, worst <= 1e-10,
           f"eps = 0 steps reduce to upwind advection of the y-average "
           f"(worst deviation {worst:.1e}); IMEX correctly singular")


def test_criterion_08_eps_sweep_ordering(verdict):
    ok = True
    lines = []
    for scheme in AlignedScheme:
        vals = {}
        for eps in (1.0, 1e-4):
            cfg = sec5_config(scheme, eps)
            t_end, final = run_aligned(cfg, 100).snapshots[-1]
            vals[eps] = (error_eta(final, exact_aligned(cfg.model, t_end, cfg.grid)),
                         error_gamma(final, limit_aligned(cfg.model, t_end, cfg.grid)))
        ok = ok and vals[1.0][0] < vals[1e-4][0] and vals[1.0][1] > vals[1e-4][1]
        lines.append(f"{scheme.value} eta {vals[1.0][0]:.2e}<{vals[1e-4][0]:.2e}"
                     f" gamma {vals[1.0][1]:.2e}>{vals[1e-4][1]:.2e}")
    verdict(8, ok, "error to the exact solution grows and error to the limit "
                  "solution shrinks as eps drops (" + "; ".join(lines) + ")")


def test_criterion_09_rotating_ap_separation(verdict):
    grid = make_grid2d(-3.0, 3.0, -3.0, 3.0, 80, 80)
    dt = 1.0 / 64.0
    fields = {}
    for scheme, eps in ((RotatingScheme.LAGRANGE, 1e-8),
                        (RotatingScheme.LAGRANGE, 1e-4),
                        (RotatingScheme.IMP, 1e-8)):
        model = RotatingModel(eps, ic_gaussian)
        cfg = RotatingSchemeConfig(model, grid, dt, scheme=scheme)
        fields[(scheme, eps)] = run_rotating(cfg, 64).snapshots[-1][1].values
    ratio = (fields[(RotatingScheme.LAGRANGE, 1e-8)].max()
             / fields[(RotatingScheme.IMP, 1e-8)].max())
    diff = float(np.max(np.abs(fields[(RotatingScheme.LAGRANGE, 1e-8)]
                               - fields[(RotatingScheme.LAGRANGE, 1e-4)])))
    ok = ratio > 5.0 and diff <= 1.2 * _C9_FROZEN_DIFF
    verdict(9, ok,
           f"stabilized Lagrange retains the profile the implicit scheme "
           f"flattens (peak ratio {ratio:.0f}); eps-robustness within the "
           f"frozen envelope (diff {diff:.6g} vs {1.2 * _C9_FROZEN_DIFF:.6g})")


def test_criterion_10_solver_oracles(verdict):
    rng = np.random.default_rng(1234)
    worst_cyc = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        d = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        s = float(rng.uniform(-0.9, 0.9) * d)
        M = CyclicTridiag(n, d, s)
        rhs = rng.standard_normal(n)
        x = solve_cyclic(M, rhs)
        xd = np.linalg.solve(M.to_dense(), rhs)
        worst_cyc = max(worst_cyc, float(np.max(np.abs(x - xd))
                                         / max(1.0, np.max(np.abs(xd)))))
    worst_sp = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        dense = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        dense[np.diag_indices(n)] += rng.uniform(2.0, 4.0, n)
        rows, cols = np.nonzero(dense)
        M = assemble(n, n, rows, cols, dense[rows, cols])
        rhs = rng.standard_normal(n)
        x, _ = SparseFactor(M).solve(rhs)
        xd = np.linalg.solve(dense, rhs)
        worst_sp = max(worst_sp, float(np.max(np.abs(x - xd))
                                       / max(1.0, np.max(np.abs(xd)))))
    worst_cond = 0.0
    for n in (17, 63, 128, 200):
        for _ in range(5):
            dense = rng.standard_normal((n, n)) / np.sqrt(n)
            dense[np.diag_indices(n)] += rng.uniform(2.0, 4.0, n)
            rows, cols = np.nonzero(dense)
            M = assemble(n, n, rows, cols, dense[rows, cols])
            worst_cond = max(worst_cond, abs(cond2(M) - np.linalg.cond(dense, 2))
                             / np.linalg.cond(dense, 2))
    ok = worst_cyc <= 1e-11 and worst_sp <= 1e-11 and worst_cond <= 0.02
    verdict(10, ok,
           f"cyclic and sparse solvers match dense LU on 200 instances each "
           f"(worst {worst_cyc:.1e}, {worst_sp:.1e}); cond2 within "
           f"{worst_cond:.1e} of dense SVD")


def test_criterion_11_determinism(tmp_path, verdict):
    configs = [
        ({"kind": "amplification-check"}, "amp"),
        ({"kind": "rotating-run", "nx": 40, "ny": 40, "nt": 11,
          "schemes": ["imp", "lagrange"], "eps_list": [1e-8]}, "rot"),
    ]
    ok = True
    for entry, sub in configs:
        out_a = run_config(tmp_path, entry, f"{sub}_a")
        out_b = run_config(tmp_path, entry, f"{sub}_b")
        csvs_a = {p.name: p.read_bytes() for p in out_a.iterdir()
                  if p.suffix == ".csv"}
        csvs_b = {p.name: p.read_bytes() for p in out_b.iterdir()
                  if p.suffix == ".csv"}
        ok = ok and csvs_a and csvs_a == csvs_b
    verdict(11, ok, "repeated runs produce byte-identical CSV outputs")
