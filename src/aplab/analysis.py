"""Error metrics, convergence-order fits, amplification factors, conditioning.

The quantitative layer on top of the schemes: L-infinity errors against the
exact and limit solutions, log-log slope estimation with knee trimming,
von Neumann amplification factors in closed form and, for every mode at
once, from one impulse step, and condition number sweeps over the
stiffness parameter.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .aligned_schemes import (AlignedScheme, AlignedSchemeConfig,
                              aligned_lagrange_matrix, make_aligned_stepper)
from .grid import Field2D
from .linalg import ConvergenceError, CyclicTridiag, SingularMatrixError, cond2
from .rotating_schemes import RotatingScheme, assemble_imp, assemble_lagrange_rot

__all__ = [
    "error_eta", "error_gamma",
    "fit_loglog_slope", "xi_imex", "amplification_factors", "cond_sweep",
    "cond_family_aligned", "cond_family_rotating",
]


def error_eta(f_num: Field2D, f_ex: Field2D) -> float:
    """Largest nodal difference between a numerical and a reference field."""
    if f_num.grid != f_ex.grid:
        raise ValueError("fields live on different grids")
    return float(np.max(np.abs(f_num.values - f_ex.values)))


def error_gamma(f_num: Field2D, f0: np.ndarray) -> float:
    """Largest nodal difference between a field and a y-independent profile."""
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != (f_num.grid.nx - 1,):
        raise ValueError(
            f"profile has shape {f0.shape}, expected ({f_num.grid.nx - 1},)")
    return float(np.max(np.abs(f_num.values - f0[:, None])))


def _fit_window(log_h: np.ndarray, log_e: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and relative residual (0 for perfectly flat data)."""
    slope, intercept = np.polyfit(log_h, log_e, 1)
    resid = log_e - (slope * log_h + intercept)
    spread = float(np.std(log_e))
    rel = float(np.sqrt(np.mean(resid ** 2)) / spread) if spread > 0.0 else 0.0
    return float(slope), rel


def fit_loglog_slope(step_sizes, errors) -> tuple[float, tuple[int, int]]:
    """Fit log(error) against log(step size); returns (slope, (start, stop)).

    Step sizes must be strictly decreasing, and both step sizes and errors
    positive and finite.
    When the full-range fit has a relative residual above 5%, the head and
    tail are trimmed: the longest contiguous window (>= 3 points) whose fit
    passes the threshold is retained. If no window passes, the best window
    covering at least half the data is used. ``[start, stop)`` is the index
    window the slope was fitted on.
    """
    step_sizes = np.asarray(step_sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if step_sizes.ndim != 1 or step_sizes.shape != errors.shape:
        raise ValueError("step_sizes and errors must be 1-d and equally long")
    if np.any(np.diff(step_sizes) >= 0.0):
        raise ValueError("step_sizes must be strictly decreasing")
    for name, values in (("step_sizes", step_sizes), ("errors", errors)):
        # checked before the logarithms, which would hand -inf or NaN to polyfit
        if not np.all((values > 0.0) & np.isfinite(values)):
            raise ValueError(f"{name} must be positive and finite")
    n = step_sizes.size
    if n < 3:
        raise ValueError(f"slope fit needs >= 3 points, got {n}")
    log_h = np.log(step_sizes)
    log_e = np.log(errors)

    slope, rel = _fit_window(log_h, log_e)
    window = (0, n)
    if rel > 0.05:
        passing = []
        fallback = []
        for i in range(n - 2):
            for j in range(i + 3, n + 1):
                s, r = _fit_window(log_h[i:j], log_e[i:j])
                if r <= 0.05:
                    passing.append((j - i, -r, i, j, s))
                if j - i >= max(3, (n + 1) // 2):
                    fallback.append((-r, j - i, i, j, s))
        if passing:
            _, _, i, j, slope = max(passing)
        else:
            _, _, i, j, slope = max(fallback)
        window = (i, j)
    return slope, window


def xi_imex(alpha: float, beta: float, eps: float, k: int, l: int,
            dx: float, dy: float) -> float:
    """Closed-form amplification modulus of the implicit-explicit scheme.

    |xi| = eps * sqrt[(1 - 4 a (1-a) sin^2(k dx/2)) /
                      (eps^2 + 4 b (eps+b) sin^2(l dy/2))]
    with a = alpha, b = beta. ``k`` and ``l`` are physical wavenumbers (the
    per-cell phases are k*dx and l*dy). When the mode does not see the stiff
    direction (sin term zero) the eps ratio cancels and the explicit-part
    factor alone remains, which is also the eps = 0 continuation.
    """
    s_k = np.sin(0.5 * k * dx) ** 2
    s_l = np.sin(0.5 * l * dy) ** 2
    num = max(1.0 - 4.0 * alpha * (1.0 - alpha) * s_k, 0.0)
    if s_l == 0.0:
        return float(np.sqrt(num))
    den = eps * eps + 4.0 * beta * (eps + beta) * s_l
    return float(eps * np.sqrt(num / den))


def amplification_factors(cfg: AlignedSchemeConfig) -> np.ndarray:
    """Complex one-step amplification factor of every mode, from one impulse step.

    The aligned schemes are linear and shift-invariant on the periodic grid,
    so one step of a unit impulse at node (0, 0) is the kernel of the step's
    circular convolution, and its 2-D FFT is the step's symbol: entry
    ``[k % (nx-1), l % (ny-1)]`` is xi(k, l), the factor of the mode
    e^{i(k wx x + l wy y)}.
    """
    impulse = np.zeros((cfg.grid.nx - 1, cfg.grid.ny - 1))
    impulse[0, 0] = 1.0
    stepper = make_aligned_stepper(cfg)
    state, _ = stepper.step(stepper.initial(Field2D(cfg.grid, impulse)))
    return np.fft.fft2(state.field.values)


def cond_sweep(matrix_family, eps_list) -> list:
    """Condition numbers of ``matrix_family(eps)`` over a list of eps values.

    Entries whose estimation fails (singular matrix, stalled iteration) are
    recorded as NaN and the sweep continues. Returns [(eps, cond2), ...].
    """
    out = []
    for eps in eps_list:
        try:
            value = cond2(matrix_family(eps))
        except (SingularMatrixError, ConvergenceError):
            value = float("nan")
        out.append((float(eps), value))
    return out


def _imex_matrix(m: int, beta: float, eps: float) -> sp.csr_matrix:
    return CyclicTridiag(m, eps + beta, -beta).to_sparse()


def _micro_macro_matrix(m: int, beta: float, eps: float) -> sp.csr_matrix:
    # Helmert's orthonormal zero-sum basis: the singular values are the restriction's
    Q = scipy.linalg.helmert(m, full=False).T
    return sp.csr_matrix(Q.T @ _imex_matrix(m, beta, eps).toarray() @ Q)


def cond_family_aligned(scheme, m: int, beta: float):
    """Per-column system family eps -> CSR matrix for an aligned scheme.

    The micro-macro family is the cyclic system restricted to the zero-mean
    subspace. The Fourier scheme solves no linear system and has no family.
    A family is a ``functools.partial`` of a module function: it pickles,
    and it builds no matrix until it is called.
    """
    scheme = AlignedScheme(scheme)
    if scheme is AlignedScheme.FOURIER:
        raise ValueError(f"scheme {scheme.value} solves no linear system")
    matrix = {AlignedScheme.IMEX: _imex_matrix, AlignedScheme.MICRO_MACRO: _micro_macro_matrix,
              AlignedScheme.LAGRANGE: aligned_lagrange_matrix}[scheme]
    return functools.partial(matrix, m, beta)


def cond_family_rotating(scheme, grid, dt: float, gamma: float = 0.91):
    """System matrix family eps -> CSR matrix for a rotation scheme, a
    ``functools.partial`` like those of ``cond_family_aligned``."""
    if RotatingScheme(scheme) is RotatingScheme.IMP:
        return functools.partial(assemble_imp, grid, dt=dt)
    return functools.partial(assemble_lagrange_rot, grid, dt=dt, gamma=gamma)
