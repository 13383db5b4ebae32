"""Four time discretizations of the field-aligned transport model.

All schemes share the first-order upwind stencil in x (explicit) and differ
in how they treat the stiff y-transport: implicit upwind solved per column
(imex), exact diagonal update in Fourier space (fourier), mean/fluctuation
splitting (micro-macro), and a multiplier reformulation whose column systems
stay solvable down to eps = 0 (lagrange).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .aligned import AlignedModel, _row_means, y_average
from .grid import Field2D, Grid2D
from .linalg import CyclicTridiag, SolveStats, SparseFactor, _max_abs, solve_cyclic
from .results import RunResult, run_steps

__all__ = [
    "AlignedScheme", "AlignedSchemeConfig", "run_aligned", "aligned_lagrange_matrix",
]


class AlignedScheme(Enum):
    IMEX = "imex"
    FOURIER = "fourier"
    MICRO_MACRO = "micro-macro"
    LAGRANGE = "lagrange"


@dataclass(frozen=True)
class AlignedSchemeConfig:
    """Model, grid, time step, and scheme selection.

    The derived ratios alpha = a*dt/dx (explicit part) and beta = b*dt/dy
    (implicit part) must be finite; alpha <= 1 is the stability boundary of
    the explicit part but is deliberately not enforced here, so instability
    experiments can cross it.
    """

    model: AlignedModel
    grid: Grid2D
    dt: float
    scheme: AlignedScheme = AlignedScheme.IMEX

    def __post_init__(self) -> None:
        if not (self.dt > 0.0) or not np.isfinite(self.dt):
            raise ValueError(f"time step must be finite and > 0, got {self.dt}")
        if not np.isfinite(self.alpha) or not np.isfinite(self.beta) or self.beta <= 0.0:
            raise ValueError(f"derived ratios alpha={self.alpha}, beta={self.beta} invalid")
        if not isinstance(self.scheme, AlignedScheme):
            object.__setattr__(self, "scheme", AlignedScheme(self.scheme))

    @property
    def alpha(self) -> float:
        return self.model.a * self.dt / self.grid.dx

    @property
    def beta(self) -> float:
        return self.model.b * self.dt / self.grid.dy


@dataclass(frozen=True)
class MicroMacroState:
    """Mean part over y (macro, one value per x-node) plus fluctuation.

    The fluctuation keeps a zero column mean; construction checks it. The
    mass counts the macro part once per stored y-node.
    """

    H: np.ndarray
    h: Field2D

    def __post_init__(self) -> None:
        H = np.asarray(self.H, dtype=float)
        if H.shape != (self.h.grid.nx - 1,):
            raise ValueError(f"macro part has shape {H.shape}, expected ({self.h.grid.nx - 1},)")
        object.__setattr__(self, "H", H)
        drift = _max_abs(_row_means(self.h.values))
        scale = max(1.0, _max_abs(self.h.values))
        if drift > 1e-10 * scale:
            raise ValueError(f"fluctuation column means are off zero by {drift:.3e}")

    @classmethod
    def from_field(cls, f: Field2D) -> "MicroMacroState":
        H = y_average(f)
        return cls(H, f.with_values(f.values - H[:, None]))

    @property
    def field(self) -> Field2D:
        return self.h.with_values(self.H[:, None] + self.h.values)

    def mass(self) -> float:
        ny1 = self.h.grid.ny - 1
        return float(ny1 * self.H.sum() + self.h.mass())


def upwind_x(values: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """Explicit first-order upwind step along axis 0 (orientation a >= 0).

    Written into ``out`` when given, which must not overlap ``values``;
    returns the result either way.
    """
    diff = np.empty_like(values, dtype=np.result_type(values, alpha)) if out is None else out
    if alpha == 0.0:
        diff[...] = values
        return diff
    # values - alpha * (values - roll(values, 1)), without roll's temporaries
    np.subtract(values[1:], values[:-1], out=diff[1:])
    np.subtract(values[:1], values[-1:], out=diff[:1])
    diff *= alpha
    return np.subtract(values, diff, out=diff)


# ---------------------------------------------------------------------------
# steppers (one instance per run, factorizations cached); ``initial`` turns
# the sampled field into the scheme's state. A stepper keeps its work
# buffers for its run and makes them at its first step, after any
# factorization: freed and made again every step, arrays this size go back
# to the system and are faulted in anew (see the README).


def _plain(f0: Field2D) -> Field2D:
    return f0


class ImexStepper:
    initial = staticmethod(_plain)

    def __init__(self, cfg: AlignedSchemeConfig):
        self.cfg = cfg
        eps = cfg.model.eps
        # keep eps + beta unevaluated: rounding it shifts the smallest
        # eigenvalue (exactly eps) by u * beta, which swamps small eps
        self.matrix = CyclicTridiag.from_sum(cfg.grid.ny - 1, eps, cfg.beta,
                                             -cfg.beta)
        self._rhs = None

    def solve(self, values: np.ndarray) -> np.ndarray:
        """The values one step after ``values``, as a fresh array."""
        cfg = self.cfg
        self._rhs = rhs = upwind_x(values, cfg.alpha, out=self._rhs)
        rhs *= cfg.model.eps
        return solve_cyclic(self.matrix, rhs.T).T

    def step(self, f: Field2D) -> tuple[Field2D, SolveStats]:
        # solve_cyclic keeps no statistics, so the step reports none
        return f.with_values(self.solve(f.values)), SolveStats(0.0, 0)


class FourierStepper:
    initial = staticmethod(_plain)

    def __init__(self, cfg: AlignedSchemeConfig):
        self.cfg = cfg
        self.m = cfg.grid.ny - 1
        # the real FFT keeps k = 0 .. m//2; at even m irfft reads only the real
        # part of the Nyquist bin, so it sees Re(xi) as the full FFT did
        ks = np.arange(self.m // 2 + 1)
        eps = cfg.model.eps
        if eps > 0.0:
            omega_y = 2.0 * np.pi / cfg.grid.ly
            self.factor = 1.0 / (1.0 + 1j * omega_y * ks * cfg.model.b * cfg.dt / eps)
        else:
            self.factor = (ks == 0).astype(complex)
        self._spectrum = self._coeffs = self._values = None

    def step(self, f: Field2D) -> tuple[Field2D, SolveStats]:
        self._spectrum = np.fft.rfft(f.values, axis=1, out=self._spectrum)
        self._coeffs = coeffs = upwind_x(self._spectrum, self.cfg.alpha, out=self._coeffs)
        coeffs *= self.factor
        self._values = np.fft.irfft(coeffs, n=self.m, axis=1, out=self._values)
        return f.with_values(self._values), SolveStats(0.0, 0)


class MicroMacroStepper:
    initial = MicroMacroState.from_field

    def __init__(self, cfg: AlignedSchemeConfig):
        self.cfg = cfg
        self.inner = ImexStepper(cfg) if cfg.model.eps > 0.0 else None

    def step(self, s: MicroMacroState) -> tuple[MicroMacroState, SolveStats]:
        cfg = self.cfg
        H_new = upwind_x(s.H, cfg.alpha)
        if self.inner is None:
            h = np.zeros_like(s.h.values)
        else:
            h = self.inner.solve(s.h.values)
            # re-projection removes roundoff drift; exact step keeps mean zero
            h -= _row_means(h)[:, None]
        return MicroMacroState(H_new, s.h.with_values(h)), SolveStats(0.0, 0)


def aligned_lagrange_matrix(m: int, beta: float, eps: float):
    """Per-column system for (field, multiplier) unknowns, size 2m.

    Rows 0..m-1: evolution with the implicit multiplier difference.
    Rows m..2m-2: the constraint rows for j = 2..m (the cyclic set is
    rank-deficient by one, so the j = 1 row is dropped).
    Row 2m-1: pins the multiplier at the first y-node to zero.
    """
    jj = np.arange(m)
    rows = [jj, jj, jj]
    cols = [jj, m + jj, m + (jj - 1) % m]
    vals = [np.ones(m), np.full(m, beta), np.full(m, -beta)]
    r2 = m - 1 + np.arange(1, m)
    j2 = np.arange(1, m)
    rows += [r2, r2, r2, r2]
    cols += [j2, j2 - 1, m + j2, m + j2 - 1]
    vals += [np.ones(m - 1), -np.ones(m - 1), np.full(m - 1, -eps), np.full(m - 1, eps)]
    rows.append(np.array([2 * m - 1]))
    cols.append(np.array([m]))
    vals.append(np.array([1.0]))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(2 * m, 2 * m))


class LagrangeAlignedStepper:
    initial = staticmethod(_plain)

    def __init__(self, cfg: AlignedSchemeConfig):
        self.cfg = cfg
        m = cfg.grid.ny - 1
        self.m = m
        self.factor = SparseFactor(aligned_lagrange_matrix(m, cfg.beta, cfg.model.eps))
        self._rhs = None

    def step(self, f: Field2D) -> tuple[Field2D, SolveStats]:
        cfg = self.cfg
        m = self.m
        if self._rhs is None:
            # the multiplier half of the right-hand side stays zero
            self._rhs = np.zeros((2 * m, cfg.grid.nx - 1))
        upwind_x(f.values, cfg.alpha, out=self._rhs[:m].T)
        sol, stats = self.factor.solve(self._rhs)
        # the multiplier half sol[m:] is not carried to the next step
        return f.with_values(sol[:m].T), stats


_STEPPERS = {
    AlignedScheme.IMEX: ImexStepper,
    AlignedScheme.FOURIER: FourierStepper,
    AlignedScheme.MICRO_MACRO: MicroMacroStepper,
    AlignedScheme.LAGRANGE: LagrangeAlignedStepper,
}


def make_aligned_stepper(cfg: AlignedSchemeConfig):
    return _STEPPERS[cfg.scheme](cfg)


def run_aligned(cfg: AlignedSchemeConfig, n_steps: int,
                snapshot_steps=None) -> RunResult:
    """Iterate the selected scheme from the sampled initial condition."""
    return run_steps(cfg, make_aligned_stepper, n_steps, snapshot_steps)
