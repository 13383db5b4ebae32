"""Fully implicit and multiplier-stabilized schemes for the rotation model.

Both schemes use the same variable-coefficient upwind operator U for
y*d/dx - x*d/dy. The fully implicit scheme solves (Id + dt/eps U) f = f^n
and degrades as eps shrinks; the multiplier scheme eliminates the f half of
its 2M x 2M block system and solves the M x M Schur complement, a quadratic
in U, through LU factors of U shifted by its roots. The complement stays
nonsingular down to eps = 0; the shifted factors fill far less than its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .aligned_schemes import _plain
from .grid import Field2D, Grid2D
from .linalg import SolveStats, SparseFactor
from .results import RunResult, run_steps
from .rotating import RotatingModel

__all__ = [
    "RotatingScheme", "RotatingSchemeConfig",
    "assemble_imp",
    "assemble_lagrange_rot", "run_rotating",
]


class RotatingScheme(Enum):
    IMP = "imp"
    LAGRANGE = "lagrange"


@dataclass(frozen=True)
class RotatingSchemeConfig:
    """Model, grid, time step, stabilization exponent, scheme selection."""

    model: RotatingModel
    grid: Grid2D
    dt: float
    gamma: float = 0.91
    scheme: RotatingScheme = RotatingScheme.IMP

    def __post_init__(self) -> None:
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError(f"time step must be finite and > 0, got {self.dt}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not np.isfinite(self.r_x) or not np.isfinite(self.r_y):
            raise ValueError("ratios dt/dx, dt/dy must be finite")
        if not isinstance(self.scheme, RotatingScheme):
            object.__setattr__(self, "scheme", RotatingScheme(self.scheme))

    @property
    def r_x(self) -> float:
        return self.dt / self.grid.dx

    @property
    def r_y(self) -> float:
        return self.dt / self.grid.dy


@functools.lru_cache(maxsize=16)
def upwind_rotation_matrix(grid: Grid2D) -> sp.csr_matrix:
    """Upwind discretization of y*d/dx - x*d/dy as a sparse matrix.

    Unknown (i, j) sits at flat index i*(ny-1) + j; five-point pattern
    with periodic wrap: a backward difference in x where y > 0, a forward
    one where y < 0, and a forward (backward) difference in y where x > 0
    (x < 0). Every off-diagonal coefficient is paired with an
    equal-magnitude diagonal contribution in the same column, so column
    sums (and the mass change per application) vanish to roundoff.
    """
    nx1, ny1 = grid.nx - 1, grid.ny - 1
    x, y = grid.x_nodes(), grid.y_nodes()
    I, J = np.meshgrid(np.arange(nx1), np.arange(ny1), indexing="ij")
    I, J = I.ravel(), J.ravel()
    center = I * ny1 + J
    yp = np.maximum(y, 0.0)[J] / grid.dx
    ym = np.minimum(y, 0.0)[J] / grid.dx
    xp = np.maximum(x, 0.0)[I] / grid.dy
    xm = np.minimum(x, 0.0)[I] / grid.dy
    rows = np.concatenate([center] * 5)
    cols = np.concatenate([
        center,
        ((I - 1) % nx1) * ny1 + J,
        ((I + 1) % nx1) * ny1 + J,
        I * ny1 + (J + 1) % ny1,
        I * ny1 + (J - 1) % ny1,
    ])
    vals = np.concatenate([(yp - ym) + (xp - xm), -yp, ym, -xp, xm])
    return sp.csr_matrix((vals, (rows, cols)), shape=(nx1 * ny1, nx1 * ny1))


def stabilization(grid: Grid2D, gamma: float) -> float:
    """s = (dx dy)^gamma of the multiplier system; inf where it overflows."""
    try:
        return (grid.dx * grid.dy) ** gamma
    except OverflowError:
        return math.inf


def assemble_imp(grid: Grid2D, eps: float, dt: float) -> sp.csr_matrix:
    """System matrix Id + (dt/eps) U of the fully implicit scheme.

    Rejected at eps = 0: the scheme divides by eps and has no limit form.
    Rows sum to one since U rows sum to zero.
    """
    if not (eps > 0.0):
        raise ValueError(f"fully implicit scheme needs eps > 0, got {eps}")
    U = upwind_rotation_matrix(grid)
    return sp.identity(U.shape[0], format="csr") + (dt / eps) * U


def assemble_lagrange_rot(grid: Grid2D, eps: float, dt: float,
                          gamma: float = 0.91) -> sp.csr_matrix:
    """Block system for (f, q): [[Id, dt U], [U, -eps U - (dx dy)^gamma Id]].

    This is the matrix whose conditioning ``cond-sweep`` toy 2 measures and
    the reference the tests hold the stepper to; ``LagrangeRotatingStepper``
    solves its Schur complement instead, through shifted factors of U.
    The (dx dy)^gamma term stabilizes the q-block, which would otherwise
    share the kernel of U; the system stays nonsingular for every eps >= 0.
    The sign matters: eliminating q gives the per-mode growth factor
    (eps lam + s) / (dt lam^2 + eps lam + s) on an eigenvalue lam of U,
    which is <= 1 for every near-real mode. The opposite sign puts
    isolated near-real modes of U in resonance (dt lam^2 ~ s) and the
    step amplifies them without bound.
    At eps = 0 the stable band is exact: with lam = a + ib, the factor
    s / (dt lam^2 + s) is <= 1 exactly when b^2 <= a^2 or s/dt <=
    |lam|^4 / (2 (b^2 - a^2)). The least such bound over the eigenvalues of
    U is 0.5388 on 21^2, 0.5096 on 41^2 and 0.5025 on 80^2, so s <= dt/2
    suffices there; acceptance criterion 9 (80^2) runs above it, at
    s/dt = 0.587. For eps > 0 the band is only measured: at dt ~ dx/2 on
    21^2 to 61^2 grids the largest factor is 1 for s/dt <= 0.50.
    """
    U = upwind_rotation_matrix(grid)
    M = U.shape[0]
    Id = sp.identity(M, format="csr")
    return sp.bmat([[Id, dt * U], [U, -eps * U - stabilization(grid, gamma) * Id]],
                   format="csr")


class ImpStepper:
    initial = staticmethod(_plain)

    def __init__(self, cfg: RotatingSchemeConfig):
        self.cfg = cfg
        self.factor = SparseFactor(assemble_imp(cfg.grid, cfg.model.eps, cfg.dt))

    def step(self, f: Field2D) -> tuple[Field2D, SolveStats]:
        flat, stats = self.factor.solve(f.values.ravel())
        vals = flat.reshape(f.values.shape)
        return f.with_values(vals), stats


class _ShiftedFactor(SparseFactor):
    """S = dt U^2 + eps U + s Id solved as dt (U - r1 Id)(U - r2 Id).

    r1, r2 are the roots of dt r^2 + eps r + s. Real roots get one LU each,
    with r2 = s / (dt r1) to avoid cancellation; a complex pair gets one
    complex LU F of U - r1 Id, and the conj(r1) solve is conj(F^-1 conj(y)).
    Re r < 0 (r is imaginary at eps = 0) and the off-diagonal column sums of
    U equal its diagonal, so each U - r Id is column diagonally dominant and
    ``SparseFactor`` keeps U's sparsity. S is never factored or stored: ``solve``
    refines against its action through U; ``norm1`` is taken once, before the LUs.
    """

    def __init__(self, U: sp.csr_matrix, dt: float, eps: float, s: float):
        Id = sp.identity(U.shape[0], format="csr")
        self.norm1 = float(abs(dt * (U @ U) + eps * U + s * Id).sum(axis=0).max())

        def apply_s(q: np.ndarray) -> np.ndarray:
            Uq = U @ q
            return dt * (U @ Uq) + eps * Uq + s * q

        self.matrix = spla.LinearOperator(U.shape, matvec=apply_s, dtype=float)
        self.dt = dt
        c = 2.0 * np.sqrt(dt * s)  # double root at eps = c
        if eps >= c:  # sqrt((eps - c)(eps + c)) neither cancels nor overflows
            r1 = -(eps + np.sqrt(eps - c) * np.sqrt(eps + c)) / (2.0 * dt)
            shifts = (r1, s / (dt * r1))
        else:
            shifts = (complex(-eps, np.sqrt(c - eps) * np.sqrt(c + eps)) / (2.0 * dt),)
        self._shifted = []
        for r in shifts:  # handed over in CSC, which splu takes without a copy
            factor = SparseFactor((U - r * Id).tocsc())
            del factor.matrix  # only raw-solved: frees U - r Id before the next LU
            self._shifted.append(factor)

    def raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._shifted[0].raw_solve(rhs)
        if len(self._shifted) == 2:
            return self._shifted[1].raw_solve(y) / self.dt
        # the conj(r1) solve, real part kept: Re conj(F^-1 conj(y)) = Re F^-1 conj(y)
        return self._shifted[0].raw_solve(y.conj()).real / self.dt


class LagrangeRotatingStepper:
    """Multiplier scheme stepped through the Schur complement of ``assemble_lagrange_rot``.

    Each step solves (dt U^2 + eps U + s Id) q = U f^n, s = (dx dy)^gamma,
    with ``_ShiftedFactor``, which keeps only its shifted LUs and this U, and
    sets f = f^n - dt U q. The column sums of U vanish, so that update
    conserves mass whatever the q solve's residual.
    Its stable band is that of ``assemble_lagrange_rot``: exact at eps = 0
    (s/dt below 0.5388 on 21^2, 0.5096 on 41^2, 0.5025 on 80^2, where
    acceptance criterion 9 runs at s/dt = 0.587), only measured for eps > 0.
    """

    initial = staticmethod(_plain)

    def __init__(self, cfg: RotatingSchemeConfig):
        self.cfg = cfg
        self.U = U = upwind_rotation_matrix(cfg.grid)
        self.factor = _ShiftedFactor(U, cfg.dt, cfg.model.eps,
                                     stabilization(cfg.grid, cfg.gamma))

    def step(self, f: Field2D) -> tuple[Field2D, SolveStats]:
        fn = f.values.ravel()
        q, stats = self.factor.solve(self.U @ fn)
        return f.with_values((fn - self.cfg.dt * (self.U @ q)).reshape(f.values.shape)), stats


_STEPPERS = {
    RotatingScheme.IMP: ImpStepper,
    RotatingScheme.LAGRANGE: LagrangeRotatingStepper,
}


def run_rotating(cfg: RotatingSchemeConfig, n_steps: int) -> RunResult:
    """Iterate the selected scheme from the sampled initial condition."""
    return run_steps(cfg, _STEPPERS[cfg.scheme], n_steps)
