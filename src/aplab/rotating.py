"""Rigid-rotation toy model: exact solution and circle-average diagnostic.

The advection field (y, -x)/eps turns the initial condition around the
origin with period 2*pi*eps, so the exact solution is a pure rotation of
the data and averages over origin-centered circles are conserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field2D, Grid2D, sample

__all__ = ["RotatingModel", "ic_gaussian", "circle_average"]

N_QUAD = 256  # equispaced angles of circle_average's quadrature


def ic_gaussian(x, y):
    """Radial Gaussian with sigma = 0.5; invariant under any rotation."""
    return np.exp(-2.0 * (x * x + y * y))


@dataclass(frozen=True)
class RotatingModel:
    """Transport by the rotation field (y, -x)/eps."""

    eps: float
    f_in: Callable = ic_gaussian

    def __post_init__(self) -> None:
        if not np.isfinite(self.eps) or self.eps < 0.0:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")


def rotate(x, y, angle):
    """Rotate point(s) counterclockwise by ``angle`` about the origin."""
    c = np.cos(angle)
    s = np.sin(angle)
    return c * x - s * y, s * x + c * y


def exact_rotating(m: RotatingModel, t: float, grid: Grid2D) -> Field2D:
    """Exact solution at time t: the data rotated by the angle t/eps.

    The angle is reduced modulo 2*pi before the trigonometric evaluation,
    so large t/eps loses no precision beyond the reduction itself.
    """
    if m.eps <= 0.0:
        raise ValueError("exact solution needs eps > 0 (rotation angle t/eps)")
    angle = np.mod(t / m.eps, 2.0 * np.pi)

    def turned(x, y):
        xr, yr = rotate(x, y, angle)
        return m.f_in(xr, yr)

    return sample(grid, turned)


def _bilinear_periodic(f: Field2D, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation with periodic index wrap."""
    g = f.grid
    nx1, ny1 = g.nx - 1, g.ny - 1
    u = (np.asarray(xs, dtype=float) - g.x_min) / g.dx
    v = (np.asarray(ys, dtype=float) - g.y_min) / g.dy
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0
    i0 %= nx1
    j0 %= ny1
    i1 = (i0 + 1) % nx1
    j1 = (j0 + 1) % ny1
    V = f.values
    return ((1.0 - fu) * (1.0 - fv) * V[i0, j0] + fu * (1.0 - fv) * V[i1, j0]
            + (1.0 - fu) * fv * V[i0, j1] + fu * fv * V[i1, j1])


def circle_average(f: Field2D, radius: float) -> float:
    """Mean of f over an origin-centered circle of the given radius.

    Values on the circle come from bilinear interpolation at ``N_QUAD``
    equispaced angles. The circle must lie inside the domain; the
    interpolation error is O(dx^2), so this is a diagnostic, not a scheme
    ingredient.
    """
    if not np.isfinite(radius) or radius < 0.0:
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    g = f.grid
    if g.x_min > -radius or g.x_max < radius or g.y_min > -radius or g.y_max < radius:
        raise ValueError(
            f"circle of radius {radius} reaches outside the domain "
            f"[{g.x_min}, {g.x_max}] x [{g.y_min}, {g.y_max}]")
    theta = 2.0 * np.pi * np.arange(N_QUAD) / N_QUAD
    vals = _bilinear_periodic(f, radius * np.cos(theta), radius * np.sin(theta))
    return float(vals.mean())
