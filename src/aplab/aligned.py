"""Field-aligned constant-coefficient transport: exact solution and limit.

The model advects with speed ``a`` in x and ``b/eps`` in y on a doubly
periodic rectangle. As ``eps`` shrinks, the y-transport becomes stiff and
the solution converges (weakly) to the advected y-average, which is the
reference the limit diagnostics compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field2D, Grid2D, sample

__all__ = [
    "AlignedModel", "exact_aligned", "y_average", "limit_aligned",
    "ic_two_mode",
]


def ic_two_mode(x, y):
    """Default initial profile sin(x) * (cos(2y) + 1)."""
    return np.sin(x) * (np.cos(2.0 * y) + 1.0)


@dataclass(frozen=True)
class AlignedModel:
    """Transport speeds, stiffness parameter, and initial condition.

    ``a`` may be zero (pure 1D fast transport); negative speeds are outside
    the upwind orientation and rejected. ``eps == 0`` selects the formal
    limit regime handled by the schemes that support it.
    """

    a: float
    b: float
    eps: float
    f_in: Callable = ic_two_mode

    def __post_init__(self) -> None:
        if not (self.a >= 0.0) or not np.isfinite(self.a):
            raise ValueError(f"x-speed must be finite and >= 0, got {self.a}")
        if not (self.b > 0.0) or not np.isfinite(self.b):
            raise ValueError(f"y-speed must be finite and > 0, got {self.b}")
        if not (self.eps >= 0.0) or not np.isfinite(self.eps):
            raise ValueError(f"stiffness parameter must be finite and >= 0, got {self.eps}")


def exact_aligned(m: AlignedModel, t: float, grid: Grid2D) -> Field2D:
    """Exact solution: the initial condition traced back along characteristics.

    The characteristic feet are reduced modulo the periods before sampling,
    so phases stay accurate for very small ``eps`` (t/eps up to ~1e13; below
    that the single rounding of b*t/eps dominates and pointwise error
    diagnostics carry the corresponding phase uncertainty).
    """
    if m.eps <= 0.0:
        raise ValueError("exact pointwise solution is undefined at eps = 0; use limit_aligned")
    shift_x = np.mod(m.a * t, grid.lx)
    shift_y = np.mod(m.b * t / m.eps, grid.ly)

    def shifted(x, y):
        fx = grid.x_min + np.mod(x - shift_x - grid.x_min, grid.lx)
        fy = grid.y_min + np.mod(y - shift_y - grid.y_min, grid.ly)
        return m.f_in(fx, fy)

    return sample(grid, shifted)


def _row_means(values: np.ndarray) -> np.ndarray:
    """``mean(axis=1)`` of ``values`` in C order, bit for bit, whatever their
    layout (numpy sums a contiguous row pairwise, a strided one in order),
    without ``mean``'s set-up, which costs more than the sum on thin grids."""
    return np.add.reduce(np.ascontiguousarray(values), axis=1) / values.shape[1]


def y_average(f: Field2D) -> np.ndarray:
    """Discrete mean over the independent y-nodes for each x-node.

    On periodic equispaced data the plain mean is the trapezoid rule.
    """
    return _row_means(f.values)


def limit_aligned(m: AlignedModel, t: float, grid: Grid2D) -> np.ndarray:
    """Limit profile: the y-averaged initial condition advected by ``a``.

    Returns a vector over the independent x-nodes. The y-average of the
    initial condition is evaluated on the grid's own y-nodes, consistent
    with ``y_average`` of a sampled field.
    """
    def advected(x, y):
        return m.f_in(grid.x_min + np.mod(x - m.a * t - grid.x_min, grid.lx), y)

    return y_average(sample(grid, advected))
