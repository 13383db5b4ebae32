"""Periodic rectangular grids and node-sampled scalar fields.

The convention throughout: a grid of ``nx`` by ``ny`` nodes covers
``[x_min, x_max] x [y_min, y_max]`` with the last node in each direction an
alias of the first (periodic closure). Only the ``(nx-1) x (ny-1)``
independent unknowns are stored; the alias is materialized at output time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid2D", "Field2D", "make_grid2d", "sample"]


@dataclass(frozen=True)
class Grid2D:
    """Uniform doubly periodic grid.

    Node ``i`` (1-based) carries coordinate ``x_min + (i-1)*dx`` for
    ``i = 1..nx``; node ``nx`` aliases node 1, likewise in y.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    dx: float
    dy: float

    @property
    def lx(self) -> float:
        return self.x_max - self.x_min

    @property
    def ly(self) -> float:
        return self.y_max - self.y_min

    def x_nodes(self) -> np.ndarray:
        """Coordinates of the nx-1 independent x-nodes."""
        return self.x_min + self.dx * np.arange(self.nx - 1)

    def y_nodes(self) -> np.ndarray:
        """Coordinates of the ny-1 independent y-nodes."""
        return self.y_min + self.dy * np.arange(self.ny - 1)


def make_grid2d(x_min: float, x_max: float, y_min: float, y_max: float,
                nx: int, ny: int) -> Grid2D:
    """Build a periodic grid with ``nx`` x ``ny`` nodes (alias included).

    Spacings are ``dx = (x_max-x_min)/(nx-1)`` and likewise for ``dy``.
    Raises ValueError for node counts below 3 and for bounds whose spacing
    is not finite and > 0 (bounds a few ulps apart can give dx = 0).
    """
    if nx < 3 or ny < 3:
        raise ValueError(f"invalid dimension: need nx >= 3 and ny >= 3, got {nx} x {ny}")
    dx = (x_max - x_min) / (nx - 1)
    dy = (y_max - y_min) / (ny - 1)
    if not (0.0 < dx < np.inf and 0.0 < dy < np.inf):
        raise ValueError(f"invalid dimension: spacings dx = {dx}, dy = {dy} of "
                         f"[{x_min}, {x_max}] x [{y_min}, {y_max}] must be finite and > 0")
    return Grid2D(float(x_min), float(x_max), float(y_min), float(y_max),
                  int(nx), int(ny), dx, dy)


@dataclass(frozen=True, eq=False)
class Field2D:
    """Scalar samples on the independent grid nodes.

    ``values[i, j]`` lives at ``(x_nodes()[i], y_nodes()[j])``. Values are
    validated finite on construction, so a blown-up step surfaces as an
    error instead of propagating NaNs. The check sums the copy, which is
    finite whenever every entry is, and scans entry by entry only when the
    sum is not (a NaN or an infinity, or finite entries whose sum
    overflows); ``mass()`` returns that sum.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        expected = (self.grid.nx - 1, self.grid.ny - 1)
        if vals.shape != expected:
            raise ValueError(f"field shape {vals.shape} does not match grid interior {expected}")
        vals = vals.copy()
        total = vals.sum()
        if not np.isfinite(total) and not np.all(np.isfinite(vals)):
            raise FloatingPointError("non-finite field values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_mass", float(total))

    @property
    def field(self) -> "Field2D":
        """A plain field is its own scheme state."""
        return self

    def mass(self) -> float:
        return self._mass

    def full_values(self) -> np.ndarray:
        """Values on all ``nx x ny`` nodes, alias row/column materialized."""
        out = np.empty((self.grid.nx, self.grid.ny))
        out[:-1, :-1] = self.values
        out[-1, :-1] = self.values[0, :]
        out[:, -1] = out[:, 0]
        return out

    def with_values(self, values: np.ndarray) -> "Field2D":
        """New field on the same grid."""
        return Field2D(self.grid, values)


def sample(grid: Grid2D, g) -> Field2D:
    """Sample ``g(x, y)`` on the independent nodes of ``grid``.

    ``g`` is called once, on the x-nodes as a column and the y-nodes as a
    row; a result that does not depend on both (a constant, say) is
    broadcast onto the grid. Non-finite samples raise FloatingPointError.
    """
    x = grid.x_nodes()
    y = grid.y_nodes()
    return Field2D(grid, np.broadcast_to(g(x[:, None], y[None, :]), (x.size, y.size)))
