"""Run outputs and the time-stepping driver shared by every scheme."""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Field2D, sample

__all__ = ["RunResult", "iter_steps"]


# the columns of a diagnostics row: discrete mass and solver outcome per step
DIAGNOSTICS = ("step", "t", "mass", "residual_norm", "iterations")


@dataclass
class RunResult:
    """Snapshots and per-step diagnostics rows (see ``DIAGNOSTICS``) of one run."""

    snapshots: list[tuple[float, Field2D]] = field(default_factory=list)
    diagnostics: list[tuple] = field(default_factory=list)


def iter_steps(cfg, make_stepper, n_steps: int):
    """Iterate ``make_stepper(cfg)`` from the sampled initial condition, yielding
    ``(t, state, DIAGNOSTICS row)`` for the first state and after each step.

    ``cfg`` carries ``model`` (with ``f_in``), ``grid`` and ``dt``; the rest is read by
    ``make_stepper``. The stepper's ``initial(f0)`` builds its state from the sampled
    field and ``step(state)`` returns ``(state, SolveStats)``; every state exposes
    ``.field`` and ``.mass()``. A failing step names its index.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    f0 = sample(cfg.grid, cfg.model.f_in)
    stepper = make_stepper(cfg)
    # the first state, not the field it is made from, is kept for the run:
    # freed after step 1, its block would join the blocks each step frees, and
    # glibc would trim the heap top and fault it in again every few steps
    first = stepper.initial(f0)
    del f0
    yield 0.0, first, (0, 0.0, first.mass(), 0.0, 0)
    state = first
    for n in range(1, n_steps + 1):
        try:
            state, stats = stepper.step(state)
        except Exception as exc:
            exc.args = (f"step {n}: {exc}",) + exc.args[1:]
            raise
        t = n * cfg.dt
        yield t, state, (n, t, state.mass(), stats.residual_norm, stats.iterations)


def run_steps(cfg, make_stepper, n_steps: int) -> RunResult:
    """The run of ``iter_steps``: its first and last field and every row."""
    result = RunResult()
    for t, state, row in iter_steps(cfg, make_stepper, n_steps):
        result.diagnostics.append(row)
        if row[0] in (0, n_steps):
            result.snapshots.append((t, state.field))
    return result
