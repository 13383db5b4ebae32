"""Run outputs and the time-stepping driver shared by every scheme."""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Field2D, sample

__all__ = ["RunResult", "run_steps"]


# the columns of a diagnostics row: discrete mass and solver outcome per step
DIAGNOSTICS = ("step", "t", "mass", "residual_norm", "iterations")


@dataclass
class RunResult:
    """Snapshots and per-step diagnostics rows (see ``DIAGNOSTICS``) of one run."""

    snapshots: list[tuple[float, Field2D]] = field(default_factory=list)
    diagnostics: list[tuple] = field(default_factory=list)


def run_steps(cfg, make_stepper, n_steps: int, snapshot_steps=None) -> RunResult:
    """Iterate ``make_stepper(cfg)`` from the sampled initial condition.

    ``cfg`` carries ``model`` (with ``f_in``), ``grid`` and ``dt``; the
    rest is read by ``make_stepper``. The stepper's ``initial(f0)`` builds its state from the
    sampled field and ``step(state)`` returns ``(state, SolveStats)``; every
    state exposes ``.field`` and ``.mass()``; the field is kept at each step in
    ``snapshot_steps`` (integers in 0..n_steps; default 0 and n_steps). Each step
    appends its ``DIAGNOSTICS`` row, and a failing step names its index.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    snap_steps = {0, n_steps} if snapshot_steps is None else set(snapshot_steps)
    for n in snap_steps:
        if n not in range(n_steps + 1):
            raise ValueError(f"snapshot step {n!r} is not an integer in 0..{n_steps}")

    f0 = sample(cfg.grid, cfg.model.f_in)
    stepper = make_stepper(cfg)
    # the first state, not the field it is made from, is kept for the run:
    # freed after step 1, its block would join the blocks each step frees, and
    # glibc would trim the heap top and fault it in again every few steps
    first = stepper.initial(f0)
    del f0
    state = first

    result = RunResult()
    result.diagnostics.append((0, 0.0, state.mass(), 0.0, 0))
    if 0 in snap_steps:
        result.snapshots.append((0.0, state.field))
    for n in range(1, n_steps + 1):
        try:
            state, stats = stepper.step(state)
        except Exception as exc:
            exc.args = (f"step {n}: {exc}",) + exc.args[1:]
            raise
        t = n * cfg.dt
        result.diagnostics.append((n, t, state.mass(), stats.residual_norm, stats.iterations))
        if n in snap_steps:
            result.snapshots.append((t, state.field))
    return result
