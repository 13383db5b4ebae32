"""Config-driven experiment runner producing CSV artifacts with manifests.

Each experiment kind reproduces one family of result data: full-field runs,
point traces, eps sweeps, convergence tables, condition-number sweeps,
stability scans, and amplification-factor checks. Outputs are CSV files
with a fixed 17-significant-digit float format (byte-deterministic), a JSON
manifest with content checksums, and a gnuplot script that references the
CSVs but is never executed here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import sys
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .aligned import AlignedModel, exact_aligned, ic_two_mode, limit_aligned
from .aligned_schemes import (AlignedScheme, AlignedSchemeConfig, ImexStepper,
                             make_aligned_stepper, run_aligned)
from .analysis import (amplification_factors, cond_family_aligned, cond_family_rotating,
                       cond_sweep, error_eta, error_gamma, fit_loglog_slope, xi_imex)
from .grid import make_grid2d
from .linalg import ConvergenceError, SingularMatrixError
from .results import DIAGNOSTICS, iter_steps
from .rotating import RotatingModel, circle_average, ic_gaussian
from .rotating_schemes import RotatingScheme, RotatingSchemeConfig, run_rotating, stabilization

__all__ = ["EXPERIMENT_KINDS", "default_params", "run_experiment"]


# ---------------------------------------------------------------------------
# initial conditions addressable from config files


def ic_one_d(x, y):
    """x-independent profile for the 1d sub-case (a = 0)."""
    return np.cos(2.0 * y) + 1.0


def ic_y_cosine(x, y):
    return np.cos(y) + 1.0


def ic_x_sine(x, y):
    return np.sin(x)


def ic_unit(x, y):
    return 1.0


INITIAL_CONDITIONS = {
    "two-mode": ic_two_mode,
    "one-d": ic_one_d,
    "y-cos": ic_y_cosine,
    "x-sine": ic_x_sine,
    "gaussian": ic_gaussian,
    "constant": ic_unit,
}


# ---------------------------------------------------------------------------
# defaults per experiment kind

_ALIGNED_BASE = {
    "x_min": 0.0, "x_max": 2.0 * np.pi, "y_min": 0.0, "y_max": 2.0 * np.pi,
    "nx": 201, "ny": 201, "t_end": 1.0, "nt": 101,
    "a": 0.1, "b": 1.0, "ic": "two-mode",
}

_ROTATING_BASE = {
    "x_min": -3.0, "x_max": 3.0, "y_min": -3.0, "y_max": 3.0,
    "nx": 160, "ny": 160, "t_end": 1.0, "nt": 65,
    "gamma": 0.91, "ic": "gaussian",
}

_DEFAULTS = {
    "aligned-run": dict(_ALIGNED_BASE, schemes=["imex"], eps_list=[1.0]),
    "rotating-run": dict(_ROTATING_BASE, schemes=["imp"], eps_list=[1.0]),
    "point-trace": dict(_ALIGNED_BASE, nx=3, ny=201, t_end=10.0, nt=501,
                        a=0.0, ic="one-d",
                        schemes=["imex", "fourier", "micro-macro", "lagrange"],
                        eps_list=[1.0, 0.1, 0.01], point=[0, 0]),
    "eps-sweep": dict(_ALIGNED_BASE,
                      schemes=["imex", "fourier", "micro-macro", "lagrange"],
                      eps_list=[1.0, 0.1, 0.01, 0.001, 0.0001]),
    "convergence": dict(vary="dx", n_list=[101, 201, 401, 801],
                        schemes=["imex", "micro-macro", "lagrange"],
                        eps=1.0, b=1.0),
    "cond-sweep": {"toy": 1, "ny": 64, "beta": 10.0,
                   "rot_n": 40, "rot_dt": 1.0 / 63.0, "gamma": 0.91,
                   "eps_list": [10.0 ** e for e in
                                (-6.0, -5.5, -5.0, -4.5, -4.0, -3.5, -3.0, -2.5, -2.0)]},
    "stability-scan": {"n": 64, "eps": 1.0,
                       "alpha_list": [0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2]},
    "amplification-check": {"n": 64, "alpha": 0.5, "dt": 0.01,
                            "eps_list": [1.0, 0.001],
                            "schemes": ["imex", "lagrange"],
                            "modes": [0, 1, 3, 7, 15, 31]},
}

EXPERIMENT_KINDS = tuple(sorted(_DEFAULTS))


def default_params(kind: str) -> dict:
    if kind not in _DEFAULTS:
        raise ValueError(f"unknown experiment kind '{kind}'")
    return json.loads(json.dumps(_DEFAULTS[kind]))


@dataclass(frozen=True)
class _Number:
    """A finite number, of integer value if ``integer``, and >= ``low`` (> if
    ``strict``). An int is finite up to 2**53: numpy takes none beyond 64 bits."""

    integer: bool = False
    low: float | None = None
    strict: bool = False

    def admits(self, value) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        finite = (abs(value) <= 2 ** 53 if isinstance(value, int) else
                  math.isfinite(value) and (value.is_integer() or not self.integer))
        return finite and (self.low is None or value > self.low
                           or (value == self.low and not self.strict))

    def __str__(self) -> str:
        bound = "" if self.low is None else f" {'>' if self.strict else '>='} {self.low:g}"
        return f"an integer{bound}" if self.integer else f"finite{' and' if bound else ''}{bound}"


_INT3 = _Number(integer=True, low=3)
_POSITIVE = _Number(low=0.0, strict=True)
_FINITE = _Number()

# the admissible values of each key on its own: a tuple of choices, or the
# rule of a number and of every entry of a list of numbers
_RULES = {
    "nx": _INT3, "ny": _INT3, "nt": _INT3, "n": _INT3, "rot_n": _INT3,
    "t_end": _POSITIVE, "dt": _POSITIVE, "rot_dt": _POSITIVE, "beta": _POSITIVE,
    "b": _POSITIVE, "alpha": _POSITIVE,
    "a": _Number(low=0.0),
    "gamma": _FINITE, "x_min": _FINITE, "x_max": _FINITE, "y_min": _FINITE, "y_max": _FINITE,
    "ic": tuple(INITIAL_CONDITIONS),
    "eps_list": _Number(low=0.0), "n_list": _INT3, "alpha_list": _POSITIVE,
    "modes": _Number(integer=True), "point": _Number(integer=True, low=0),
    # convergence needs the exact solution, stability-scan a regular IMEX solve
    "eps": _POSITIVE, "vary": ("dx", "dy", "dt"), "toy": (1, 2),
}

# the keys that each toy of cond-sweep (the one kind with a toy) does not read,
# refused when an entry sets them
_UNREAD_BY_TOY = {1: ("rot_n", "rot_dt", "gamma"), 2: ("ny", "beta")}

_TYPES = {int: ("a number", (int, float)), float: ("a number", (int, float)),
          str: ("a string", str), list: ("a list", list)}


class ExperimentConfig:
    """One validated experiment: kind, merged parameters, output directory, runs."""

    def __init__(self, kind: str, params: dict, name: str | None = None):
        merged = default_params(kind)  # a deep copy: a config's lists are its own
        for key, value in params.items():
            if key not in merged:
                raise ValueError(f"unknown key '{key}' for kind '{kind}'")
            if isinstance(value, bool):
                raise ValueError(f"key '{key}': booleans are not used")
            what, types = _TYPES[type(merged[key])]
            if not isinstance(value, types):
                raise ValueError(f"key '{key}': expected {what}")
            merged[key] = value
        self.kind = kind
        self.params = merged
        self.name = name or kind
        self._check()
        for key in _UNREAD_BY_TOY.get(merged.get("toy"), ()):
            if key in params:
                raise ValueError(f"key '{key}': cond-sweep toy {merged['toy']} does not read it")

    def _check(self) -> None:
        p = self.params
        for key, value in ((k, p[k]) for k in _RULES if k in p):
            rule, listed = _RULES[key], isinstance(value, list)
            if isinstance(rule, tuple) and value not in rule:
                raise ValueError(f"key '{key}': must be one of "
                                 f"{', '.join(map(str, rule))}, got {value!r}")
            entries = value if listed else [value]
            if isinstance(rule, _Number) and not all(map(rule.admits, entries)):
                raise ValueError(f"key '{key}': {'every entry ' if listed else ''}must be {rule}")
        # rules over more than one key
        for lo, hi in (("x_min", "x_max"), ("y_min", "y_max")):
            if lo in p and not p[hi] > p[lo]:
                raise ValueError(f"key '{hi}': must be > {lo}")
        if self.kind == "rotating-run":
            r = _circle_radius(p["x_max"] - p["x_min"], p["y_max"] - p["y_min"])
            for key in ("x_min", "x_max", "y_min", "y_max"):
                if (p[key] if key.endswith("max") else -p[key]) < r:
                    raise ValueError(f"key '{key}': the domain must contain the circle of "
                                     f"radius {r:g} about the origin")
        if "schemes" in p:
            known = [k.value for k in
                     (RotatingScheme if self.kind == "rotating-run" else AlignedScheme)]
            if any(s not in known for s in p["schemes"]):
                raise ValueError(f"key 'schemes': must be a non-empty list of "
                                 f"{', '.join(known)}, got {p['schemes']}")
        # a slope fit needs three points and a run with no fit one; repeated
        # entries would write the same files twice or repeat a step size in a fit
        fits = self.kind == "convergence" and any(_fits_slope(p["vary"], s) for s in p["schemes"])
        least = {"schemes": 1, "eps_list": 3 if self.kind == "cond-sweep" else 1,
                 "n_list": 3 if fits else 1}
        for key, count in least.items():
            if key in p and len(p[key]) < count:
                raise ValueError(f"key '{key}': needs {count} or more entries")
            if key in p and len(set(p[key])) != len(p[key]):
                raise ValueError(f"key '{key}': entries must be distinct")
        if "point" in p and (len(p["point"]) != 2 or p["point"][0] >= p["nx"] - 1
                             or p["point"][1] >= p["ny"] - 1):
            raise ValueError("key 'point': expected two node indices i < nx - 1, j < ny - 1")
        if "modes" in p and any(2 * abs(k) >= p["n"] for k in p["modes"]):
            raise ValueError(f"key 'modes': entries k must satisfy 2|k| < n = {p['n']}")
        if 0.0 in p.get("eps_list", ()) and "imp" in p.get("schemes", ()):
            raise ValueError("key 'eps_list': the fully implicit scheme 'imp' needs eps > 0")
        if 0.0 in p.get("eps_list", ()) and self.kind in ("eps-sweep", "cond-sweep"):
            # eps > 0 for eps-sweep's exact solution and log eps axis, cond-sweep's log(eps) fit
            raise ValueError(f"key 'eps_list': {self.kind} needs eps > 0")
        self.jobs = _jobs(self.kind, p)  # checks the values derived from several keys


def load_configs(config_path: str) -> list:
    """Parse a JSON config file into a list of validated experiments."""
    text = Path(config_path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"config file {config_path} is not valid JSON: {exc}") from exc
    entries = raw if isinstance(raw, list) else [raw]
    configs = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"config entry {idx}: expected an object")
        entry = dict(entry)
        kind = entry.pop("kind", None)
        if kind is None:
            raise ValueError(f"config entry {idx}: missing key 'kind'")
        name = entry.pop("name", None)
        if len(entries) > 1 and name is None:
            name = f"{kind}-{idx}"
        # a leading dot could name another entry's ``.<name>.partial`` directory
        if name is not None and (not isinstance(name, str) or not name or name.startswith(".")
                                 or any(c in name for c in ("/", "\\", "..", "\0"))):
            raise ValueError(f"config entry {idx}: name {name!r} is not a plain directory name")
        configs.append(ExperimentConfig(kind, entry, name))
    names = [c.name for c in configs]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"config entries share the name '{name}'; each needs its own "
                             "output directory")
    return configs


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _write_field(path: Path, field) -> Path:
    """Field CSV: header ``x,y,value``, then one row per node with the alias
    row and column included, x-major, every number as ``%.16e``.

    The same bytes as ``_write_csv`` would give, but each coordinate is
    formatted once and each x-row goes out in one write; the file is
    streamed row by row so memory stays one row wide.
    """
    g = field.grid
    xs = [f"{x:.16e}," for x in (g.x_min + g.dx * np.arange(g.nx)).tolist()]
    ys = [f"{y:.16e}," for y in (g.y_min + g.dy * np.arange(g.ny)).tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,value\n")
        for x, row in zip(xs, field.full_values()):
            fh.write("".join([f"{x}{y}{v:.16e}\n" for y, v in zip(ys, row.tolist())]))
    return path


def _write_run(out: Path, tag: str, result) -> list:
    """Snapshot fields and per-step diagnostics of one run; returns the fields' paths."""
    fields = [_write_field(out / f"field_{tag}_snap{idx}.csv", fld)
              for idx, (_, fld) in enumerate(result.snapshots)]
    _write_csv(out / f"diagnostics_{tag}.csv", DIAGNOSTICS, result.diagnostics)
    return fields


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _eps_tag(eps: float) -> str:
    """Shortest exact scientific form of eps, file-name safe: 1.4e-03 -> 1.4em03."""
    return np.format_float_scientific(float(eps), trim="-").replace("+", "").replace("-", "m")


def _plots(files, style: str) -> list:
    """One gnuplot line per two-column CSV, titled by its file name."""
    return [f"plot \"{f.name}\" skip 1 using 1:2 with {style} title \"{f.stem}\""
            for f in files]


# ---------------------------------------------------------------------------
# experiment kinds; each runner writes its CSVs and returns the lines of its
# gnuplot script. A runner that steps runs hands each job to one call that
# returns only what the runner keeps, so no run outlives its job (see
# ``_convergence_point``).


def _derived(key: str, name: str, value: float, ok: bool) -> None:
    """A value derived from several keys can underflow or overflow although
    each key passes its own rule; a bad one is a config error, named by the
    key that sets it."""
    if not ok:
        raise ValueError(f"key '{key}': the derived {name} is {value!r}, out of range")


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where ``os.sysconf`` cannot tell."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf
    return page * pages if page > 0 and pages > 0 else math.inf


_MEMORY = _physical_memory()


def _fits(key: str, doubles: int) -> None:
    """A job whose stored field of ``doubles`` doubles exceeds physical memory
    is a config error, named by the key that sets its size: run, it would fail
    at its first allocation or be killed. A field that fits may still run out
    of memory in its run (exit 2)."""
    if 8 * doubles > _MEMORY:
        raise ValueError(f"key '{key}': a job's field of {doubles} doubles needs "
                         f"{8 * doubles / 2 ** 30:.3g} GiB, more than the "
                         f"{_MEMORY / 2 ** 30:.3g} GiB of physical memory")


def _grid(p: dict, n_x: int, n_y: int, keys: tuple = ("nx", "ny")):
    """A job's grid; ``keys`` name the keys that set n_x and n_y."""
    _fits(keys[n_y > n_x], (n_x - 1) * (n_y - 1))
    try:
        return make_grid2d(p["x_min"], p["x_max"], p["y_min"], p["y_max"], n_x, n_y)
    except ValueError as exc:
        raise ValueError(f"keys 'x_min', 'x_max', 'y_min', 'y_max': {exc}") from None


def _time_step(p: dict) -> float:
    dt = p["t_end"] / (int(p["nt"]) - 1)
    _derived("t_end", "time step t_end / (nt - 1)", dt, dt > 0.0)
    return dt


# the config keys behind an aligned scheme config's time step, x-speed,
# y-speed, eps and grid sides, where a kind takes them from keys of those names
_KEYS = {"dt": "t_end", "a": "a", "b": "b", "eps": "eps_list", "nx": "nx", "ny": "ny"}


def _aligned_scheme(a: float, b: float, eps: float, f_in, grid, dt: float, scheme: str,
                    keys: dict = _KEYS) -> AlignedSchemeConfig:
    """The scheme config, its derived values checked first and named by
    ``keys`` (see ``_KEYS``)."""
    alpha, beta = a * dt / grid.dx, b * dt / grid.dy
    _derived(keys["dt"], "time step", dt, dt > 0.0)
    _derived(keys["a"], "x-speed", a, a < math.inf)
    _derived(keys["a"], "ratio alpha = a dt / dx", alpha, alpha < math.inf)
    _derived(keys["b"], "ratio beta = b dt / dy", beta, 0.0 < beta < math.inf)
    scfg = AlignedSchemeConfig(AlignedModel(a, b, eps, f_in), grid, dt, AlignedScheme(scheme))
    if scheme == "imex" or (scheme == "micro-macro" and eps > 0.0):
        # the factored y-system is singular once eps + beta rounds to beta
        try:
            ImexStepper(scfg).matrix.check_pivots()
        except SingularMatrixError as exc:
            raise ValueError(f"key '{keys['eps']}': the y-system of scheme '{scheme}' at "
                             f"eps = {eps!r}, beta = {beta!r} is singular in floating point "
                             f"({exc})") from None
    return scfg


def _aligned_config(p: dict, scheme: str, eps: float, keys: dict = _KEYS) -> AlignedSchemeConfig:
    return _aligned_scheme(p["a"], p["b"], eps, INITIAL_CONDITIONS[p["ic"]],
                           _grid(p, int(p["nx"]), int(p["ny"]), (keys["nx"], keys["ny"])),
                           _time_step(p), scheme, keys)


def _rotating_system(grid, scheme: str, dt: float, dt_key: str, eps: float,
                     gamma: float) -> None:
    """Checks in Python floats, which overflow without a warning, before U is built:
    U's largest entry max|y|/dx + max|x|/dy (bit-equal to U's: rounding is monotone)
    and, for IMP, (dt/eps) times it finite, blamed on ``dt_key`` (the key that
    sets dt) when dt times it is already inf; for Lagrange s finite and > 0 (S 1 = s 1).
    The nodes lo + k d rise with k, so the largest |node| is at an end, taken
    without a node array, which no memory holds at a node count of 2**53."""
    def far(lo: float, d: float, n: int) -> float:
        return max(abs(lo), abs(lo + d * (n - 2)))

    top = far(grid.y_min, grid.dy, grid.ny) / grid.dx + far(grid.x_min, grid.dx, grid.nx) / grid.dy
    if not top < math.inf:
        raise ValueError("keys 'x_min', 'x_max', 'y_min', 'y_max': the derived largest entry "
                         f"max|y|/dx + max|x|/dy of U is {top!r}, out of range")
    if scheme == "lagrange":
        s = stabilization(grid, gamma)
        _derived("gamma", "stabilization s = (dx dy)^gamma", s, 0.0 < s < math.inf)
    else:
        entry = dt / eps * top
        key = "eps_list" if dt * top < math.inf else dt_key
        _derived(key, "IMP matrix entry (dt/eps) max_i U_ii", entry, entry < math.inf)


def _rotating_config(p: dict, scheme: str, eps: float) -> RotatingSchemeConfig:
    grid, dt = _grid(p, int(p["nx"]), int(p["ny"])), _time_step(p)
    _rotating_system(grid, scheme, dt, "t_end", eps, p["gamma"])
    model = RotatingModel(eps, INITIAL_CONDITIONS[p["ic"]])
    try:
        return RotatingSchemeConfig(model, grid, dt, p["gamma"], RotatingScheme(scheme))
    except ValueError as exc:  # the ratios dt/dx, dt/dy overflow
        raise ValueError(f"key 't_end': {exc}") from None


def _slope_row(label: str, steps, values, fit: bool = True) -> tuple:
    """(label, fitted log-log slope, spread max/min - 1) of one series."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return label, float("nan"), float("nan")
    spread = float(values.max() / values.min() - 1.0)
    if not fit:
        return label, float("nan"), spread
    order = np.argsort(steps)[::-1]
    slope, _ = fit_loglog_slope(np.asarray(steps, dtype=float)[order], values[order])
    return label, slope, spread


def _aligned_errors(scfg: AlignedSchemeConfig, result) -> tuple:
    """(t, eta, gamma) at the last snapshot: errors against the exact solution
    (NaN at eps = 0, where it is undefined) and against the limit profile."""
    t_end, final = result.snapshots[-1]
    m, grid = scfg.model, scfg.grid
    eta = error_eta(final, exact_aligned(m, t_end, grid)) if m.eps > 0.0 else float("nan")
    return t_end, eta, error_gamma(final, limit_aligned(m, t_end, grid))


def _aligned_run_job(out: Path, scheme: str, eps: float, scfg: AlignedSchemeConfig,
                     n_steps: int) -> tuple:
    """(field paths, error row) of one aligned-run job."""
    result = run_aligned(scfg, n_steps)
    return (_write_run(out, f"{scheme}_eps{_eps_tag(eps)}", result),
            (scheme, eps, *_aligned_errors(scfg, result)))


def _run_aligned_run(cfg: ExperimentConfig, out: Path) -> list:
    fields, error_rows = zip(*(_aligned_run_job(out, *job) for job in cfg.jobs))
    _write_csv(out / "errors.csv", ["scheme", "eps", "t", "eta", "gamma"], error_rows)
    return [f"splot \"{f.name}\" every ::1 using 1:2:3 with points palette"
            for f in [path for paths in fields for path in paths][:4]]


def _circle_radius(lx: float, ly: float) -> float:
    """Radius of the origin-centred circle that ``rotating-run`` averages over."""
    return min(1.0, lx / 4.0, ly / 4.0)


def _rotating_run_job(out: Path, scheme: str, eps: float, scfg: RotatingSchemeConfig,
                      n_steps: int) -> tuple:
    """(cut path, summary row) of one rotating-run job."""
    result = run_rotating(scfg, n_steps)
    tag = f"{scheme}_eps{_eps_tag(eps)}"
    _write_run(out, tag, result)
    t_end, final = result.snapshots[-1]
    grid = scfg.grid
    # cut along the column nearest x = 0, as in the reference plots
    i_cut = int(np.argmin(np.abs(grid.x_nodes())))
    ys = grid.y_nodes()
    cut = _write_csv(out / f"cut_{tag}.csv", ["y", "value"],
                     ((ys[j], final.values[i_cut, j]) for j in range(grid.ny - 1)))
    return cut, (scheme, eps, t_end, float(final.values.max()),
                 circle_average(final, _circle_radius(grid.lx, grid.ly)))


def _run_rotating_run(cfg: ExperimentConfig, out: Path) -> list:
    cuts, summary = zip(*(_rotating_run_job(out, *job) for job in cfg.jobs))
    _write_csv(out / "summary.csv", ["scheme", "eps", "t", "peak", "circle_avg"], summary)
    return _plots(cuts, "lines")


def _point_trace_job(out: Path, point: list, scheme: str, eps: float,
                     scfg: AlignedSchemeConfig, n_steps: int) -> Path:
    """The trace path of one point-trace job, whose node is written as each step ends."""
    node = int(point[0]), int(point[1])
    return _write_csv(out / f"trace_{scheme}_eps{_eps_tag(eps)}.csv", ["t", "value"],
                      ((t, state.field.values[node])
                       for t, state, _ in iter_steps(scfg, make_aligned_stepper, n_steps)))


def _run_point_trace(cfg: ExperimentConfig, out: Path) -> list:
    return _plots([_point_trace_job(out, cfg.params["point"], *job) for job in cfg.jobs],
                  "lines")


def _run_eps_sweep(cfg: ExperimentConfig, out: Path) -> list:
    rows = {}
    for scheme, eps, scfg, n_steps in cfg.jobs:
        t, eta, gamma = _aligned_errors(scfg, run_aligned(scfg, n_steps))  # the run dies here
        rows.setdefault(scheme, []).append((eps, t, eta, gamma))
    errors = [_write_csv(out / f"errors_{scheme}.csv", ["eps", "t", "eta", "gamma"], r)
              for scheme, r in rows.items()]
    return ["set logscale x"] + [
        f"plot \"{f.name}\" skip 1 using 1:3 with linespoints title \"eta\", "
        f"\"{f.name}\" skip 1 using 1:4 with linespoints title \"gamma\"" for f in errors]


_SWEEP_SETUPS = {
    # direction-isolating designs: the varied step's error dominates
    "dx": {"a": 1.0, "ic": "x-sine", "ny": 8, "nt": 3201, "t_end": 1.0},
    "dy": {"a": 0.0, "ic": "one-d", "nx": 3, "nt": 3201, "t_end": 1.0},
    "dt": {"a": 0.0, "ic": "y-cos", "nx": 3, "ny": 8001, "t_end": 4.0},
}
_FOURIER_DY_NT = 401
_VARIED_KEY = {"dx": "nx", "dy": "ny", "dt": "nt"}


def _fits_slope(vary: str, scheme: str) -> bool:
    # spectral in y: the Fourier error does not depend on dy, no slope to fit
    return not (vary == "dy" and scheme == "fourier")


def _convergence_config(p: dict, scheme: str, n: int) -> tuple:
    """(scheme config, step count) of one run of a convergence sweep."""
    vary = p["vary"]
    q = dict(_ALIGNED_BASE, b=p["b"], **_SWEEP_SETUPS[vary], **{_VARIED_KEY[vary]: int(n)})
    if vary == "dy" and scheme == "fourier":
        q["nt"] = _FOURIER_DY_NT
    keys = {"dt": "n_list", "a": "n_list", "b": "b", "eps": "eps", "nx": "n_list", "ny": "n_list"}
    return _aligned_config(q, scheme, p["eps"], keys), int(q["nt"]) - 1


def _convergence_point(scfg: AlignedSchemeConfig, n_steps: int, vary: str) -> tuple:
    """(varied step, eta) of one run of a convergence sweep. Nothing of the
    run outlives this call: a result kept until the next run returned pinned
    the heap top across that run, and with the steppers' own buffers that
    kept about 12 MB of freed heap resident into the next Lagrange
    factorization (stiff-steps peak RSS 81.8 instead of 74.6 MiB)."""
    t_end, final = run_aligned(scfg, n_steps).snapshots[-1]
    eta = error_eta(final, exact_aligned(scfg.model, t_end, scfg.grid))
    return {"dx": scfg.grid.dx, "dy": scfg.grid.dy, "dt": scfg.dt}[vary], eta


def _run_convergence(cfg: ExperimentConfig, out: Path) -> list:
    vary = cfg.params["vary"]
    errors = []
    slope_rows = []
    for scheme in cfg.params["schemes"]:
        rows = [_convergence_point(c, k, vary) for s, _, c, k in cfg.jobs if s == scheme]
        errors.append(_write_csv(out / f"errors_{vary}_{scheme}.csv", [vary, "eta"], rows))
        slope_rows.append(_slope_row(scheme, [r[0] for r in rows], [r[1] for r in rows],
                                     fit=_fits_slope(vary, scheme)))
    _write_csv(out / "slopes.csv", ["scheme", "slope", "spread"], slope_rows)
    return ["set logscale xy"] + _plots(errors, "linespoints")


def _run_cond_sweep(cfg: ExperimentConfig, out: Path) -> list:
    tables = []
    slope_rows = []
    for label, eps_list, family, _ in cfg.jobs:
        table = cond_sweep(family, eps_list)
        tables.append(_write_csv(out / f"cond_{label}.csv", ["eps", "cond2"], table))
        slope_rows.append(_slope_row(label, eps_list, [v for _, v in table]))
    _write_csv(out / "slopes.csv", ["scheme", "slope", "spread"], slope_rows)
    return ["set logscale xy"] + _plots(tables, "linespoints")


def _stability_config(p: dict, alpha: float) -> AlignedSchemeConfig:
    # a = 1 fixed; dt = alpha * dx sets the advective ratio exactly
    grid = _grid(_ALIGNED_BASE, int(p["n"]), int(p["n"]), ("n", "n"))
    keys = {"dt": "alpha_list", "a": "alpha_list", "b": "alpha_list", "eps": "eps"}
    return _aligned_scheme(1.0, 1.0, p["eps"], ic_unit, grid, float(alpha) * grid.dx, "imex",
                           keys)


def _run_stability_scan(cfg: ExperimentConfig, out: Path) -> list:
    n = int(cfg.params["n"])
    rows = [(float(alpha), float(np.abs(amplification_factors(scfg)[:(n + 1) // 2, 0]).max()))
            for _, alpha, scfg, _ in cfg.jobs]
    _write_csv(out / "stability.csv", ["alpha", "max_xi"], rows)
    return ["plot \"stability.csv\" skip 1 using 1:2 with linespoints, 1.0"]


def _xi_fourier(scfg: AlignedSchemeConfig, k: int, l: int) -> float:
    """|xi| of the Fourier scheme: the upwind factor times |1 / (1 + i l b dt / eps)|,
    or its real part alone at the Nyquist mode of an even ny - 1, which irfft reads."""
    grid, eps = scfg.grid, scfg.model.eps
    explicit = xi_imex(scfg.alpha, scfg.beta, eps, k, 0, grid.dx, grid.dy)
    if l == 0 or eps == 0.0:
        return explicit if l == 0 else 0.0
    y = 1.0 / (1.0 + 1j * l * scfg.model.b * scfg.dt / eps)
    return explicit * (y.real if 2 * abs(l) == grid.ny - 1 else abs(y))


def _amplification_config(p: dict, eps: float, scheme: str) -> AlignedSchemeConfig:
    # b = 1 fixed; the x-speed alpha dx / dt sets the advective ratio
    grid = _grid(_ALIGNED_BASE, int(p["n"]), int(p["n"]), ("n", "n"))
    dt = float(p["dt"])
    keys = {"dt": "dt", "a": "dt", "b": "dt", "eps": "eps_list"}
    return _aligned_scheme(float(p["alpha"]) * grid.dx / dt, 1.0, eps, ic_unit, grid, dt, scheme,
                           keys)


def _run_amplification_check(cfg: ExperimentConfig, out: Path) -> list:
    p = cfg.params
    n = int(p["n"])
    rows = []
    for scheme, eps, scfg, _ in cfg.jobs:
        xi = np.abs(amplification_factors(scfg))
        for k in map(int, p["modes"]):
            for l in map(int, p["modes"]):
                measured = xi[k % (n - 1), l % (n - 1)]
                formula = (_xi_fourier(scfg, k, l) if scheme == "fourier" else
                           xi_imex(scfg.alpha, scfg.beta, eps, k, l, scfg.grid.dx, scfg.grid.dy))
                rows.append((scheme, eps, k, l, measured, formula, abs(measured - formula)))
    _write_csv(out / "amplification.csv",
               ["scheme", "eps", "k", "l", "measured", "formula", "abs_diff"], rows)
    return ["plot \"amplification.csv\" skip 1 using 5:6 with points"]


def _jobs(kind: str, p: dict) -> list:
    """Every run of an entry of ``kind`` in run order: (scheme, swept eps, n or
    alpha, scheme config, step count); for cond-sweep (scheme, eps list in sweep
    order, matrix family, None). Data only: runners call the stepping functions,
    and a family builds no matrix until it is called. Building a config checks
    the values it derives (``_aligned_scheme``, ``_rotating_system``)."""
    if kind == "convergence":
        return [(s, n, *_convergence_config(p, s, n)) for s in p["schemes"] for n in p["n_list"]]
    if kind == "stability-scan":
        return [("imex", a, _stability_config(p, a), 1) for a in p["alpha_list"]]
    if kind == "amplification-check":
        return [(s, e, _amplification_config(p, e, s), 1) for e in p["eps_list"]
                for s in p["schemes"]]
    if kind == "cond-sweep":
        eps_list = sorted(p["eps_list"], reverse=True)
        if p["toy"] == 1:
            # micro-macro's dense build peaks at 6 (ny - 1)^2 doubles (Q, Q^T A Q, its nonzeros'
            # int64 and int32 indices and values), and the freed A and Q^T A may stay resident
            _fits("ny", 8 * (int(p["ny"]) - 1) ** 2)
            return [(s, eps_list, cond_family_aligned(s, int(p["ny"]) - 1, p["beta"]), None)
                    for s in ("imex", "micro-macro", "lagrange")]
        grid = _grid(_ROTATING_BASE, int(p["rot_n"]), int(p["rot_n"]), ("rot_n", "rot_n"))
        for s in ("lagrange", "imp"):  # IMP's largest entry is at the smallest eps
            _rotating_system(grid, s, p["rot_dt"], "rot_dt", eps_list[-1], p["gamma"])
        return [(s, eps_list, cond_family_rotating(s, grid, p["rot_dt"], p["gamma"]), None)
                for s in ("imp", "lagrange")]
    config = _rotating_config if kind == "rotating-run" else _aligned_config
    return [(s, e, config(p, s, e), int(p["nt"]) - 1) for s in p["schemes"] for e in p["eps_list"]]


_RUNNERS = {
    "aligned-run": _run_aligned_run,
    "rotating-run": _run_rotating_run,
    "point-trace": _run_point_trace,
    "eps-sweep": _run_eps_sweep,
    "convergence": _run_convergence,
    "cond-sweep": _run_cond_sweep,
    "stability-scan": _run_stability_scan,
    "amplification-check": _run_amplification_check,
}

# what an experiment may raise that ends it with exit code 2, by message label
_FAILURES = {"numerical failure": (SingularMatrixError, ConvergenceError, FloatingPointError,
                                   ValueError),
             "OS error": OSError, "out of memory": MemoryError}


class ExperimentFailure(Exception):
    """A failure inside one experiment; the message names the experiment."""


def _execute_one(cfg: ExperimentConfig, out_base: Path) -> tuple:
    """Write one experiment into ``.<name>.partial`` and rename it onto
    ``<name>`` once its manifest is written; a failure removes the partial
    directory and leaves an earlier ``<name>`` as it was."""
    out = out_base / cfg.name
    partial = out_base / f".{cfg.name}.partial"
    t0 = _time.perf_counter()
    try:
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        plot_lines = _RUNNERS[cfg.kind](cfg, partial)
        (partial / "plot.gp").write_text("set datafile separator \",\"\nset key outside\n"
                                         + "\n".join(plot_lines) + "\n", encoding="utf-8")
        files = sorted(partial.iterdir())
        manifest = {
            "config": {"kind": cfg.kind, "name": cfg.name, **cfg.params},
            "outputs": [{"path": f.name, "sha256": _sha256(f)} for f in files],
            "wall_time_s": _time.perf_counter() - t0,
            "version": __version__,
        }
        (partial / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        partial.rename(out)
    except BaseException as exc:
        shutil.rmtree(partial, ignore_errors=True)
        for label, kinds in _FAILURES.items():
            if isinstance(exc, kinds):
                raise ExperimentFailure(f"{label} in {cfg.name}: {exc}") from exc
        raise
    return cfg.name, [str(out / f.name) for f in files]


def run_experiment(config_path: str, out_dir: str | None = None,
                   workers: int = 1) -> int:
    """Run every experiment in a config file; returns the process exit code.

    0 on success, 1 for config errors (the message names the offending key),
    2 for a numerical, OS or out-of-memory failure inside an experiment (the
    message names it).
    """
    try:
        if workers < 1:
            raise ValueError(f"--workers must be >= 1, got {workers}")
        configs = load_configs(config_path)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_base = Path(out_dir) if out_dir else Path(config_path).resolve().parent
    workers = min(workers, len(configs), os.cpu_count() or 1)  # the pool forks them all at once
    try:
        if workers > 1:
            # imported here: the pool's modules would add about 0.5 MiB to every 1-worker run
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_execute_one, configs, [out_base] * len(configs)))
        else:
            results = [_execute_one(c, out_base) for c in configs]
    except ExperimentFailure as exc:
        print(exc, file=sys.stderr)
        return 2
    for name, files in results:
        print(f"{name}: {len(files)} files")
    return 0
