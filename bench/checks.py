"""Output checks on one experiment entry's directory, independent of the seed.

An entry passes when its manifest lists exactly the files on disk with their
checksums, its file set equals the one the seed code wrote, its summary
tables match the seed code's values within ``TABLE_RTOL``/``TABLE_ATOL``,
every diagnostics file conserves mass to ``MASS_DRIFT``, and the kind's own
acceptance check holds. Checksums that differ from the seed code's are only
counted (``experiments.outputs_changed``): a change may alter output bytes
on purpose, as long as the values stay within tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TABLE_RTOL = 1e-5  # cond2 stops its power iterations at a relative 1e-6
TABLE_ATOL = 1e-9
SLOPE_RANGE = (0.85, 1.15)  # criterion 4: first order in dx, dy and dt
FOURIER_FLAT = 0.05  # criterion 4: spectral in y, so the error is flat
COND_STEEP = (-1.1, -0.9)  # criterion 5: imex and imp grow like 1/eps
COND_FLAT = 0.1  # criterion 5: reformulated families stay flat
FIELD_AGREE = 1e-9  # imex, micro-macro and lagrange are equivalent for eps > 0
MASS_DRIFT = 1e-9  # max |m_n - m_0| / max(1, |m_0|) over a diagnostics file

_EQUIVALENT = ("imex", "micro-macro", "lagrange")
_STEEP = ("imex", "imp")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(entry_dir: Path) -> dict:
    """sha256 of every output except the manifest, which holds wall times."""
    return {p.name: sha256(p) for p in sorted(entry_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def is_table(name: str) -> bool:
    return (name in ("errors.csv", "slopes.csv", "summary.csv")
            or (name.endswith(".csv") and name.startswith(("errors_", "cond_"))))


def read_table(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh)]


def _cell_close(got: str, ref: str) -> bool:
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return got == ref
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TABLE_ATOL + TABLE_RTOL * abs(b)


def _table_problems(name: str, got: list, ref: list) -> list:
    if len(got) != len(ref) or any(len(g) != len(r) for g, r in zip(got, ref)):
        return [f"{name}: table shape differs from the reference"]
    for i, (g_row, r_row) in enumerate(zip(got, ref)):
        for g, r in zip(g_row, r_row):
            if not _cell_close(g, r):
                return [f"{name}: row {i} has {g}, reference {r}"]
    return []


def _rows(path: Path) -> list:
    return read_table(path)[1:]


def _mass_problems(path: Path) -> list:
    mass = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2, ndmin=1)
    drift = float(np.max(np.abs(mass - mass[0]))) / max(1.0, abs(float(mass[0])))
    if not drift <= MASS_DRIFT:
        return [f"{path.name}: mass drift {drift:.2e} above {MASS_DRIFT:.0e}"]
    return []


def _convergence_problems(entry_dir: Path) -> list:
    problems = []
    for scheme, slope, spread in _rows(entry_dir / "slopes.csv"):
        if scheme == "fourier":
            if not float(spread) < FOURIER_FLAT:
                problems.append(f"fourier error not flat: spread {spread}")
        elif not SLOPE_RANGE[0] <= float(slope) <= SLOPE_RANGE[1]:
            problems.append(f"{scheme}: convergence slope {slope} outside {SLOPE_RANGE}")
    return problems


def _cond_problems(entry_dir: Path) -> list:
    problems = []
    for scheme, slope, _ in _rows(entry_dir / "slopes.csv"):
        s = float(slope)
        if scheme in _STEEP:
            ok = COND_STEEP[0] <= s <= COND_STEEP[1]
        else:
            ok = abs(s) <= COND_FLAT
        if not ok:
            problems.append(f"{scheme}: condition-number slope {slope} off criterion 5")
    return problems


def _field_problems(entry_dir: Path) -> list:
    """Equivalent schemes agree node by node on every stored field."""
    groups = {}
    for path in sorted(entry_dir.glob("field_*.csv")):
        scheme, rest = path.stem[len("field_"):].split("_", 1)
        if scheme in _EQUIVALENT:
            groups.setdefault(rest, []).append(path)
    problems = []
    for rest, paths in groups.items():
        if len(paths) != len(_EQUIVALENT):
            problems.append(f"field {rest}: {len(paths)} of the equivalent schemes present")
            continue
        base = np.loadtxt(paths[0], delimiter=",", skiprows=1, usecols=2)
        for other in paths[1:]:
            vals = np.loadtxt(other, delimiter=",", skiprows=1, usecols=2)
            diff = float(np.max(np.abs(vals - base)))
            if not diff <= FIELD_AGREE:
                problems.append(f"{other.name} differs from {paths[0].name} by {diff:.2e}")
    return problems


_KIND_CHECKS = {
    "convergence": _convergence_problems,
    "cond-sweep": _cond_problems,
    "aligned-run": _field_problems,
}


def check_entry(entry: dict, entry_dir: Path, ref: dict) -> tuple:
    """Check one entry's outputs; returns (problems, changed checksums)."""
    if not (entry_dir / "manifest.json").is_file():
        return [f"{entry['name']}: no manifest"], 0
    hashes = output_hashes(entry_dir)
    manifest = json.loads((entry_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = {o["path"]: o["sha256"] for o in manifest["outputs"]}
    problems = []
    if listed != hashes:
        problems.append("manifest does not list exactly the files on disk")
    missing = sorted(set(ref["sha256"]) - set(hashes))
    extra = sorted(set(hashes) - set(ref["sha256"]))
    if missing or extra:
        problems.append(f"missing {missing}, unexpected {extra}")
    changed = sum(1 for name, digest in hashes.items()
                  if name in ref["sha256"] and digest != ref["sha256"][name])
    if not problems:
        for name, table in ref["tables"].items():
            problems += _table_problems(name, read_table(entry_dir / name), table)
        for path in sorted(entry_dir.glob("diagnostics_*.csv")):
            problems += _mass_problems(path)
        check = _KIND_CHECKS.get(entry["kind"])
        if check is not None:
            problems += check(entry_dir)
    return [f"{entry['name']}: {p}" for p in problems], changed
