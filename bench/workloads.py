"""The three benchmark workloads as aplab batch configs, drawn from a seed.

The seed only moves each listed eps inside its decade, by drawing its
mantissa from ``MANTISSAS``. Grid sizes, step counts and scheme lists never
depend on it, and ``stiff-steps`` ignores it. The mantissa set is finite so
that ``reference.json`` can hold the seed code's outputs for every draw.
"""

from __future__ import annotations

import itertools
import random

MANTISSAS = (1, 2, 5)

# Criterion 4 of the acceptance gate, with n_list cut from [101, 201, 401, 801]
# to three points so that a run fits the benchmark's time budget.
_STIFF_STEPS = [
    {"kind": "convergence", "name": "conv-dx", "vary": "dx", "n_list": [101, 201, 401],
     "schemes": ["imex", "micro-macro", "lagrange"]},
    {"kind": "convergence", "name": "conv-dy", "vary": "dy", "n_list": [101, 201, 401],
     "schemes": ["imex", "micro-macro", "lagrange", "fourier"]},
    {"kind": "convergence", "name": "conv-dt", "vary": "dt", "n_list": [101, 201, 401],
     "schemes": ["imex", "micro-macro", "lagrange"]},
]

# Entries whose eps_list is drawn: (entry, decade exponents of the listed eps).
_DRAWN = {
    "field-output": [
        ({"kind": "aligned-run", "name": "aligned",
          "schemes": ["imex", "fourier", "micro-macro", "lagrange"]}, (0, -6)),
    ],
    "rotating-factor": [
        ({"kind": "rotating-run", "name": "rotating", "schemes": ["imp", "lagrange"]},
         (0, -3)),
    ],
}

_FIXED = {
    "stiff-steps": _STIFF_STEPS,
    "field-output": [],
    "rotating-factor": [
        {"kind": "cond-sweep", "name": "cond-toy1", "toy": 1},
        {"kind": "cond-sweep", "name": "cond-toy2", "toy": 2},
    ],
}

WORKLOADS = ("stiff-steps", "field-output", "rotating-factor")


def _eps(mantissa: int, exponent: int) -> float:
    return float(f"{mantissa}e{exponent}")


def _with_eps(entry: dict, mantissas, exponents) -> dict:
    return dict(entry, eps_list=[_eps(m, e) for m, e in zip(mantissas, exponents)])


def entries(workload: str, seed: int) -> list:
    """The batch config of ``workload`` for ``seed``, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    rng = random.Random(seed)
    drawn = [_with_eps(entry, [rng.choice(MANTISSAS) for _ in exps], exps)
             for entry, exps in _DRAWN.get(workload, [])]
    return drawn + [dict(e) for e in _FIXED[workload]]


def all_entries(workload: str) -> list:
    """Every distinct entry any seed can produce, for recording references."""
    out = []
    for entry, exps in _DRAWN.get(workload, []):
        for mantissas in itertools.product(MANTISSAS, repeat=len(exps)):
            out.append(_with_eps(entry, mantissas, exps))
    return out + [dict(e) for e in _FIXED[workload]]


def reference_key(entry: dict) -> str:
    """Key of an entry's recorded outputs: its name plus any drawn eps."""
    if "eps_list" not in entry:
        return entry["name"]
    return entry["name"] + "@" + ",".join(repr(e) for e in entry["eps_list"])
