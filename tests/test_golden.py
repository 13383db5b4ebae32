"""Golden checksums: every CSV and gnuplot file of a small config per kind.

Criterion 11 compares one run with the next on the same code; this test pins
the bytes themselves, so a refactor that changes any output is caught. The
config runs each of the eight kinds with every scheme the kind accepts, on
grids of at most 17 x 17 nodes.

An intended change of output bytes re-records the checksums with

    PYTHONPATH=src python tests/test_golden.py --record

which prints every key it changes, adds or removes; the change log says
which outputs changed and why.
"""

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

from aplab.experiments import run_experiment

GOLDEN = Path(__file__).with_name("golden_sha256.json")

ALIGNED = ["imex", "fourier", "micro-macro", "lagrange"]
TINY = {"nx": 17, "ny": 17, "nt": 5}

CONFIG = [
    {"kind": "aligned-run", "name": "aligned", **TINY, "schemes": ALIGNED,
     "eps_list": [1.0, 1e-3]},
    {"kind": "rotating-run", "name": "rotating", "nx": 12, "ny": 12, "nt": 5,
     "schemes": ["imp", "lagrange"], "eps_list": [1.0, 0.01]},
    {"kind": "point-trace", "name": "trace", "ny": 17, "nt": 11, "t_end": 0.2,
     "schemes": ALIGNED, "eps_list": [1.0, 0.1]},
    {"kind": "eps-sweep", "name": "sweep", **TINY, "schemes": ALIGNED,
     "eps_list": [1.0, 0.1, 0.01]},
    {"kind": "convergence", "name": "conv", "vary": "dt", "n_list": [9, 17, 33],
     "schemes": ["imex", "micro-macro", "lagrange"]},
    {"kind": "cond-sweep", "name": "cond1", "toy": 1, "ny": 16, "beta": 2.0,
     "eps_list": [1e-2, 1e-3, 1e-4]},
    {"kind": "cond-sweep", "name": "cond2", "toy": 2, "rot_n": 12,
     "eps_list": [1e-2, 1e-3, 1e-4]},
    {"kind": "stability-scan", "name": "stab", "n": 16, "alpha_list": [0.9, 1.05]},
    {"kind": "amplification-check", "name": "amp", "n": 16, "modes": [0, 3],
     "eps_list": [1.0, 0.001], "schemes": ALIGNED},
]


def checksums(work: Path) -> dict:
    """Run CONFIG under ``work``; sha256 of every output but the manifests.

    A RuntimeWarning (an overflow, an invalid value) fails the run, so a
    change that starts to compute on inf or NaN cannot pass unseen.
    """
    cfg = work / "golden.json"
    cfg.write_text(json.dumps(CONFIG), encoding="utf-8")
    out = work / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = run_experiment(str(cfg), str(out))
    if status != 0:
        raise RuntimeError("golden config failed to run")
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*/*")) if p.name != "manifest.json"}


def differences(want: dict, got: dict) -> dict:
    """Keys whose checksum differs between ``want`` and ``got``, or that only one has."""
    return {"changed": sorted(k for k in want.keys() & got.keys() if want[k] != got[k]),
            "removed": sorted(want.keys() - got.keys()),
            "added": sorted(got.keys() - want.keys())}


def test_golden_checksums(tmp_path):
    diff = differences(json.loads(GOLDEN.read_text(encoding="utf-8")), checksums(tmp_path))
    assert not any(diff.values()), "; ".join(f"{k}: {v}" for k, v in diff.items())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        sums = checksums(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for label, keys in differences(old, sums).items():
        for key in keys:
            print(f"{label}: {key}")
    GOLDEN.write_text(json.dumps(sums, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(sums)} checksums in {GOLDEN}")
