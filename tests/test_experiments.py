"""Experiment runner: configs, CSV outputs, manifests, CLI, determinism."""

import csv
import functools
import hashlib
import io
import json
import math
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aplab import experiments
from aplab.aligned import exact_aligned, limit_aligned
from aplab.aligned_schemes import AlignedScheme, aligned_lagrange_matrix
from aplab.analysis import amplification_factors, cond_family_aligned, error_eta, error_gamma
from aplab.cli import main
from aplab.experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    default_params,
    load_configs,
    run_experiment,
)
from aplab.grid import Field2D, make_grid2d, sample
from aplab.linalg import SparseFactor, cond2
from aplab.rotating_schemes import RotatingScheme

FLOAT_RE = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}$")


def write_config(tmp_path, entry, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entry), encoding="utf-8")
    return str(path)


def test_experiment_kinds():
    assert EXPERIMENT_KINDS == tuple(sorted(EXPERIMENT_KINDS))
    expected = {"aligned-run", "rotating-run", "point-trace", "eps-sweep",
                "convergence", "cond-sweep", "stability-scan",
                "amplification-check"}
    assert set(EXPERIMENT_KINDS) == expected


def test_default_params_returns_copy():
    p = default_params("aligned-run")
    assert p["nx"] == 201 and p["nt"] == 101
    p["nx"] = 5
    assert default_params("aligned-run")["nx"] == 201
    with pytest.raises(ValueError, match="unknown experiment kind"):
        default_params("nope")
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig("nope", {})


def test_a_config_owns_its_lists():
    # a config merged over shallow copies of the defaults shared their lists
    cfg = ExperimentConfig("aligned-run", {})
    cfg.params["schemes"].append("fourier")
    cfg.params["eps_list"].append(0.5)
    for params in (ExperimentConfig("aligned-run", {}).params, default_params("aligned-run")):
        assert params["schemes"] == ["imex"] and params["eps_list"] == [1.0]


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="'nz'"):
        ExperimentConfig("aligned-run", {"nz": 10})


def test_config_type_checks():
    with pytest.raises(ValueError, match="'nx': expected a number"):
        ExperimentConfig("aligned-run", {"nx": "many"})
    with pytest.raises(ValueError, match="'ic': expected a string"):
        ExperimentConfig("aligned-run", {"ic": 3})
    with pytest.raises(ValueError, match="'eps_list': expected a list"):
        ExperimentConfig("aligned-run", {"eps_list": 1.0})


def test_config_value_checks():
    with pytest.raises(ValueError, match="'nx': must be an integer >= 3"):
        ExperimentConfig("aligned-run", {"nx": 2})
    with pytest.raises(ValueError, match="'t_end'"):
        ExperimentConfig("aligned-run", {"t_end": 0.0})
    with pytest.raises(ValueError, match="'ic': must be one of"):
        ExperimentConfig("aligned-run", {"ic": "spiral"})
    with pytest.raises(ValueError, match="'schemes'"):
        ExperimentConfig("aligned-run", {"schemes": []})
    with pytest.raises(ValueError, match="'eps_list'"):
        ExperimentConfig("aligned-run", {"eps_list": [1.0, -0.5]})
    with pytest.raises(ValueError, match="'vary'"):
        ExperimentConfig("convergence", {"vary": "dz"})
    with pytest.raises(ValueError, match="'toy'"):
        ExperimentConfig("cond-sweep", {"toy": 3})
    with pytest.raises(ValueError, match="'point'"):
        ExperimentConfig("point-trace", {"point": [0, 500]})
    with pytest.raises(ValueError, match="'schemes': must be a non-empty list of imp"):
        ExperimentConfig("rotating-run", {"schemes": ["imex"]})
    with pytest.raises(ValueError, match="'schemes'"):
        ExperimentConfig("amplification-check", {"schemes": ["imex", "imp"]})
    with pytest.raises(ValueError, match="'eps_list': the fully implicit"):
        ExperimentConfig("rotating-run", {"schemes": ["lagrange", "imp"], "eps_list": [1.0, 0]})
    ExperimentConfig("rotating-run", {"schemes": ["lagrange"], "eps_list": [0.0]})
    # the imex y-system at eps = 0: its cyclic closure pivot beta - beta is exactly 0
    with pytest.raises(ValueError, match="'eps_list': the y-system of scheme 'imex' at "
                                         "eps = 0.0, .* closure pivot 0.0 "):
        ExperimentConfig("point-trace", {"eps_list": [1.0, 0.0]})
    with pytest.raises(ValueError, match="'schemes': entries must be distinct"):
        ExperimentConfig("aligned-run", {"schemes": ["imex", "imex"]})
    with pytest.raises(ValueError, match="'eps_list': entries must be distinct"):
        ExperimentConfig("eps-sweep", {"eps_list": [0.1, 1e-1]})


def test_load_configs(tmp_path):
    single = write_config(tmp_path, {"kind": "aligned-run", "nx": 33})
    cfgs = load_configs(single)
    assert len(cfgs) == 1 and cfgs[0].name == "aligned-run"
    assert cfgs[0].params["nx"] == 33

    batch = write_config(tmp_path, [
        {"kind": "aligned-run"}, {"kind": "cond-sweep", "name": "conds"},
    ], name="batch.json")
    cfgs = load_configs(batch)
    assert [c.name for c in cfgs] == ["aligned-run-0", "conds"]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_configs(str(bad))
    with pytest.raises(ValueError, match="missing key 'kind'"):
        load_configs(write_config(tmp_path, {"nx": 5}, name="nokind.json"))
    with pytest.raises(ValueError, match="expected an object"):
        load_configs(write_config(tmp_path, [1, 2], name="numbers.json"))


@pytest.mark.parametrize("names", [
    ["x", "x"], [None, "stability-scan-0"], ["a/b"], ["a\\b"], [".."], ["up..here"],
    [""], ["."], [3], [".a.partial", "a"], [".hidden"], ["a\u0000b"],
])
def test_load_configs_rejects_bad_names(tmp_path, capsys, names):
    # a name is the output directory: it must be a plain name, once per batch
    entries = [{"kind": "stability-scan", "name": n, "n": 8} for n in names]
    cfg = write_config(tmp_path, entries)
    with pytest.raises(ValueError, match="name"):
        load_configs(cfg)
    assert run_experiment(cfg, str(tmp_path / "out")) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", [
    {"kind": "aligned-run", "schemes": ["imp"]},
    {"kind": "rotating-run", "nx": 8, "ny": 8, "nt": 3, "eps_list": [0.0]},
    {"kind": "eps-sweep", "eps_list": ["a"]},
    {"kind": "eps-sweep", "eps_list": [float("inf")]},
    {"kind": "aligned-run", "nx": float("inf")},
    {"kind": "convergence", "vary": "dt", "n_list": [9, "17", 33], "schemes": ["lagrange"]},
    {"kind": "convergence", "vary": "dt", "n_list": [9, 17, 33], "schemes": ["lagrange"],
     "eps": 0},
    {"kind": "stability-scan", "n": 8, "eps": -1},
    {"kind": "stability-scan", "n": 8, "eps": 0},
    {"kind": "stability-scan", "n": 8, "alpha_list": [[1]]},
    {"kind": "stability-scan", "n": 8, "alpha_list": [0.0]},
    {"kind": "amplification-check", "n": 8, "modes": [0, 1.5]},
    {"kind": "amplification-check", "n": 8, "modes": [0, 4]},
    {"kind": "point-trace", "point": [None, 0]},
    {"kind": "convergence", "vary": "dt", "n_list": [9, 17], "schemes": ["lagrange"]},
    {"kind": "convergence", "vary": "dy", "n_list": [9, 17], "schemes": ["fourier", "imex"]},
    {"kind": "convergence", "vary": "dy", "n_list": [], "schemes": ["fourier"]},
    {"kind": "convergence", "vary": "dt", "n_list": [9, 17, 9], "schemes": ["lagrange"]},
    {"kind": "aligned-run", "a": -1},
    {"kind": "aligned-run", "x_min": 7},
    {"kind": "rotating-run", "gamma": 1e400},
    {"kind": "amplification-check", "alpha": -1},
    # integers numpy cannot take as a number: beyond 64 bits, beyond the float range
    {"kind": "aligned-run", "a": 10 ** 300},
    {"kind": "rotating-run", "t_end": 10 ** 400},
    {"kind": "aligned-run", "nx": 10 ** 31},
    # the slope fit over eps needs three or more points, each at eps > 0
    {"kind": "cond-sweep", "eps_list": [1e-3, 1e-4]},
    {"kind": "cond-sweep", "toy": 2, "rot_n": 8, "eps_list": [1e-2, 1e-3, 0]},
])
def test_scheme_errors_are_config_errors(tmp_path, capsys, entry):
    # caught before any compute starts: exit 1, no output directory
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry,key", [
    ({"kind": "aligned-run", "nx": 9, "ny": 9, "nt": 3, "t_end": 5e-324}, "t_end"),  # dt = 0
    ({"kind": "aligned-run", "nx": 9, "ny": 9, "nt": 3, "b": 5e-324}, "b"),  # beta = 0
    ({"kind": "amplification-check", "n": 8, "modes": [0, 1], "dt": 1e-320}, "dt"),  # a = inf
    # eps + beta rounds to beta: the factored imex y-system is singular
    ({"kind": "aligned-run", "nx": 9, "ny": 9, "nt": 3, "eps_list": [1e-20]}, "eps_list"),
    ({"kind": "aligned-run", "nx": 9, "ny": 9, "nt": 3, "eps_list": [1e-20],
      "schemes": ["micro-macro"]}, "eps_list"),
    ({"kind": "stability-scan", "n": 8, "eps": 5e-324}, "eps"),
    # the stabilization s = (dx dy)^gamma of the multiplier system overflows
    # (a traceback), or is 0 and the system exactly singular (exit 2)
    ({"kind": "rotating-run", "gamma": -200, "nt": 3, "schemes": ["lagrange"]}, "gamma"),
    ({"kind": "cond-sweep", "toy": 2, "rot_n": 8, "gamma": -3000}, "gamma"),
    ({"kind": "rotating-run", "nx": 8, "ny": 8, "nt": 3, "gamma": 3000,
      "schemes": ["lagrange"], "eps_list": [1e-3]}, "gamma"),
    # the largest entry (dt/eps) max|U| of the fully implicit matrix overflows:
    # a NaN condition number (exit 0), or an exactly singular factor (exit 2)
    ({"kind": "cond-sweep", "toy": 2, "rot_n": 3, "rot_dt": 2.0,
      "eps_list": [1.0, 2.0, 2.2250738585072014e-308]}, "eps_list"),
    ({"kind": "rotating-run", "nx": 12, "ny": 12, "nt": 3, "eps_list": [5e-324]}, "eps_list"),
    # the ratios dt/dx, dt/dy of the rotating scheme config overflow
    ({"kind": "rotating-run", "nt": 3, "t_end": 1e308, "schemes": ["lagrange"]}, "t_end"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_derived_underflow_is_a_config_error(tmp_path, capsys, entry, key):
    # each passed validation and exited 2 at its first step, or wrote NaN
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 1
    assert f"config error: key '{key}': " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme", ["imp", "lagrange"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rotation_operator_overflow_is_a_config_error(tmp_path, capsys, scheme):
    # max|y|/dx overflows, so U would hold an infinite entry: imp exited 1 with
    # a message that named no key, lagrange passed validation and exited 2
    entry = {"kind": "rotating-run", "x_min": -1e-300, "x_max": 1e-300, "y_min": -1e300,
             "y_max": 1e300, "nx": 8, "ny": 8, "nt": 3, "schemes": [scheme]}
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 1
    assert ("config error: keys 'x_min', 'x_max', 'y_min', 'y_max': the derived largest entry"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_schemes_without_the_imex_system_take_tiny_eps():
    # fourier and lagrange have no y-system that eps + beta = beta makes singular
    cfg = ExperimentConfig("aligned-run", {"schemes": ["fourier", "lagrange"],
                                           "eps_list": [1e-20, 5e-324]})
    assert cfg.params["eps_list"] == [1e-20, 5e-324]


NUMERIC_KEYS = [(kind, key) for kind in EXPERIMENT_KINDS
                for key, value in default_params(kind).items()
                if isinstance(value, (int, float))]


@pytest.mark.parametrize("kind,key", NUMERIC_KEYS)
def test_non_finite_numbers_are_config_errors(kind, key):
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"'{key}'"):
            ExperimentConfig(kind, {key: value})


def _boundaries():
    """(kind, key, last rejected value, first accepted value, other keys) of
    every bounded key, each set over the kind's defaults and the other keys."""
    rows = []
    for kind in EXPERIMENT_KINDS:
        d = default_params(kind)
        for key in d:
            # modes must satisfy 2|k| < n; only toy 2 of cond-sweep reads rot_n and rot_dt
            others = {"modes": [0]} if key == "n" and "modes" in d else {}
            others = {"toy": 2} if key in ("rot_n", "rot_dt") else others
            if key in ("nx", "ny", "nt", "n", "rot_n"):
                rows.append((kind, key, 2, 3, others))
            elif key in ("t_end", "dt", "rot_dt", "beta", "b", "alpha", "eps"):
                rows.append((kind, key, 0.0, 5e-324, others))
            elif key == "a":
                rows.append((kind, key, -5e-324, 0.0, others))
            elif key in ("x_max", "y_max") and kind == "rotating-run":
                # the domain [-3, x_max] holds the circle of radius min(1, lx/4, ly/4)
                rows.append((kind, key, math.nextafter(1.0, -math.inf), 1.0, others))
            elif key in ("x_max", "y_max"):
                low = d[key[0] + "_min"]
                rows.append((kind, key, low, math.nextafter(low, math.inf), others))
    return rows + [row if len(row) == 5 else (*row, {}) for row in [
        # integers take part as floats, so their magnitude stops at 2**53
        ("aligned-run", "nx", 2 ** 53 + 1, 2 ** 53),
        # imex is rejected at eps = 0 (the last two rows), the other schemes are not
        ("aligned-run", "eps_list", [-5e-324], [0.0], {"schemes": ["fourier"]}),
        ("point-trace", "eps_list", [1.0, -5e-324], [1.0, 0.0],
         {"schemes": ["fourier", "micro-macro", "lagrange"]}),
        ("amplification-check", "eps_list", [-5e-324], [0.0], {"schemes": ["lagrange"]}),
        # the fully implicit default scheme and the exact solution need eps > 0
        ("rotating-run", "eps_list", [0.0], [5e-324]),
        ("eps-sweep", "eps_list", [0.0], [5e-324]),
        # a log-log slope fit over three or more condition numbers
        ("cond-sweep", "eps_list", [1e-2, 1e-3, 0.0], [1e-2, 1e-3, 5e-324]),
        ("convergence", "n_list", [2, 17, 33], [3, 17, 33]),
        ("stability-scan", "alpha_list", [0.0], [5e-324]),
        ("amplification-check", "modes", [0, 32], [0, 31]),
        ("amplification-check", "modes", [-32], [-31]),
        ("point-trace", "point", [-1, 0], [0, 0]),
        ("point-trace", "point", [0, -1], [0, 0]),
        ("point-trace", "point", [2, 0], [1, 0]),
        ("point-trace", "point", [0, 200], [0, 199]),
        # likewise [x_min, 3] from x_min = -1 on
        ("rotating-run", "x_min", math.nextafter(-1.0, math.inf), -1.0),
        ("rotating-run", "y_min", math.nextafter(-1.0, math.inf), -1.0),
        # the imex y-system is singular at eps = 0
        ("aligned-run", "eps_list", [0.0], [5e-324], {"schemes": ["imex"]}),
        ("amplification-check", "eps_list", [0.0], [5e-324], {"schemes": ["imex"]}),
    ]]


# least values of a key's own rule that make a value derived from several keys
# underflow, by (kind, key, value): the config is turned down all the same,
# with a message that names the key and says what underflowed
_SPACING = "invalid dimension: spacings"
_SINGULAR = "is singular in floating point"
DERIVED_UNDERFLOWS = {
    **{(kind, key, "5e-324"): _SPACING
       for kind in ("aligned-run", "eps-sweep", "point-trace") for key in ("x_max", "y_max")},
    **{(kind, "t_end", "5e-324"): "time step t_end / \\(nt - 1\\) is 0.0"
       for kind in ("aligned-run", "eps-sweep", "point-trace", "rotating-run")},
    **{(kind, "b", "5e-324"): "ratio beta = b dt / dy is 0.0"
       for kind in ("aligned-run", "eps-sweep", "point-trace", "convergence")},
    ("amplification-check", "dt", "5e-324"): "x-speed is inf",
    ("stability-scan", "alpha_list", "[5e-324]"): "time step is 0.0",
    # eps + beta rounds to beta: the imex and micro-macro y-systems are singular
    ("convergence", "eps", "5e-324"): _SINGULAR,
    ("stability-scan", "eps", "5e-324"): _SINGULAR,
    ("eps-sweep", "eps_list", "[5e-324]"): _SINGULAR,
    ("aligned-run", "eps_list", "[5e-324]"): _SINGULAR,
    ("amplification-check", "eps_list", "[5e-324]"): _SINGULAR,
    # dt / eps overflows: the fully implicit matrix has an infinite entry
    ("rotating-run", "eps_list", "[5e-324]"): "IMP matrix entry .* is inf",
}


@pytest.mark.parametrize("kind,key,rejected,accepted,others", _boundaries())
def test_config_bounds(kind, key, rejected, accepted, others):
    with pytest.raises(ValueError, match=f"'{key}'"):
        ExperimentConfig(kind, {**others, key: rejected})
    underflow = DERIVED_UNDERFLOWS.get((kind, key, repr(accepted)))
    if underflow is None:
        assert ExperimentConfig(kind, {**others, key: accepted}).params[key] == accepted
    else:
        with pytest.raises(ValueError, match=f"'{key}'.*: .*{underflow}"):
            ExperimentConfig(kind, {**others, key: accepted})



def test_every_config_key_has_a_rule():
    # schemes has none of its own: its names depend on the kind
    for kind in EXPERIMENT_KINDS:
        assert set(default_params(kind)) - set(experiments._RULES) <= {"schemes"}, kind


def _perturbed(kind: str, key: str, value):
    """Another admissible value of a key: the next choice of a fixed set, other
    schemes, a number or the first entry of a list moved up, the next y-node."""
    rule = experiments._RULES.get(key)
    if key == "schemes":
        names = [s.value for s in (RotatingScheme if kind == "rotating-run" else AlignedScheme)]
        return [s for s in names if s not in value][:1] or value[1:]
    if key == "point":
        return [value[0], value[1] + 1]
    if isinstance(rule, tuple):
        return rule[(rule.index(value) + 1) % len(rule)]
    if isinstance(value, list):
        return [_perturbed(kind, key, value[0])] + value[1:]
    return value + 1 if rule.integer else value + 0.5


def _job_table(cfg) -> list:
    """``cfg.jobs`` with each cond-sweep family as its function and arguments:
    a ``functools.partial`` compares by identity."""
    return [tuple((j.func, j.args, j.keywords) if isinstance(j, functools.partial) else j
                  for j in job) for job in cfg.jobs]


def _written(kind: str, params: dict, out: Path) -> dict:
    experiments._execute_one(ExperimentConfig(kind, params, "run"), out)
    return {p.name: p.read_bytes() for p in (out / "run").iterdir() if p.name != "manifest.json"}


# every key is perturbed over each kind's defaults and over toy 2 of cond-sweep,
# except point and modes: only the runner reads them, so their bytes are compared
BY_RUNNER = {"point": ("point-trace", {"ny": 9, "nt": 5}),
             "modes": ("amplification-check", {"n": 9, "modes": [0, 1, 3]})}
PERTURBED = ([(kind, {}, key) for kind in EXPERIMENT_KINDS for key in default_params(kind)
              if key not in BY_RUNNER]
             + [("cond-sweep", {"toy": 2}, key) for key in default_params("cond-sweep")]
             + [(kind, base, key) for key, (kind, base) in BY_RUNNER.items()])


@pytest.mark.parametrize("kind,base,key", PERTURBED)
def test_every_key_acts_or_is_refused(tmp_path, kind, base, key):
    # a key whose value changes neither the jobs nor the output does nothing
    params = {**base, key: _perturbed(kind, key, {**default_params(kind), **base}[key])}
    try:
        cfg = ExperimentConfig(kind, params)
    except ValueError as exc:
        assert str(exc).startswith(f"key '{key}': "), exc
        return
    if key in BY_RUNNER:
        assert _written(kind, params, tmp_path / "b") != _written(kind, base, tmp_path / "a")
    else:
        assert _job_table(cfg) != _job_table(ExperimentConfig(kind, base))


def test_readme_lists_every_config_key_of_every_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
    expected = {}
    for kind in EXPERIMENT_KINDS:
        for key in default_params(kind):
            expected.setdefault(key, set()).add(kind)
    assert {key: set(kinds.split(", ")) for key, kinds in rows} == expected
    assert len(rows) == len(expected)


JSON_LEAVES = (st.none() | st.booleans() | st.text(max_size=4)
               | st.integers() | st.sampled_from([2 ** 53, 2 ** 64, -(10 ** 400), 10 ** 31])
               | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_fuzz_constructs_or_raises_value_error(data):
    # constructs only: a config that passes is never run here
    kind = data.draw(st.sampled_from(EXPERIMENT_KINDS))
    keys = data.draw(st.sets(st.sampled_from(sorted(default_params(kind)))))
    params = {key: data.draw(JSON_VALUES | st.just(default_params(kind)[key])) for key in keys}
    try:
        ExperimentConfig(kind, params)
    except ValueError:
        pass


# upper bounds that keep a generated run to milliseconds; every size is drawn
FUZZ_CAPS = {"nx": 9, "ny": 9, "n": 9, "rot_n": 9, "nt": 5}


def rule_values(key):
    """Values that ``experiments._RULES[key]`` admits, within the fuzz caps."""
    rule = experiments._RULES[key]
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    if rule.integer:
        low = -4 if rule.low is None else int(rule.low)
        return st.integers(low, FUZZ_CAPS.get(key, low + 8))
    low = -10.0 if rule.low is None else rule.low
    return st.floats(low, 10.0, exclude_min=rule.strict)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_config_fuzz_runs_end_to_end(data):
    # convergence takes its step counts from its sweep setups, not the config
    kind = data.draw(st.sampled_from([k for k in EXPERIMENT_KINDS if k != "convergence"]))
    entry = {"kind": kind, "name": "fuzz"}
    # cond-sweep refuses the keys of the toy it does not run: the toy comes first
    unread = ()
    if kind == "cond-sweep":
        entry["toy"] = data.draw(rule_values("toy"))
        unread = experiments._UNREAD_BY_TOY[entry["toy"]]
    for key, default in default_params(kind).items():
        if key in entry or key in unread:
            continue
        if key == "schemes":
            names = [s.value for s in
                     (RotatingScheme if kind == "rotating-run" else AlignedScheme)]
            drawn = st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
        elif isinstance(default, list):
            drawn = st.lists(rule_values(key), min_size=1, max_size=3)
        else:
            drawn = rule_values(key)
        entry[key] = data.draw(drawn if key in FUZZ_CAPS else st.just(default) | drawn)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = run_experiment(write_config(Path(tmp), entry), str(out))
        assert code in (0, 1, 2)
        # a failed run leaves nothing behind, not even its .fuzz.partial directory
        left = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert left == (["fuzz"] if code == 0 else [])
        if code == 0:
            manifest = json.loads((out / "fuzz" / "manifest.json").read_text())
            listed = {o["path"]: o["sha256"] for o in manifest["outputs"]}
            on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (out / "fuzz").iterdir() if p.name != "manifest.json"}
            assert listed == on_disk


TINY_ALIGNED = {"kind": "aligned-run", "name": "tiny", "nx": 17, "ny": 17,
                "nt": 11, "schemes": ["imex"], "eps_list": [1.0]}


def test_aligned_run_outputs(tmp_path):
    cfg = write_config(tmp_path, TINY_ALIGNED)
    assert run_experiment(cfg, str(tmp_path / "out")) == 0
    out = tmp_path / "out" / "tiny"
    names = {p.name for p in out.iterdir()}
    assert {"field_imex_eps1e00_snap0.csv", "field_imex_eps1e00_snap1.csv",
            "diagnostics_imex_eps1e00.csv", "errors.csv", "plot.gp",
            "manifest.json"} <= names

    field = (out / "field_imex_eps1e00_snap1.csv").read_text().splitlines()
    assert field[0] == "x,y,value"
    assert len(field) == 1 + 17 * 17
    for cell in field[1].split(","):
        assert FLOAT_RE.match(cell), cell

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kind"] == "aligned-run"
    assert manifest["config"]["nx"] == 17
    assert manifest["wall_time_s"] >= 0.0
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def _reference_field_csv(field) -> bytes:
    """The field writer _write_field replaced: csv.writer over one
    (x, y, value) row per node, each value formatted on its own."""
    full = field.full_values()
    g = field.grid
    xs = g.x_min + g.dx * np.arange(g.nx)
    ys = g.y_min + g.dy * np.arange(g.ny)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "value"])
    for i in range(g.nx):
        for j in range(g.ny):
            writer.writerow([f"{float(v):.16e}" for v in (xs[i], ys[j], full[i, j])])
    return buf.getvalue().encode("utf-8")


def test_field_writer_matches_reference_on_edge_values(tmp_path):
    # values the golden configs never reach: signed zero, a subnormal,
    # huge magnitudes, exact integers and an inexact fraction
    values = np.array([[-0.0, 5e-324, 1e300, -1e300],
                       [0.0, 1.0, -7.0, 2.0 ** 53],
                       [1.0 / 3.0, -1.0 / 3.0, 123456789.0, -5e-324]])
    field = Field2D(make_grid2d(-1.5, 0.0, -1.0, 1.0, 4, 5), values)
    path = experiments._write_field(tmp_path / "field.csv", field)
    assert path.read_bytes() == _reference_field_csv(field)


def test_runs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, TINY_ALIGNED)
    assert run_experiment(cfg, str(tmp_path / "a")) == 0
    assert run_experiment(cfg, str(tmp_path / "b")) == 0
    for name in ("errors.csv", "field_imex_eps1e00_snap1.csv",
                 "diagnostics_imex_eps1e00.csv"):
        left = (tmp_path / "a" / "tiny" / name).read_bytes()
        right = (tmp_path / "b" / "tiny" / name).read_bytes()
        assert left == right


def test_run_experiment_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "aligned-run", "bogus": 1})
    assert run_experiment(cfg) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bogus" in err


def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run_experiment(str(path), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "not valid JSON" in err and "Traceback" not in err


def test_rotating_run_domain_must_hold_the_circle(tmp_path, capsys):
    # the summary averages over a circle about the origin, so an off-centre
    # domain is a config error, caught before any scheme runs
    entry = {"kind": "rotating-run", "x_min": 0.5, "nx": 8, "ny": 8, "nt": 3}
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'x_min'" in err and "circle" in err
    assert not (tmp_path / "out").exists()
    assert ExperimentConfig("rotating-run", {}).params["x_min"] == -3.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_experiment_numerical_failure(tmp_path, capsys):
    # a = 1e200 overflows the explicit step to inf within two steps
    entry = dict(TINY_ALIGNED, a=1e200)
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 2
    assert ("numerical failure in tiny: step 2: non-finite field values"
            in capsys.readouterr().err)
    # neither the experiment's directory nor its partial one is left behind
    assert list((tmp_path / "out").iterdir()) == []


def test_os_error_in_an_experiment_exits_2(tmp_path, capsys):
    # a regular file where the experiment's directory goes fails the rename
    out = tmp_path / "out"
    out.mkdir()
    (out / "stab").write_text("not a directory\n")
    entry = {"kind": "stability-scan", "name": "stab", "n": 8, "alpha_list": [0.9]}
    assert run_experiment(write_config(tmp_path, entry), str(out)) == 2
    assert "OS error in stab:" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["stab"]
    assert (out / "stab").read_text() == "not a directory\n"


def test_memory_error_in_an_experiment_exits_2(tmp_path, capsys):
    # 10**15 nodes ask for 7 PiB at once; the allocation fails without using memory
    entry = {"kind": "aligned-run", "name": "big", "nx": 10 ** 15, "ny": 5, "nt": 3}
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 2
    assert "out of memory in big:" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def _listed_equals_on_disk(out):
    listed = {o["path"] for o in json.loads((out / "manifest.json").read_text())["outputs"]}
    return listed == {p.name for p in out.iterdir()} - {"manifest.json"}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_failed_batch_entry_keeps_the_others(tmp_path):
    out = tmp_path / "out"
    assert run_experiment(write_config(tmp_path, TINY_ALIGNED), str(out)) == 0
    before = {p.name: p.read_bytes() for p in (out / "tiny").iterdir()}
    batch = [dict(TINY_ALIGNED, name="first", nt=3), dict(TINY_ALIGNED, a=1e200)]
    assert run_experiment(write_config(tmp_path, batch), str(out)) == 2
    # the failed rerun of tiny leaves the earlier tiny as it was
    assert {p.name for p in out.iterdir()} == {"tiny", "first"}
    assert {p.name: p.read_bytes() for p in (out / "tiny").iterdir()} == before
    assert _listed_equals_on_disk(out / "first")


def test_rerun_replaces_the_output_directory(tmp_path):
    out = tmp_path / "out"
    (out / "tiny").mkdir(parents=True)
    (out / "tiny" / "stale.csv").write_text("old\n")
    (out / ".tiny.partial").mkdir()
    params = {"nx": 17, "ny": 17, "nt": 3, "schemes": ["imex"], "eps_list": [1.0]}
    name, paths = experiments._execute_one(ExperimentConfig("aligned-run", params, "tiny"), out)
    assert {p.name for p in out.iterdir()} == {"tiny"}
    assert sorted(paths) == sorted(str(p) for p in (out / "tiny").iterdir()
                                   if p.name != "manifest.json")
    assert _listed_equals_on_disk(out / "tiny")


def test_manifest_lists_every_file_in_name_order(tmp_path, monkeypatch):
    # a file the runner writes but names in no plot line is listed too
    def with_extra(cfg, out):
        (out / "extra.csv").write_text("x\n1\n", encoding="utf-8")
        return runner(cfg, out)

    runner = experiments._RUNNERS["stability-scan"]
    monkeypatch.setitem(experiments._RUNNERS, "stability-scan", with_extra)
    entry = {"kind": "stability-scan", "name": "stab", "n": 8, "alpha_list": [0.9]}
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 0
    out = tmp_path / "out" / "stab"
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert [o["path"] for o in outputs] == ["extra.csv", "plot.gp", "stability.csv"]
    assert outputs[0]["sha256"] == hashlib.sha256(b"x\n1\n").hexdigest()
    assert _listed_equals_on_disk(out)


# one tiny entry of each kind, so that every kind's jobs are covered
TINY_BATCH = [
    dict(TINY_ALIGNED, name="first", nt=3),
    {"kind": "stability-scan", "name": "second", "n": 8, "alpha_list": [0.9, 1.1]},
    {"kind": "rotating-run", "name": "rotating", "nx": 9, "ny": 9, "nt": 3,
     "schemes": ["imp", "lagrange"], "eps_list": [1.0, 1e-3]},
    {"kind": "point-trace", "name": "trace", "nx": 5, "ny": 9, "nt": 5,
     "schemes": ["imex", "fourier"], "eps_list": [1.0, 0.1]},
    {"kind": "eps-sweep", "name": "sweep", "nx": 9, "ny": 9, "nt": 3,
     "schemes": ["micro-macro", "lagrange"], "eps_list": [1.0, 0.1]},
    {"kind": "convergence", "name": "conv", "vary": "dt", "n_list": [5, 9, 17],
     "schemes": ["imex", "lagrange"]},
    {"kind": "cond-sweep", "name": "cond", "toy": 2, "rot_n": 8, "eps_list": [0.1, 0.01, 0.001]},
    {"kind": "amplification-check", "name": "amp", "n": 8, "modes": [0, 1, 3],
     "schemes": ["fourier", "imex"], "eps_list": [1.0, 1e-3]},
]


def test_worker_pool_writes_the_same_bytes(tmp_path):
    cfg = write_config(tmp_path, TINY_BATCH)
    for workers in (1, 2):
        assert run_experiment(cfg, str(tmp_path / f"w{workers}"), workers=workers) == 0
    files = {w: {p.relative_to(tmp_path / w): p.read_bytes()
                 for p in (tmp_path / w).rglob("*.*") if p.name != "manifest.json"}
             for w in ("w1", "w2")}
    assert len(files["w1"]) == 43 and files["w1"] == files["w2"]


@pytest.mark.parametrize("entry", TINY_BATCH, ids=lambda entry: entry["kind"])
def test_runners_step_the_jobs_that_validation_built(tmp_path, monkeypatch, entry):
    # the runner steps the very scheme configs (cond-sweep: matrix families)
    # that validation built, in their order, and builds none of its own
    params = {k: v for k, v in entry.items() if k not in ("kind", "name")}
    cfg = ExperimentConfig(entry["kind"], params, "tiny")
    stepped = []
    for name in ("run_aligned", "run_rotating", "amplification_factors", "cond_sweep"):
        def record(scfg, *args, real=getattr(experiments, name), **kwargs):
            stepped.append(scfg)
            return real(scfg, *args, **kwargs)

        monkeypatch.setattr(experiments, name, record)
    experiments._execute_one(cfg, tmp_path)
    assert cfg.jobs
    assert [id(scfg) for scfg in stepped] == [id(job[2]) for job in cfg.jobs]


@pytest.mark.parametrize("kind,params", [(kind, {}) for kind in EXPERIMENT_KINDS]
                         + [("cond-sweep", {"toy": 2})])
def test_jobs_survive_pickle(kind, params):
    # a worker pool ships configs, jobs included, to its processes
    cfg = ExperimentConfig(kind, params)
    copy = pickle.loads(pickle.dumps(cfg.jobs))
    assert cfg.jobs and len(copy) == len(cfg.jobs)
    if kind != "cond-sweep":
        assert copy == cfg.jobs
        return
    for (scheme, eps_list, family, _), job in zip(cfg.jobs, copy):
        assert job[:2] == (scheme, eps_list)
        assert (family(eps_list[-1]) != job[2](eps_list[-1])).nnz == 0


@pytest.mark.parametrize("workers,cpus,pool_size", [
    (100_000, 64, 3), (100_000, 2, 2), (2, 64, 2), (100_000, None, None), (1, 64, None)])
def test_worker_pool_is_capped(tmp_path, monkeypatch, workers, cpus, pool_size):
    # the pool forks all its processes at the first submit, so it must not
    # be sized by --workers alone; the stand-in maps in process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    batch = [dict(TINY_ALIGNED, name=name, nt=3) for name in ("a", "b", "c")]
    assert run_experiment(write_config(tmp_path, batch), str(tmp_path / "out"),
                          workers=workers) == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    assert {p.name for p in (tmp_path / "out").iterdir()} == {"a", "b", "c"}


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, workers):
    def no_compute(*args):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(experiments, "_execute_one", no_compute)
    cfg = write_config(tmp_path, TINY_ALIGNED)
    assert main(["run", cfg, "--out", str(tmp_path / "out"), f"--workers={workers}"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--workers" in err
    assert not (tmp_path / "out").exists()


def test_close_eps_get_their_own_files(tmp_path):
    # one-digit tags would name both 1em03 and overwrite one run with the other
    entry = dict(TINY_ALIGNED, nt=3, eps_list=[1e-3, 1.4e-3])
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 0
    out = tmp_path / "out" / "tiny"
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert {"diagnostics_imex_eps1em03.csv", "diagnostics_imex_eps1.4em03.csv",
            "field_imex_eps1.4em03_snap1.csv"} <= on_disk
    listed = [o["path"] for o in json.loads((out / "manifest.json").read_text())["outputs"]]
    assert sorted(listed) == sorted(on_disk)


def test_convergence_fits_fourier_slope_unless_dy(tmp_path):
    batch = [{"kind": "convergence", "name": "dt", "vary": "dt", "n_list": [33, 65, 129],
              "schemes": ["fourier"]},
             # the Fourier error does not depend on dy: two points, no fit
             {"kind": "convergence", "name": "dy", "vary": "dy", "n_list": [9, 17],
              "schemes": ["fourier"]}]
    assert run_experiment(write_config(tmp_path, batch), str(tmp_path / "out")) == 0
    slopes = {}
    for name in ("dt", "dy"):
        rows = (tmp_path / "out" / name / "slopes.csv").read_text().splitlines()
        slopes[name] = float(rows[1].split(",")[1])
    assert 0.85 <= slopes["dt"] <= 1.15
    assert np.isnan(slopes["dy"])


def test_point_trace_outputs(tmp_path):
    entry = {"kind": "point-trace", "name": "trace", "ny": 17, "nt": 11,
             "t_end": 0.2, "schemes": ["imex", "fourier"], "eps_list": [1.0]}
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 0
    out = tmp_path / "out" / "trace"
    for scheme in ("imex", "fourier"):
        lines = (out / f"trace_{scheme}_eps1e00.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 1 + 11


def test_cond_sweep_outputs(tmp_path):
    entry = {"kind": "cond-sweep", "name": "conds", "ny": 16, "beta": 2.0,
             "eps_list": [1e-2, 1e-3, 1e-4]}
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 0
    out = tmp_path / "out" / "conds"
    rows = (out / "slopes.csv").read_text().splitlines()
    assert rows[0] == "scheme,slope,spread"
    table = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert set(table) == {"imex", "micro-macro", "lagrange"}
    # beta dominates eps on this range, so the implicit solve scales as 1/eps
    assert -1.2 <= table["imex"] <= -0.8
    assert abs(table["micro-macro"]) <= 0.1
    assert abs(table["lagrange"]) <= 0.1
    for scheme in table:
        lines = (out / f"cond_{scheme}.csv").read_text().splitlines()
        assert lines[0] == "eps,cond2"
        assert len(lines) == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cond_sweep_measures_huge_entries(tmp_path):
    # A^T A of these matrices overflows unless cond2 scales A first; imex is
    # exactly singular (eps + beta rounds to beta) and the Lagrange inverse
    # iteration does not settle, so both stay NaN
    entry = {"kind": "cond-sweep", "name": "huge", "ny": 8, "beta": 1e200,
             "eps_list": [1e-2, 1e-3, 1e-4]}
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 0
    out = tmp_path / "out" / "huge"
    table = {s: [float(r.split(",")[1]) for r in
                 (out / f"cond_{s}.csv").read_text().splitlines()[1:]]
             for s in ("imex", "micro-macro", "lagrange")}
    assert np.isnan(table["imex"]).all() and np.isnan(table["lagrange"]).all()
    # the condition number is scale-free: the value of the same matrix at beta = 1e20
    expected = cond2(cond_family_aligned("micro-macro", 7, 1e20)(1e-2))
    assert table["micro-macro"] == pytest.approx([expected] * 3, rel=1e-12)


def _y_condition(scfg) -> float:
    """kappa_inf of the linear system a step of ``scfg`` solves per column.

    The cyclic system of imex and micro-macro is the M-matrix A with
    A 1 = eps 1, so |A^-1|_inf = 1 / eps and kappa_inf = (eps + 2 beta) / eps.
    The Lagrange system's |A^-1|_inf = |A^-T|_1 is Hager's estimate (the one
    LAPACK's condition estimators use). Fourier solves no system: 1.
    """
    eps, beta, scheme = scfg.model.eps, scfg.beta, scfg.scheme
    if scheme is AlignedScheme.FOURIER or (eps == 0.0 and scheme is AlignedScheme.MICRO_MACRO):
        return 1.0
    if scheme is not AlignedScheme.LAGRANGE:
        return (eps + 2.0 * beta) / eps
    A = aligned_lagrange_matrix(scfg.grid.ny - 1, beta, eps)
    factor = SparseFactor(A)
    x = np.full(A.shape[0], 1.0 / A.shape[0])
    for _ in range(5):
        y = factor.raw_solve(x, trans="T")
        z = factor.raw_solve(np.sign(y))
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros_like(x)
        x[j] = 1.0
    return float(abs(A).sum(axis=1).max() * np.abs(y).sum())


def _written_errors(cfg, out: Path) -> list:
    """(eta, gamma) of every written error row in job order; convergence
    writes no gamma (NaN here)."""
    if cfg.kind == "aligned-run":
        files = [out / "errors.csv"]
    else:
        pattern = "errors_{}.csv" if cfg.kind == "eps-sweep" else "errors_dt_{}.csv"
        files = [out / pattern.format(s) for s in cfg.params["schemes"]]
    return [(float(r["eta"]), float(r.get("gamma", "nan")))
            for f in files for r in csv.DictReader(f.read_text(encoding="utf-8").splitlines())]


def test_written_model1_errors_follow_the_discrete_scheme(tmp_path):
    """Each written eta and gamma against ifft2(xi^N fft2(f0)), xi from
    ``amplification_factors``: the aligned schemes are linear and
    shift-invariant, so that is the final field of a run, up to rounding.

    Rounding model: in each of the N steps, on the run side and in xi^N, the
    y-solve of a backward-stable method adds a forward error of at most
    kappa_inf u max|f| (``_y_condition``), and the FFTs of the Fourier step
    and of the prediction log2(M) u max|f| on M nodes; a factor 10 covers
    the upwind step's few flops and the two sides. So the errors of the run
    and the prediction differ by at most 10 N (kappa_inf + log2 M) u max|f0|.

    vary dx and dy are left out: their fixed nt = 3201 costs about 2.5 s
    per sweep, against about 0.7 s for all of these runs together.
    """
    batch = [
        {"kind": "aligned-run", "name": "run", "nx": 17, "ny": 17,
         "schemes": ["imex", "fourier", "micro-macro", "lagrange"], "eps_list": [1e-3, 1.0]},
        {"kind": "aligned-run", "name": "limit", "nx": 17, "ny": 17,
         "schemes": ["fourier", "micro-macro", "lagrange"], "eps_list": [0.0]},
        {"kind": "eps-sweep", "name": "sweep", "nx": 33, "ny": 33, "nt": 41,
         "eps_list": [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]},
        {"kind": "convergence", "name": "dt", "vary": "dt", "n_list": [9, 17, 33],
         "schemes": ["imex", "fourier", "micro-macro", "lagrange"]},
    ]
    path = write_config(tmp_path, batch)
    assert run_experiment(path, str(tmp_path / "out")) == 0
    for cfg in load_configs(path):
        written = _written_errors(cfg, tmp_path / "out" / cfg.name)
        assert len(written) == len(cfg.jobs)
        for (scheme, _, scfg, n_steps), (eta, gamma) in zip(cfg.jobs, written):
            grid, model = scfg.grid, scfg.model
            f0 = sample(grid, model.f_in).values
            final = np.fft.ifft2(amplification_factors(scfg) ** n_steps * np.fft.fft2(f0)).real
            predicted, t = Field2D(grid, final), n_steps * scfg.dt
            tol = (10 * n_steps * (_y_condition(scfg) + math.log2(f0.size))
                   * np.finfo(float).eps * np.abs(f0).max())
            label = f"{cfg.name} {scheme} eps={model.eps} N={n_steps}"
            if model.eps > 0.0:
                assert abs(eta - error_eta(predicted, exact_aligned(model, t, grid))) <= tol, label
            else:
                assert np.isnan(eta), label
            if cfg.kind != "convergence":
                gamma_p = error_gamma(predicted, limit_aligned(model, t, grid))
                assert abs(gamma - gamma_p) <= tol, label


def test_amplification_check_outputs(tmp_path):
    # 8 is the Nyquist mode of the 16 stored nodes, where Fourier keeps Re(xi)
    entry = {"kind": "amplification-check", "name": "amp", "n": 17, "modes": [0, 3, 8],
             "eps_list": [1.0, 1e-3], "schemes": ["imex", "fourier", "micro-macro", "lagrange"]}
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 0
    lines = (tmp_path / "out" / "amp" / "amplification.csv").read_text().splitlines()
    assert lines[0] == "scheme,eps,k,l,measured,formula,abs_diff"
    assert len(lines) == 1 + 4 * 2 * 9
    for line in lines[1:]:
        assert float(line.split(",")[-1]) <= 1e-10


def test_stability_scan_outputs(tmp_path):
    entry = {"kind": "stability-scan", "name": "stab", "n": 16,
             "alpha_list": [0.9, 1.05]}
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 0
    lines = (tmp_path / "out" / "stab" / "stability.csv").read_text().splitlines()
    assert lines[0] == "alpha,max_xi"
    vals = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert vals[0.9] <= 1.0 + 1e-12
    assert vals[1.05] > 1.0


def test_rotating_run_outputs(tmp_path):
    entry = {"kind": "rotating-run", "name": "rot", "nx": 12, "ny": 12,
             "nt": 5, "schemes": ["imp", "lagrange"], "eps_list": [1.0]}
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 0
    out = tmp_path / "out" / "rot"
    names = {p.name for p in out.iterdir()}
    assert {"field_imp_eps1e00_snap1.csv", "cut_imp_eps1e00.csv",
            "field_lagrange_eps1e00_snap1.csv", "summary.csv"} <= names
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "scheme,eps,t,peak,circle_avg"
    assert len(lines) == 3


def test_cli_list_kinds(capsys):
    assert main(["list-kinds"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == list(EXPERIMENT_KINDS)


def test_cli_print_defaults(capsys):
    assert main(["print-defaults", "aligned-run"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["nx"] == 201 and blob["ic"] == "two-mode"
    assert main(["print-defaults", "bogus"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert "config error" in capsys.readouterr().err
