"""Experiment runner: configs, CSV outputs, manifests, CLI, determinism."""

import csv
import hashlib
import io
import json
import re

import numpy as np
import pytest

from aplab import experiments
from aplab.cli import main
from aplab.experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    default_params,
    load_configs,
    run_experiment,
)
from aplab.grid import Field2D, make_grid2d

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
    with pytest.raises(ValueError, match="unknown initial condition"):
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
    [""], ["."], [3],
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
])
def test_scheme_errors_are_config_errors(tmp_path, capsys, entry):
    # caught before any compute starts: exit 1, no output directory
    assert run_experiment(write_config(tmp_path, entry), str(tmp_path / "out")) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_run_experiment_numerical_failure(tmp_path, capsys):
    entry = dict(TINY_ALIGNED, eps_list=[0.0])
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 2
    assert "numerical failure in tiny: step 1:" in capsys.readouterr().err


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


def test_amplification_check_outputs(tmp_path):
    entry = {"kind": "amplification-check", "name": "amp", "n": 16,
             "modes": [0, 3], "eps_list": [1.0], "schemes": ["imex"]}
    cfg = write_config(tmp_path, entry)
    assert run_experiment(cfg, str(tmp_path / "out")) == 0
    lines = (tmp_path / "out" / "amp" / "amplification.csv").read_text().splitlines()
    assert lines[0] == "scheme,eps,k,l,measured,formula,abs_diff"
    assert len(lines) == 1 + 4
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
