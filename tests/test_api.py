"""Every exported name resolves: ``aplab.__all__`` and each module's ``__all__``;
every function and method the benchmark's span recorder wraps still exists;
importing aplab stays clear of the slow ``scipy.signal``."""

import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import aplab

MODULES = sorted(f"aplab.{m.name}" for m in pkgutil.iter_modules(aplab.__path__))
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module_name", ["aplab"] + MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_benchmark_span_targets_exist(monkeypatch):
    # bench/run.py --trace 1 wraps these by name; a deleted one breaks the benchmark
    for name in MODULES:
        importlib.import_module(name)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("aplab_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for fn, name, _ in spans._function_targets():
        assert callable(fn), name
    for cls, attr, name, _ in spans._method_targets():
        assert attr in cls.__dict__, f"{cls.__name__}.{attr} ({name})"


def test_import_leaves_out_scipy_signal():
    # scipy.signal took about 1 s of a 1.7 s start-up on a 2-vCPU machine;
    # a fresh interpreter shows whether any aplab module pulls it in again
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import aplab, aplab.cli, aplab.experiments; "
            "print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
