"""One benchmark iteration in a fresh interpreter.

    python worker.py SRC CONFIG OUT T0 MODE SPANS

Imports aplab from SRC and validates CONFIG with ``load_configs``; the time
from T0 (the parent's ``time.monotonic()`` just before it started this
process) to that point is the set-up time. MODE ``setup`` stops there;
``probe`` also reports the versions and BLAS set-up; ``plain`` runs ``run_experiment``
once; ``traced`` does the same under the span recorder and writes the spans
to SPANS. The last line of stdout is a JSON object with the results.
"""

import sys
import time


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[path.rsplit("/", 1)[-1]] = fn()
                break
    return out


def _probe() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def main() -> int:
    src, config, out, t0, mode, spans_path = sys.argv[1:7]
    sys.path.insert(0, src)
    import aplab
    from aplab.experiments import load_configs, run_experiment

    load_configs(config)
    setup_s = time.monotonic() - float(t0)

    import json
    import os
    import resource

    if not os.path.abspath(aplab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"aplab imported from {aplab.__file__}, not from {src}", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}
    if mode == "setup":
        pass
    elif mode == "probe":
        result["env"] = _probe()
    elif mode == "plain":
        start = time.perf_counter()
        result["rc"] = run_experiment(config, out, workers=1)
        result["wall_s"] = time.perf_counter() - start
    else:
        from spans import SpanRecorder, instrument

        recorder = SpanRecorder()
        instrument(recorder)
        traced_run = recorder.wrap(run_experiment, "experiments")
        start = time.perf_counter()
        result["rc"] = traced_run(config, out, workers=1)
        result["wall_s"] = time.perf_counter() - start
        result["spans"] = recorder.summary()
        result["counters"] = dict(recorder.counters)
        recorder.write(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
