"""aplab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload stiff-steps --seed 0 --seconds 20 --trace 0

Closed loop with one client: each iteration is a fresh interpreter
(bench/worker.py) that imports aplab from ./src, validates the workload
config and runs ``run_experiment`` on it with ``workers=1``; the next
iteration starts only after the previous one has exited and its outputs have
been checked. Without tracing, one set-up-only worker runs first, for one
more ``setup_s`` sample. Iterations repeat until ``--seconds`` have passed,
at least two of them. With ``--trace 1`` plain and traced iterations
alternate, and the per-layer metrics come from the traced ones. The metric
names and units are those of BENCHMARK.json; bench/README.md explains each
of them.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKER_TIMEOUT_S = 150.0
SETUP_PROBES = 1  # set-up-only workers per untraced run, on top of one per iteration
SELF_SUM_TOL = 0.01  # layer self times must add up to the traced wall time

_SPAN_TIMES = ("grid.sample", "aligned.reference", "aligned_schemes.stepper_setup",
               "aligned_schemes.upwind_x", "rotating_schemes.assemble",
               "rotating_schemes.stepper_setup", "analysis.cond_sweep", "analysis.error",
               "analysis.fit_loglog_slope")
_SPAN_COUNTS = ("grid.Field2D", "linalg.solve_cyclic", "linalg.sparse_factor",
                "linalg.sparse_solve", "linalg.sparse_raw_solve", "linalg.cond2",
                "aligned_schemes.step.imex", "aligned_schemes.step.fourier",
                "aligned_schemes.step.micro-macro", "aligned_schemes.step.lagrange",
                "rotating_schemes.step.imp", "rotating_schemes.step.lagrange")
_DRIVERS = ("aligned_schemes.run_aligned", "rotating_schemes.run_rotating")
MODULES = ("grid", "aligned", "aligned_schemes", "linalg", "rotating_schemes", "analysis",
           "experiments")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced iteration; unused layers read 0."""
    spans = traced["spans"]
    out_stats = traced["out_stats"]

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    m = {}
    for name in _SPAN_TIMES:
        m[f"{name}.s"] = get(name, "s")
    for name in _SPAN_COUNTS:
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    for name in _DRIVERS:
        m[f"{name}.self_s"] = get(name, "self_s")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v["self_s"] for k, v in spans.items()
                                    if k.split(".", 1)[0] == module)
    counters = traced["counters"]
    unknowns = counters.get("linalg.solve_cyclic.unknowns", 0)
    m["linalg.solve_cyclic.unknowns"] = unknowns
    m["linalg.solve_cyclic.ns_per_unknown"] = 1e9 * _ratio(m["linalg.solve_cyclic.s"], unknowns)
    m["linalg.sparse_factor.lu_nnz"] = counters.get("linalg.sparse_factor.lu_nnz", 0)
    iters = counters.get("linalg.sparse_solve.refine_iters", 0)
    m["linalg.sparse_solve.refine_iters"] = iters
    m["linalg.sparse_solve.refine_per_solve"] = _ratio(iters, m["linalg.sparse_solve.calls"])
    m["linalg.sparse_solve.max_residual"] = counters.get("linalg.sparse_solve.max_residual", 0)
    m["experiments.bytes_written"] = out_stats["bytes"]
    m["experiments.files_written"] = out_stats["files"]
    m["experiments.write_mb_per_s"] = _ratio(out_stats["bytes"] / 1e6, m["experiments.self_s"])
    m["experiments.outputs_changed"] = out_stats["changed"]
    m["trace.wall_s"] = traced["wall_s"]
    return m


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "aplab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts worker processes and checks what each iteration wrote."""

    def __init__(self, workload: str, seed: int):
        self.entries = workloads.entries(workload, seed)
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["entries"]
        self.refs = [ref[workloads.reference_key(e)] for e in self.entries]
        self.dir = RUN_DIR / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.entries, indent=1) + "\n", encoding="utf-8")
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        self.problems = []

    def worker(self, mode: str) -> dict:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(self.config), str(out),
               repr(t0), mode, str(self.dir / "spans.csv")]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} worker timed out after {WORKER_TIMEOUT_S:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"{mode} worker exited {proc.returncode}: {tail[0]}"}
        return json.loads(lines[-1])

    def iteration(self, mode: str) -> dict:
        """One closed-loop iteration: run, then check every entry's outputs."""
        res = self.worker(mode)
        out = self.dir / "out"
        failed, changed = 0, 0
        if "error" in res or res["rc"] != 0:
            failed = len(self.entries)
            self.problems.append(res.get("error", f"run_experiment returned {res.get('rc')}"))
        else:
            for entry, ref in zip(self.entries, self.refs):
                try:
                    problems, n_changed = checks.check_entry(entry, out / entry["name"], ref)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems, n_changed = [f"{entry['name']}: unreadable output: {exc}"], 0
                changed += n_changed
                failed += bool(problems)
                self.problems += problems
        files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
        res["out_stats"] = {"bytes": sum(p.stat().st_size for p in files),
                            "files": len(files), "changed": changed}
        res["failed"] = failed
        shutil.rmtree(out, ignore_errors=True)
        return res

    def environment(self) -> dict:
        probe = self.worker("probe")
        if "error" in probe:
            raise RuntimeError(probe["error"])
        return {"git_sha": _git_sha(), "src_sha256": _src_sha256(), **probe["env"],
                "blas_thread_cap": self.nproc, "nproc": self.nproc, "cpu": _cpu_model()}


def _median(values) -> float:
    return float(statistics.median(values))


def _spread(values) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)}, range {min(values):.6g}..{max(values):.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "aplab" / "__init__.py").is_file():
        print(f"bench: no aplab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.workload, args.seed)
    try:
        env = runner.environment()  # also compiles aplab's bytecode before timing
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    modes = ("plain", "traced") if args.trace else ("plain",)
    runs = {mode: [] for mode in modes}
    start = time.monotonic()
    setups = [] if args.trace else [runner.worker("setup") for _ in range(SETUP_PROBES)]
    for res in setups:
        if "error" in res:
            runner.problems.append(res["error"])
    for i in itertools.count():
        mode = modes[i % len(modes)]
        runs[mode].append(runner.iteration(mode))
        if i >= 1 and time.monotonic() - start >= args.seconds:
            break

    attempted = len(runner.entries) * sum(len(r) for r in runs.values())
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    timed = {mode: [r for r in rs if "wall_s" in r] for mode, rs in runs.items()}
    if not all(timed.values()):
        print(f"bench: no iteration finished: {runner.problems[:3]}", file=sys.stderr)
        return 1

    plain = timed["plain"]
    samples = {"wall_s": [r["wall_s"] for r in plain],
               "setup_s": [r["setup_s"] for r in setups + plain if "setup_s" in r],
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    if args.trace:
        per_iter = [layer_metrics(r) for r in timed["traced"]]
        samples.update({k: [m[k] for m in per_iter] for k in per_iter[0]})
        samples["trace.overhead_s"] = [_median(samples["trace.wall_s"])
                                       - _median(samples["wall_s"])]
        for m in per_iter:
            layer_sum = sum(m[f"{mod}.self_s"] for mod in MODULES)
            if abs(layer_sum - m["trace.wall_s"]) > SELF_SUM_TOL * m["trace.wall_s"]:
                runner.problems.append(f"layer self times sum to {layer_sum:.4f} s, "
                                       f"traced wall {m['trace.wall_s']:.4f} s")

    metrics = {}
    for spec_metric in wanted:
        name = spec_metric["name"]
        metrics[name] = {"value": _median(samples[name]), "unit": spec_metric["unit"]}
    correct = failed == 0 and not runner.problems

    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:42s} {metric['value']:.6g} {metric['unit']}"
              f"  ({_spread(samples[name])})")
    print(f"{args.workload:16s} {'ops_failed_ratio':42s} {failed / attempted:.6g}"
          f"  ({failed} of {attempted} experiment entries failed)")
    for problem in dict.fromkeys(runner.problems):
        print(f"{args.workload:16s} problem: {problem}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "entries": runner.entries, "env": env,
              "samples": samples, "problems": runner.problems,
              "result": {"correct": correct, "attempted": attempted, "failed": failed,
                         "metrics": metrics}}
    result_path = runner.dir / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
