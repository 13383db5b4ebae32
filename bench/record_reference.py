"""Record the seed code's outputs for every entry any workload seed can draw.

    python3 bench/record_reference.py

Runs each distinct entry once with the aplab under ./src and writes
bench/reference.json: per entry, the sha256 of every output file and the
contents of its summary tables. bench/run.py checks each iteration against
it. Re-record only when a change alters outputs on purpose, and say which.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    sys.path.insert(0, str(ROOT / "src"))
    from aplab.experiments import run_experiment

    import checks
    import workloads

    scratch = ROOT / ".bench_run" / "reference"
    entries = {}
    for workload in workloads.WORKLOADS:
        for entry in workloads.all_entries(workload):
            key = workloads.reference_key(entry)
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            config = scratch / "config.json"
            config.write_text(json.dumps([entry]), encoding="utf-8")
            if run_experiment(str(config), str(scratch / "out")) != 0:
                print(f"{key}: run failed", file=sys.stderr)
                return 1
            out = scratch / "out" / entry["name"]
            hashes = checks.output_hashes(out)
            tables = {name: checks.read_table(out / name)
                      for name in hashes if checks.is_table(name)}
            entries[key] = {"sha256": hashes, "tables": tables}
            print(f"{key}: {len(hashes)} files", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps({"entries": entries}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
