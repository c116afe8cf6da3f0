"""Record `seed0.json`, the seed-0 outputs the correctness gate compares.

Run once from the repository root, at the commit whose outputs are the
reference (the values in the repository were recorded at the commit the
benchmark was added on):

    python3 perfbench/record_seed0.py
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import gate, workloads

    out_dir = ROOT / ".perfbench-out" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for name, wl in sorted(workloads.WORKLOADS.items()):
        ctx = workloads.setup(wl, 0, str(out_dir))
        result = workloads.run_job(wl, ctx)
        problems = gate.check_job(wl, ctx, result)
        if problems:
            sys.exit(f"{name}: {problems}")
        recorded[name] = gate.recorded_values(wl, result)
    with open(gate.SEED0_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
