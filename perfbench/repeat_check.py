"""Check that the traced run's counters and answers repeat exactly.

    python3 perfbench/repeat_check.py [--seed N] [WORKLOAD ...]

Runs the traced benchmark twice per workload (default: all) on the same
seed, each time in a fresh interpreter with its own string-hash seed, and
compares every counter (calls, rows, cols, nnz, terms_in, max_coeff_bits,
hit_ratio, unsolvable_ratio) and every answer.  Exits 1 on any difference.
A count-based claim may rest only on counters that this check shows
repeating.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTER_SUFFIXES = (".calls", ".rows", ".cols", ".nnz", ".terms_in",
                    ".max_coeff_bits", ".hit_ratio", ".unsolvable_ratio")


def traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    path = HERE / "out" / f"trace-{workload}-seed{seed}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    counters = {k: v for k, v in data["metrics"].items() if k.endswith(COUNTER_SUFFIXES)}
    return counters, data["answers"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    differences = 0
    for name in names:
        (c1, a1), (c2, a2) = traced_run(name, args.seed), traced_run(name, args.seed)
        diff = sorted(k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k))
        diff += sorted(q for q in a1.keys() | a2.keys() if a1.get(q) != a2.get(q))
        for key in diff:
            print(f"{name}: {key} differs: {c1.get(key, a1.get(key))} vs {c2.get(key, a2.get(key))}")
        print(f"{name}: {len(c1)} counters and {len(a1)} answers, {len(diff)} differ")
        differences += len(diff)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
