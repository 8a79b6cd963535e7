"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads api-scan mc-large --seeds 1 2 3 4 5

Runs run.py once per (workload, seed), then prints for each metric the
median of the runs and the distance between the first and third quartile
as a share of that median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from BENCHMARK.json.  ``--json FILE`` also saves every
run's result, with run.py's line of unscaled CPU figures as ``raw``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    saved = {}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            elapsed = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["raw"] = proc.stderr.strip().splitlines()[-1]  # unscaled CPU figures
            runs.append(result)
            print(f"{workload} seed {seed}: {elapsed:.0f} s correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        saved[workload] = runs
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {workload:12s} {name:12s} median {med:12.6g}  IQR/median {spread:6.3f}  "
                  f"bound {bound:.2f}  failed share {sum(r['failed'] for r in runs)}/"
                  f"{sum(r['attempted'] for r in runs)}", flush=True)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.json:
        args.json.write_text(json.dumps(saved, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
