"""How the CPU time of each workload's ops drifts with the host, raw and scaled.

    python3 perfbench/drift.py --minutes 15

Builds the first op of every workload (seed 1), then repeats until the time
is up: both probes of worker.py, then each of the four ops, each timed in
CPU time.  Prints, over blocks of 40 repeats, the spread (IQR/median) of
each op's block median, raw, over each probe's block median, and over the
block median of both probes' sum.  A probe that moves with an op cuts that
op's spread; this is how worker.OP_PROBE was chosen.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run
import worker

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # the workloads import sqznb in process

#: Repeats per block: as many ops as one run times at least.
BLOCK = worker.MIN_OPS


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--minutes", type=float, default=15.0)
    args = parser.parse_args()

    runs = HERE / "_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="drift-", dir=runs))
    try:
        env = run._env()
        make_ops = {"cli-cold": lambda spec: worker.cli_cold(spec, env), "api-scan": worker.api_scan,
                    "budget-fine": worker.budget_fine, "mc-large": worker.mc_large}
        jobs = dict(worker.PROBES)
        for workload, build in make_ops.items():
            spec = json.loads(run._inputs(workload, 1, run_dir).read_text(encoding="utf-8"))
            jobs[workload] = build(spec)[0].run
        rows = []
        end = time.monotonic() + args.minutes * 60.0
        while time.monotonic() < end:
            row = {}
            for name, job in jobs.items():
                cpu0 = worker.cpu_seconds()
                job()
                row[name] = worker.cpu_seconds() - cpu0
            rows.append(row)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    blocks = [rows[i:i + BLOCK] for i in range(0, len(rows) - BLOCK + 1, BLOCK)]
    if len(blocks) < 2:
        print(f"{len(rows)} repeats: too few for two blocks of {BLOCK}", file=sys.stderr)
        return 1
    for row in rows:
        row["sum"] = sum(row[name] for name in worker.PROBES)
    medians = [{name: statistics.median(r[name] for r in block) for name in rows[0]} for block in blocks]
    print(f"{len(rows)} repeats in {args.minutes:g} min, {len(blocks)} blocks of {BLOCK}; "
          "IQR/median of the block medians")
    print("| ops of | raw CPU time | over the interpreter probe | over the numpy probe | over both |")
    print("|---|---|---|---|---|")
    for workload in make_ops:
        by = [spread([m[workload] / m[probe] if probe else m[workload] for m in medians])
              for probe in (None, "interpreter", "numpy", "sum")]
        print(f"| `{workload}` | " + " | ".join(f"{v:.3f}" for v in by) + " |")
    for probe in worker.PROBES:
        values = [m[probe] * 1e3 for m in medians]
        print(f"{probe} probe: block medians {min(values):.1f}-{max(values):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
