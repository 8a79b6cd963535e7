"""Reference figures for the benchmark README (context, not metrics).

    python3 perfbench/figures.py

Prints the machine's CPU count and last-level cache, the wall time of a
bare interpreter, timings of the MC and of a 1000-point quantum curve with
SQZNB_THREADS unset and set to 2, and the source size and runtime
dependency count of sqznb.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TIMING = """
import statistics, sys, time
import numpy as np
import sqznb
M = sqznb.MeasurementWithUncertainty
cfg = sqznb.InterferometerConfig(3995.0, 40.0, 8e5, 390.0)
setup = sqznb.SqueezerSetup(9.0, sqznb.LossChain.from_total(0.9), sqznb.PhaseNoise(0.035), "fixed")
grid = np.logspace(1, 4, 1000)

def median_ms(fn, n):
    times = []
    for _ in range(n):
        start = time.perf_counter(); fn(); times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3

curve = median_ms(lambda: sqznb.quantum_noise_curve(cfg, setup, grid), 300)
mc = median_ms(lambda: sqznb.mc_uncertainty(M(10.3, 0.2), M(0.44, 0.02), M(0.037, 0.006),
                                            samples=1_000_000, seed=1), 5)
print(f"{curve} {mc}")
"""


def _last_level_cache() -> str:
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            caches[level] = (index / "size").read_text().strip()
        except OSError:
            continue
    return f"L{max(caches)} {caches[max(caches)]}" if caches else "unknown"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SQZNB_THREADS", None)
    bare = []
    for _ in range(15):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - start)
    print(f"nproc: {os.cpu_count()}  last-level cache (per cpu0): {_last_level_cache()}")
    print(f"python -c pass: median {statistics.median(bare) * 1e3:.1f} ms over 15 runs")
    for threads in (None, "2"):
        run_env = dict(env, **({"SQZNB_THREADS": threads} if threads else {}))
        out = subprocess.run([sys.executable, "-c", TIMING], env=run_env, check=True,
                             capture_output=True, text=True).stdout.split()
        label = f"SQZNB_THREADS={threads}" if threads else "SQZNB_THREADS unset"
        print(f"{label}: quantum_noise_curve 1000 points {float(out[0]):.3f} ms (median of 300), "
              f"mc_uncertainty 1e6 samples {float(out[1]):.1f} ms (median of 5)")
    loc = sum(1 for path in (ROOT / "src" / "sqznb").glob("*.py")
              for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["dependencies"]
    print(f"sqznb source: {loc} non-blank lines; runtime dependencies: {len(deps)} ({', '.join(deps)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
