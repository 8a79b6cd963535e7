"""sqznb benchmark: four closed-loop workloads, one client, one child at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload api-scan --seed 1 --seconds 15 --trace 0

``--workload`` is one of cli-cold, api-scan, budget-fine, mc-large, or
``all`` to run them in turn.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See perfbench/README.md for what each workload and metric
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("cli-cold", "api-scan", "budget-fine", "mc-large")

#: Set-ups per run; setup_s is their median.  The last one goes on to the timed loop.
SETUPS = 3

#: Wall-time limit of one workload's set-ups and timed loop together.  The
#: worker ends its loop well before (worker.FLOOR_LIMIT_S); a worker still
#: running at the limit is hung, and it is killed with its children.
RUN_LIMIT_S = 170.0

#: Per-layer metrics: name -> (unit, the workload whose traced round reports it).
PER_LAYER = {
    "import.total_ms": ("ms", "cli-cold"),
    "import.scipy_ms": ("ms", "cli-cold"),
    "import.numpy_ms": ("ms", "cli-cold"),
    "import.click_ms": ("ms", "cli-cold"),
    "import.sqznb_self_ms": ("ms", "cli-cold"),
    "cli.self_ms": ("ms", "budget-fine"),
    "config.load_ms": ("ms", "budget-fine"),
    "states.propagate_calls": ("count", "api-scan"),
    "states.propagate_us": ("us", "api-scan"),
    "estimate.fit_ms": ("ms", "api-scan"),
    "estimate.fit_iterations": ("count", "api-scan"),
    "estimate.optimize_ms": ("ms", "api-scan"),
    "estimate.optimize_iterations": ("count", "api-scan"),
    "estimate.forward_evals": ("count", "api-scan"),
    "estimate.mc_ms": ("ms", "mc-large"),
    "estimate.mc_samples": ("count", "mc-large"),
    "estimate.mc_traced_peak_mb": ("MB", "mc-large"),
    "interferometer.curve_ms": ("ms", "api-scan"),
    "interferometer.curve_points": ("count", "api-scan"),
    "budget.resample_ms": ("ms", "api-scan"),
    "budget.compose_ms": ("ms", "api-scan"),
    "budget.improvement_ms": ("ms", "api-scan"),
    "budget.ingest_ms": ("ms", "budget-fine"),
    "budget.ingest_rows": ("count", "budget-fine"),
    "budget.csv_write_ms": ("ms", "budget-fine"),
    "budget.csv_bytes": ("bytes", "budget-fine"),
    "svgplot.write_ms": ("ms", "budget-fine"),
    "svgplot.bytes": ("bytes", "budget-fine"),
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    """Child environment: sqznb from this checkout's src, default worker count."""
    env = {k: v for k, v in os.environ.items() if k != "SQZNB_THREADS"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(workload: str, inputs: Path, seconds: float, deadline: float, *,
            setup_only=False, trace=False):
    """Start a worker; returns (CPU seconds it spent until READY, its result or None).

    The worker runs in its own process group, so that a hung one is killed
    together with any ``python -m sqznb`` child it has started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--seconds", str(seconds)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker still running at the {RUN_LIMIT_S:.0f} s limit") from None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY"):
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    setup_s = float(lines[0].split()[1])
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload: str, inputs: Path, seconds: float) -> dict:
    """End-to-end metrics of one workload.  With fewer than two ops that did
    not fail there is no op time to report: the timing metrics are left out
    and ``correct`` is false."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [_worker(workload, inputs, seconds, deadline, setup_only=True)[0]
              for _ in range(SETUPS - 1)]
    setup_s, res = _worker(workload, inputs, seconds, deadline)
    setups.append(setup_s)
    print(f"{workload}: raw CPU set-up {statistics.median(setups):.4f} s, op p50 "
          f"{statistics.median(res['cpus'] or [0.0]) * 1e3:.2f} ms; scales set-up "
          f"{res['setup_scale']:.4f}, op {res['op_scale']:.4f}", file=sys.stderr)
    ms = [c * 1e3 * res["op_scale"] for c in res["cpus"]]
    metrics = {"setup_s": _metric(statistics.median(setups) * res["setup_scale"], "s")}
    if len(ms) >= 2:
        metrics["scaled_ms.p50"] = _metric(statistics.median(ms), "ms")
        metrics["scaled_ms.p75"] = _metric(statistics.quantiles(ms, n=4)[2], "ms")
        metrics["work_per_scaled_s"] = _metric(res["work"] * 1e3 / sum(ms), "1/s")
    metrics["peak_rss_mb"] = _metric(res["peak_rss_kb"] / 1024.0, "MB")
    return {
        "correct": res["mismatch"] is None and len(ms) >= 2,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def run_traced(seed: int, run_dir: Path) -> dict:
    """One traced round of every workload; each layer metric comes from its own workload."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    untraced = traced = 0.0
    deadline = time.monotonic() + RUN_LIMIT_S
    for workload in WORKLOADS:
        inputs = _inputs(workload, seed, run_dir)
        _, res = _worker(workload, inputs, 0.0, deadline, trace=True)
        attempted += res["attempted"]
        failed += res["failed"]
        correct &= res["mismatch"] is None and res["failed"] < res["attempted"]
        untraced += res["untraced_s"]
        traced += res["traced_s"]
        for name, (unit, source) in PER_LAYER.items():
            if source == workload:
                metrics[name] = _metric(res["layers"].get(name, 0.0), unit)
    if untraced > 0:
        metrics["trace.overhead_pct"] = _metric((traced / untraced - 1.0) * 100.0, "%")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _inputs(workload: str, seed: int, run_dir: Path) -> Path:
    from inputs import make_inputs

    wl_dir = run_dir / workload
    (wl_dir / "out").mkdir(parents=True, exist_ok=True)
    path = wl_dir / "inputs.json"
    path.write_text(json.dumps(make_inputs(workload, seed, ROOT, wl_dir)), encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sqznb" / "__init__.py").is_file():
        print(f"sqznb sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = HERE / "_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=runs))
    try:
        if args.trace:
            result = run_traced(args.seed, run_dir)
        elif args.workload == "all":
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                one = run_untraced(workload, _inputs(workload, args.seed, run_dir), args.seconds)
                print(json.dumps({"workload": workload, **one}), flush=True)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update({f"{workload}/{k}": v for k, v in one["metrics"].items()})
        else:
            result = run_untraced(args.workload, _inputs(args.workload, args.seed, run_dir),
                                  args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
