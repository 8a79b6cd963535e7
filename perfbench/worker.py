"""One workload in a fresh interpreter; started by run.py, one at a time.

Protocol: the worker imports sqznb, loads its inputs, runs one warm-up op
and prints ``READY <cpu seconds>``: the CPU time this process and its
children have used so far, which run.py reports as set-up time.  With
``--setup-only`` it then exits.  Otherwise it runs whole rounds of ops,
closed loop, until at least ``--seconds`` have passed and at least MIN_OPS
ops were attempted, with host-speed probes before every op, checks every
output against reference.py, and prints one JSON line with the raw timings
and the probes' scale factors.  With ``--trace`` it instead runs one
round untraced and one round traced, and prints the layer figures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference as ref
from layers import LayerTrace, import_breakdown

#: Every run times at least this many ops, so p75 has ten samples beyond it.
MIN_OPS = 40

#: The MIN_OPS floor yields once the next round would end past this much loop
#: time, so that ops several times slower than today are still measured and
#: reported within the run's time limit, over fewer ops.
FLOOR_LIMIT_S = 100.0


class Op:
    """One benchmark operation: ``run()`` is timed, ``check(output)`` is not."""

    def __init__(self, name, run, check, work):
        self.name, self.run, self.check, self.work = name, run, check, work


# ---------------------------------------------------------------- shared checks

def _config(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


@functools.cache
def _expected(config_path: str):
    """Reference inputs of a run config: grid, model parameters, and each
    tabulated component interpolated onto the grid.  Inputs do not change
    within a run, so this is computed once per config."""
    cfg = _config(config_path)
    g = cfg["grid"]
    grid = ref.log_grid(g["f_min_hz"], g["f_max_hz"], g["points"])
    tables = {}
    for c in cfg.get("components", []):
        f, a = ref.read_asd_csv(Path(config_path).parent / c["file"])
        tables[c["label"]] = ref.loglog_interp(f, a, grid)
    return cfg, grid, ref.interferometer_params(cfg), ref.squeezer_params(cfg), tables


def _read_on_grid(path, grid):
    f, a = ref.read_asd_csv(path)
    ref.all_close(f"{path} frequencies", f, grid, rtol=1e-12)
    return a


def check_budget_files(op: dict) -> None:
    """``sqznb budget --svg`` outputs: every CSV, the summary and the SVG."""
    cfg, grid, ifo, sq, tables = _expected(op["config"])
    out = op["out"]
    quantum = _read_on_grid(f"{out}-quantum.csv", grid)
    ref.all_close("budget quantum", quantum,
                  ref.quantum_asd(grid, policy="fixed", **ifo, **sq), rtol=1e-10)
    components = [quantum]
    for label, want in tables.items():
        components.append(_read_on_grid(f"{out}-{label}.csv", grid))
        ref.all_close(f"budget {label}", components[-1], want, rtol=1e-9)
    total = _read_on_grid(f"{out}-total.csv", grid)
    total_ref = _read_on_grid(f"{out}-total-reference.csv", grid)
    ref.check_rss("budget total", total, components)
    ref.check_rss("budget reference total", total_ref,
                  [ref.quantum_asd(grid, **ifo)] + list(tables.values()), rtol=1e-10)
    summary = json.loads(Path(f"{out}-summary.json").read_text(encoding="utf-8"))
    ref.close("budget improvement_db.median", summary["improvement_db"]["median"],
              ref.improvement_median_db(grid, total_ref, total, cfg["band_hz"]), atol=1e-9)
    ref.check_svg(f"{out}.svg", curves=len(tables) + 3, points=len(grid))


def check_project_files(op: dict) -> None:
    """``sqznb project`` outputs: quantum and total CSVs per policy, and the SVG."""
    _, grid, ifo, sq, tables = _expected(op["config"])
    for policy in ("none", "fixed", "fd-optimal"):
        quantum = _read_on_grid(f"{op['out']}-quantum-{policy}.csv", grid)
        ref.all_close(f"project quantum {policy}", quantum,
                      ref.quantum_asd(grid, policy=policy, **ifo, **sq), rtol=1e-10)
        total = _read_on_grid(f"{op['out']}-total-{policy}.csv", grid)
        ref.check_rss(f"project total {policy}", total, [quantum] + list(tables.values()),
                      rtol=1e-10)
    ref.check_svg(f"{op['out']}.svg", curves=len(tables) + 6, points=len(grid))


def _file_work(op: dict) -> int:
    """Grid points times CSV curves emitted by one budget or project op."""
    cfg = _config(op["config"])
    curves = 6 if op["kind"] == "project" else 3 + len(cfg.get("components", []))
    return cfg["grid"]["points"] * curves


# ---------------------------------------------------------------- workloads

def cli_cold(spec: dict, env: dict) -> list[Op]:
    """A fresh ``python -m sqznb`` child per op, one child at a time."""

    def child(args):
        def run(importtime=False):
            flags = ["-X", "importtime"] if importtime else []
            proc = subprocess.run([sys.executable, *flags, "-m", "sqznb", *args],
                                  env=env, capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"sqznb {args[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
            return proc
        return run

    p, f, o = spec["propagate"], spec["fit"], spec["optimize"]

    def check_propagate(proc):
        got = json.loads(proc.stdout)
        theta = p["phase_mrad"] * 1e-3
        ref.close("propagate detected_db", got["detected_db"],
                  float(ref.detected_db(p["inject_db"], p["eta"], theta)), atol=1e-9)
        v_minus, _ = ref.degraded_variances(p["inject_db"], p["eta"], theta)
        ref.close("propagate v_minus", got["variances"]["detected"]["v_minus"], v_minus, rtol=1e-12)

    def check_fit(proc):
        got = json.loads(proc.stdout)
        ref.close("fit efficiency", got["efficiency"],
                  ref.fitted_eta(f["inject_db"], f["detected_db"], f["phase_mrad"] * 1e-3), atol=1e-12)

    def check_optimize(proc):
        got = json.loads(proc.stdout)
        theta = o["phase_mrad"] * 1e-3
        ref.close("optimize optimal_inject_db", got["optimal_inject_db"],
                  ref.optimal_inject_db(theta), atol=1e-5)
        ref.close("optimize detected_db", got["detected_db"],
                  float(ref.detected_db(got["optimal_inject_db"], o["eta"], theta)), atol=1e-9)

    def check_uncertainty(proc):
        got = json.loads(proc.stdout)
        inputs = got["inputs"]
        inject = (inputs["inject_db"]["value"], inputs["inject_db"]["sigma"])
        eta = (inputs["efficiency"]["value"], inputs["efficiency"]["sigma"])
        theta = (inputs["phase_noise_mrad"]["value"] * 1e-3, inputs["phase_noise_mrad"]["sigma"] * 1e-3)
        ref.check_mc(got["mean_db"], got["sigma_db"], got["samples"], inject, eta, theta)
        ref.close("uncertainty first_order_sigma_db", got["first_order_sigma_db"],
                  ref.first_order_sigma_db(inject, eta, theta), rtol=1e-6)

    b, pr = spec["budget"], spec["project"]
    return [
        Op("propagate", child(["propagate", "--inject-db", repr(p["inject_db"]), "--eta",
                               repr(p["eta"]), "--phase-mrad", repr(p["phase_mrad"])]),
           check_propagate, 1),
        Op("fit", child(["fit", "--injected", repr(f["inject_db"]), "--detected",
                         repr(f["detected_db"]), "--phase-mrad", repr(f["phase_mrad"])]),
           check_fit, 1),
        Op("optimize", child(["optimize", "--eta", repr(o["eta"]), "--phase-mrad",
                              repr(o["phase_mrad"])]),
           check_optimize, 1),
        Op("uncertainty", child(["uncertainty", "--seed", str(spec["uncertainty"]["seed"])]),
           check_uncertainty, 1),
        Op("budget", child(["budget", b["config"], "--out", b["out"], "--svg"]),
           lambda _: check_budget_files(b), 1),
        Op("project", child(["project", pr["config"], "--out", pr["out"]]),
           lambda _: check_project_files(pr), 1),
    ]


def api_scan(spec: dict) -> list[Op]:
    """Batches of design points through the library API, in memory."""
    import sqznb
    from sqznb import budget, estimate, interferometer, states

    grid = sqznb.GridSpec(*spec["grid"]).frequencies()
    table = sqznb.ingest_asd(spec["thermal"], label="thermal")
    ifo_args = spec["ifo"]
    band = tuple(spec["band"])
    ref_grid = ref.log_grid(*spec["grid"])
    ref_f, ref_a = ref.read_asd_csv(spec["thermal"])
    ref_thermal = ref.loglog_interp(ref_f, ref_a, ref_grid)

    def scan(batch):
        out = []
        for pt in batch:
            fit = estimate.fit_efficiency(pt["inject_db"], pt["measured_db"], pt["theta"])
            detected = states.propagate(pt["inject_db"], fit.estimate, pt["theta"]).detected_db
            opt = estimate.optimal_inject_db(fit.estimate, pt["theta"])
            ifo = sqznb.InterferometerConfig(
                ifo_args["arm_length"], ifo_args["mirror_mass"], pt["arm_power"],
                ifo_args["cavity_pole"], ifo_args["wavelength"])
            squeezed = sqznb.SqueezerSetup(opt.inject_db, sqznb.LossChain.from_total(fit.estimate),
                                           sqznb.PhaseNoise(pt["theta"]), "fixed")
            off = sqznb.SqueezerSetup(opt.inject_db, squeezed.chain, squeezed.phase_noise, "none")
            q_sq = interferometer.quantum_noise_curve(ifo, squeezed, grid)
            q_off = interferometer.quantum_noise_curve(ifo, off, grid)
            thermal = budget.resample(table, grid)
            b_sq = budget.compose(grid, [("quantum", q_sq.asd), ("thermal", thermal)])
            b_off = budget.compose(grid, [("quantum", q_off.asd), ("thermal", thermal)])
            imp = budget.improvement_db(b_off, b_sq, band)
            out.append((fit.estimate, detected, opt, q_sq.asd, q_off.asd, thermal, b_sq.total, imp))
        return out

    def check(batch, results):
        ref.all_close("scan grid", grid, ref_grid, rtol=1e-12)
        for pt, (eta, detected, opt, q_sq, q_off, thermal, total, imp) in zip(batch, results):
            theta = pt["theta"]
            ref.close("fitted efficiency", eta,
                      ref.fitted_eta(pt["inject_db"], pt["measured_db"], theta), atol=1e-12)
            ref.close("detected at the fitted efficiency", detected, pt["measured_db"], atol=1e-9)
            ref.close("optimal injection", opt.inject_db, ref.optimal_inject_db(theta), atol=1e-5)
            ifo = dict(ifo_args, arm_power=pt["arm_power"])
            want_sq = ref.quantum_asd(ref_grid, policy="fixed", inject_db=opt.inject_db,
                                      eta=eta, theta=theta, **ifo)
            want_off = ref.quantum_asd(ref_grid, **ifo)
            ref.all_close("squeezed quantum ASD", q_sq, want_sq, rtol=1e-10)
            ref.all_close("reference quantum ASD", q_off, want_off, rtol=1e-10)
            ref.all_close("resampled thermal", thermal, ref_thermal, rtol=1e-9)
            ref.check_rss("scan total", total, [q_sq, thermal])
            want_imp = ref.improvement_median_db(
                ref_grid, list(math.hypot(a, b) for a, b in zip(want_off, ref_thermal)),
                list(math.hypot(a, b) for a, b in zip(want_sq, ref_thermal)), band)
            ref.close("improvement_db median", imp.median_db, want_imp, atol=1e-8)

    return [Op(f"scan{i}", lambda b=b: scan(b), lambda r, b=b: check(b, r), len(b))
            for i, b in enumerate(spec["batches"])]


def budget_fine(spec: dict) -> list[Op]:
    """``sqznb budget --svg`` and ``sqznb project`` in process on fine grids."""
    from sqznb import cli

    def command(op):
        args = [op["kind"], op["config"], "--out", op["out"]] + (["--svg"] if op["kind"] == "budget" else [])
        return lambda: cli.main(args, standalone_mode=False)

    checks = {"budget": check_budget_files, "project": check_project_files}
    return [Op(op["kind"], command(op), lambda _, op=op: checks[op["kind"]](op), _file_work(op))
            for op in spec["ops"]]


def mc_large(spec: dict) -> list[Op]:
    """``mc_uncertainty`` at millions of samples, one MC seed per call."""
    from sqznb import MeasurementWithUncertainty as M
    from sqznb import estimate

    samples = spec["samples"]

    def call(c):
        return lambda: estimate.mc_uncertainty(M(*c["inject"]), M(*c["eta"]), M(*c["theta"]),
                                               samples=samples, seed=c["seed"])

    def check(c, r):
        ref.check_mc(r.mean_db, r.sigma_db, r.samples, tuple(c["inject"]), tuple(c["eta"]),
                     tuple(c["theta"]))
        if r.samples != samples:
            raise ref.Mismatch(f"mc samples {r.samples} != {samples}")

    return [Op(f"mc{i}", call(c), lambda r, c=c: check(c, r), samples)
            for i, c in enumerate(spec["calls"])]


# ---------------------------------------------------------------- loops

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatch = None

    def run(self, op: Op, **kwargs):
        """Run and check one op; returns (wall seconds, cpu seconds, output) or None if it failed."""
        self.attempted += 1
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            output = op.run(**kwargs)
        except Exception:  # a failing op is counted and the run goes on
            self.failed += 1
            print(f"op {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        self.check(op, output)
        return wall, cpu, output

    def check(self, op: Op, output) -> None:
        """Check an op's output; the first mismatch is reported and kept."""
        try:
            op.check(output)
        except ref.Mismatch as exc:
            if self.mismatch is None:
                self.mismatch = f"{op.name}: {exc}"
                print(f"op {op.name} output is wrong: {exc}", file=sys.stderr)


def cpu_seconds() -> float:
    """CPU time of this process and of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------- host-speed probes
#
# On a shared host the CPU time of a fixed job drifts by 20-40 % over minutes,
# as other tenants load the cores and caches.  Fixed jobs that do not use
# sqznb run before every timed op, and every timing is scaled by a probe's
# reference time over its median CPU time in the run.  A slower sqznb moves
# the op and not the probe, so it still shows in full.

def probe_interpreter() -> float:
    """Interpreter-bound: float arithmetic in a loop, string formatting, a dict."""
    total = 0.0
    for i in range(50_000):
        total += math.sqrt(i) * 1.0001
    table = {}
    for i in range(12_500):
        table[str(i & 1023)] = f"{i * 1.5:.6g}"
    return total + len(table)


def probe_numpy() -> float:
    """Array-bound: the MC's kind of elementwise kernels on 4 MB float64 arrays."""
    import numpy as np  # not at module level: set-up time would then include it

    x = np.linspace(-3.0, 3.0, 500_000)
    a = 10.0 ** (-x / 10.0)
    b = np.sin(x) ** 2
    return float(np.log10(a * (1.0 - b) + b).sum())


PROBES = {"interpreter": probe_interpreter, "numpy": probe_numpy}

#: Probe CPU seconds that timings are scaled to; about their median on the
#: 2-CPU host of the README.
PROBE_REF_S = {"interpreter": 0.021, "numpy": 0.045}

#: The probe that scales a workload's op timings; set-up, mostly interpreter
#: start-up and imports, is always scaled by the interpreter probe.  The numpy
#: probe follows mc-large's array kernels.  Its 20 MB of temporary arrays are
#: small beside mc-large's 120 MB, but would set the peak RSS of the other
#: workloads, so they run the interpreter probe alone, which holds no memory.
OP_PROBE = {"mc-large": "numpy"}


def timed_loop(workload: str, ops: list[Op], seconds: float, tally: Tally) -> dict:
    """Whole rounds until ``seconds`` have passed and MIN_OPS ops were attempted
    (or, for slow ops, until another round would pass FLOOR_LIMIT_S).  The
    probes run before every op, outside its timing."""
    op_probe = OP_PROBE.get(workload, "interpreter")
    probe_cpus = {"interpreter": [], op_probe: []}
    cpus, work = [], 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            for name, times in probe_cpus.items():
                cpu0 = cpu_seconds()
                PROBES[name]()
                times.append(cpu_seconds() - cpu0)
            done = tally.run(op)
            if done is not None:
                cpus.append(done[1])
                work += op.work
        now = time.perf_counter()
        elapsed, last_round = now - start, now - round_start
        if elapsed >= seconds and (tally.attempted >= MIN_OPS or elapsed + last_round > FLOOR_LIMIT_S):
            break
    scale = {name: PROBE_REF_S[name] / statistics.median(t) for name, t in probe_cpus.items()}
    return {"cpus": cpus, "work": work, "setup_scale": scale["interpreter"],
            "op_scale": scale[op_probe]}


def trace_pass(workload: str, ops: list[Op], tally: Tally) -> dict:
    """One round untraced, then the same round traced; layer figures per op."""
    untraced = sum(done[0] for op in ops if (done := tally.run(op)))
    if workload == "cli-cold":
        traced, imports = 0.0, []
        for op in ops:
            done = tally.run(op, importtime=True)
            if done:
                traced += done[0]
                imports.append(import_breakdown(done[2].stderr))
        keys = imports[0] if imports else ()
        layers = {key: statistics.median(row[key] for row in imports) for key in keys}
        return {"untraced_s": untraced, "traced_s": traced, "layers": layers}

    trace = LayerTrace()
    trace.install()
    per_op, traced = [], 0.0
    try:
        for op in ops:
            before, top_before = trace.snapshot()
            done = tally.run(op)
            after, top_after = trace.snapshot()
            if done:
                traced += done[0]
                row = {k: (after[k] - before.get(k, 0.0)) * 1e3 for k in after}
                row["cli.self"] = (done[0] - (top_after - top_before)) * 1e3
                per_op.append(row)
    finally:
        trace.uninstall()
    names = sorted({k for row in per_op for k in row})
    layers = {f"{k}_ms": statistics.median(row.get(k, 0.0) for row in per_op) for k in names}
    layers.update(trace.counts)
    calls = trace.counts.get("states.propagate_calls", 0)
    if calls:
        layers["states.propagate_us"] = trace.seconds["states.propagate"] / calls * 1e6
    layers["estimate.mc_traced_peak_mb"] = trace.mc_peak_bytes / 2**20
    return {"untraced_s": untraced, "traced_s": traced, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import sqznb  # noqa: F401  set-up includes importing the package

    spec = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    env = {k: v for k, v in os.environ.items() if k != "SQZNB_THREADS"}
    make_ops = {"cli-cold": lambda: cli_cold(spec, env), "api-scan": lambda: api_scan(spec),
                "budget-fine": lambda: budget_fine(spec), "mc-large": lambda: mc_large(spec)}
    ops = make_ops[args.workload]()
    try:
        warm = (ops[0].run(),)
    except Exception:  # set-up goes on; the timed rounds count this op's failures
        warm = None
        print(f"warm-up op {ops[0].name} failed:\n{traceback.format_exc()}", file=sys.stderr)
    print(f"READY {cpu_seconds()!r}", flush=True)
    if args.setup_only:
        return 0
    tally = Tally()
    if warm is not None:
        tally.check(ops[0], warm[0])
    if args.trace:
        result = trace_pass(args.workload, ops, tally)
    else:
        result = timed_loop(args.workload, ops, args.seconds, tally)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result.update(attempted=tally.attempted, failed=tally.failed, mismatch=tally.mismatch,
                  peak_rss_kb=resource.getrusage(who).ru_maxrss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
