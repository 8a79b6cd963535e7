"""Seeded inputs for the benchmark workloads.

``make_inputs(workload, seed, root, run_dir)`` writes any generated files
into ``run_dir`` and returns a JSON-ready description of one round of ops.
The same (workload, seed) always gives the same inputs; sizes never depend
on the seed, only values do.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import reference as ref

#: Points per api-scan op, ops per api-scan round, and the grid of each point.
SCAN_BATCH = 50
SCAN_BATCHES = 4
SCAN_GRID = (10.0, 10000.0, 1000)

#: budget-fine grid size and generated table rows.
FINE_GRID_POINTS = 3_000
FINE_TABLE_ROWS = 4_000

#: mc-large samples per call and calls (each its own MC seed) per round.
MC_SAMPLES = 1_000_000
MC_CALLS = 4

THERMAL = "configs/aligo_thermal_synthetic.csv"


def _squeezer(rng: random.Random) -> dict:
    """A design point well inside the domain: squeezing survives, no clamping."""
    while True:
        inject = rng.uniform(6.0, 15.0)
        eta = rng.uniform(0.3, 0.95)
        theta = rng.uniform(5e-3, 60e-3)
        if float(ref.mixing_term(inject, theta)) < -0.2:
            return {"inject_db": inject, "eta": eta, "theta": theta}


def _run_config(root: Path, base: str, sq: dict, *, label: str, points: int,
                losses: int, components: list) -> dict:
    cfg = json.loads((root / "configs" / base).read_text(encoding="utf-8"))
    per_element = sq["eta"] ** (1.0 / losses)
    cfg["label"] = label
    cfg["squeezer"] = {
        "inject_db": sq["inject_db"],
        "losses": [{"label": f"loss{i}", "efficiency": per_element} for i in range(losses)],
        "phase_noise_mrad": sq["theta"] * 1e3,
        "angle_policy": "fixed",
    }
    cfg["grid"]["points"] = points
    cfg["components"] = components
    return cfg


def _write_table(path: Path, rng: random.Random, amplitude: float, slope: float) -> None:
    """Log-spaced table over 5 Hz - 20 kHz: a power law with a seeded ripple."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    wiggles = rng.uniform(2.0, 6.0)
    lines = [ref.ASD_HEADER, "# generated benchmark component"]
    lo, hi = math.log10(5.0), math.log10(20000.0)
    for i in range(FINE_TABLE_ROWS):
        f = 10.0 ** (lo + (hi - lo) * i / (FINE_TABLE_ROWS - 1))
        value = amplitude * (f / 100.0) ** slope * (1.0 + 0.2 * math.sin(wiggles * math.log(f) + phase))
        lines.append(f"{f!r},{value!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _file_op(root: Path, run_dir: Path, kind: str, base: str, sq: dict, *, points: int,
             losses: int, components: list) -> dict:
    """A budget or project op on a config generated from a shipped one."""
    name = f"{kind}-{Path(base).stem}"
    cfg = _run_config(root, base, sq, label=f"{kind} {base}", points=points, losses=losses,
                      components=components)
    path = run_dir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return {"kind": kind, "config": str(path), "out": str(run_dir / "out" / name)}


def make_inputs(workload: str, seed: int, root: Path, run_dir: Path) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    thermal = str(root / THERMAL)
    if workload == "cli-cold":
        sq = _squeezer(rng)
        mrad = sq["theta"] * 1e3
        measured = float(ref.detected_db(sq["inject_db"], rng.uniform(0.3, 0.95), mrad * 1e-3))
        return {
            "propagate": {"inject_db": sq["inject_db"], "eta": sq["eta"], "phase_mrad": mrad},
            "fit": {"inject_db": sq["inject_db"], "detected_db": measured, "phase_mrad": mrad},
            "optimize": {"eta": sq["eta"], "phase_mrad": mrad},
            "uncertainty": {"seed": rng.randrange(1, 2**31)},
            "budget": _file_op(root, run_dir, "budget", "h1.json", _squeezer(rng),
                               points=1000, losses=1, components=[]),
            "project": _file_op(root, run_dir, "project", "aligo.json", _squeezer(rng),
                                points=1000, losses=1,
                                components=[{"label": "thermal", "file": thermal}]),
        }
    if workload == "api-scan":
        batches = []
        for _ in range(SCAN_BATCHES):
            batch = []
            for _ in range(SCAN_BATCH):
                sq = _squeezer(rng)
                sq["measured_db"] = float(ref.detected_db(sq["inject_db"], sq["eta"], sq["theta"]))
                sq["arm_power"] = rng.uniform(1e5, 1e6)
                batch.append(sq)
            batches.append(batch)
        cfg = json.loads((root / "configs" / "aligo.json").read_text(encoding="utf-8"))
        return {"batches": batches, "ifo": ref.interferometer_params(cfg), "grid": list(SCAN_GRID),
                "band": cfg["band_hz"], "thermal": thermal}
    if workload == "budget-fine":
        components = [{"label": "thermal", "file": thermal}]
        for label, amplitude, slope in (("seismic", 2e-24, -4.0), ("coating", 5e-24, -0.5)):
            path = run_dir / f"{label}.csv"
            _write_table(path, rng, amplitude * rng.uniform(0.5, 2.0), slope)
            components.append({"label": label, "file": str(path)})
        common = {"points": FINE_GRID_POINTS, "losses": 3, "components": components}
        # Two budget ops to one project op: project costs more, and with a 2:1
        # mix p50 falls among the budget ops and p75 among the project ops,
        # not on the gap between the two.
        return {"ops": [
            _file_op(root, run_dir, "budget", "h1.json", _squeezer(rng), **common),
            _file_op(root, run_dir, "budget", "aligo.json", _squeezer(rng), **common),
            _file_op(root, run_dir, "project", "aligo.json", _squeezer(rng), **common),
        ]}
    if workload == "mc-large":
        calls = []
        for _ in range(MC_CALLS):
            calls.append({
                "inject": [rng.uniform(8.0, 12.0), rng.uniform(0.1, 0.3)],
                "eta": [rng.uniform(0.3, 0.8), rng.uniform(0.01, 0.03)],
                "theta": [rng.uniform(25e-3, 50e-3), rng.uniform(2e-3, 5e-3)],
                "seed": rng.randrange(1, 2**31),
            })
        return {"samples": MC_SAMPLES, "calls": calls}
    raise ValueError(f"unknown workload {workload!r}")
