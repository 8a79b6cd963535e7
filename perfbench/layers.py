"""Per-layer tracing from the benchmark's side of the call boundary.

``LayerTrace.install()`` replaces each traced public function of sqznb with
a timing wrapper, in the module that defines it and wherever ``sqznb.cli``
or ``sqznb.estimate`` holds its own binding of it; the program itself is
not changed.  So the CLI commands, the api-scan and mc-large ops (which call
the defining modules) and the solvers' forward evaluations (the
``propagate`` bound in ``sqznb.estimate``) all pass through a wrapper.  A
function that is missing, or a binding that is not there, is skipped, so
moving an import does not break the trace.

Each wrapper adds its wall time to a layer and, where the layer has one,
a work count.  Times include nested layers; ``top_s`` holds only the
outermost calls, so an op's wall minus ``top_s`` is the CLI's own time.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from collections import defaultdict

#: layer name -> (defining module, function).
LAYERS = {
    "config.load": ("sqznb.config", "load_run_config"),
    "budget.ingest": ("sqznb.budget", "ingest_asd"),
    "budget.csv_write": ("sqznb.budget", "write_asd_csv"),
    "budget.resample": ("sqznb.budget", "resample"),
    "budget.compose": ("sqznb.budget", "compose"),
    "budget.improvement": ("sqznb.budget", "improvement_db"),
    "interferometer.curve": ("sqznb.interferometer", "quantum_noise_curve"),
    "svgplot.write": ("sqznb.svgplot", "write_loglog_svg"),
    "states.propagate": ("sqznb.states", "propagate"),
    "estimate.fit": ("sqznb.estimate", "fit_efficiency"),
    "estimate.optimize": ("sqznb.estimate", "optimal_inject_db"),
    "estimate.mc": ("sqznb.estimate", "mc_uncertainty"),
}

#: Modules whose own bindings of the functions above are wrapped too.
BINDERS = ("sqznb.cli", "sqznb.estimate")


def _counts(layer: str, module: str, args, result) -> dict:
    """Work counts of one call; they depend only on the inputs."""
    if layer == "states.propagate":
        return {"states.propagate_calls": 1} | (
            {"estimate.forward_evals": 1} if module == "sqznb.estimate" else {})
    if layer == "estimate.fit":
        return {"estimate.fit_iterations": result.iterations}
    if layer == "estimate.optimize":
        return {"estimate.optimize_iterations": result.iterations}
    if layer == "estimate.mc":
        return {"estimate.mc_samples": result.samples}
    if layer == "interferometer.curve":
        return {"interferometer.curve_points": len(result)}
    if layer == "budget.ingest":
        return {"budget.ingest_rows": len(result)}
    if layer == "budget.csv_write":
        return {"budget.csv_bytes": os.path.getsize(args[0])}
    if layer == "svgplot.write":
        return {"svgplot.bytes": os.path.getsize(args[0])}
    return {}


class LayerTrace:
    """Wall time and work counts per layer, accumulated over the calls made."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0
        self.mc_peak_bytes = 0
        self._depth = 0
        self._saved = []

    def _wrap(self, module: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            mc = layer == "estimate.mc"
            if mc:
                tracemalloc.start()
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                if mc:
                    self.mc_peak_bytes = max(self.mc_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            self.seconds[layer] += elapsed
            if self._depth == 0:
                self.top_s += elapsed
            for key, n in _counts(layer, module, args, result).items():
                self.counts[key] += n
            return result

        return wrapper

    def install(self) -> None:
        binders = [importlib.import_module(name) for name in BINDERS]
        for layer, (module_name, attr) in LAYERS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            for target in [module] + [b for b in binders if b is not module]:
                if getattr(target, attr, None) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, self._wrap(target.__name__, layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def snapshot(self) -> tuple[dict, float]:
        return dict(self.seconds), self.top_s


IMPORT_PACKAGES = ("scipy", "numpy", "click", "sqznb")


def import_breakdown(stderr: str) -> dict:
    """Self time (ms) per top-level package from ``-X importtime`` output, plus the total."""
    out = {name: 0.0 for name in IMPORT_PACKAGES}
    total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        ms = int(self_us) / 1000.0
        total += ms
        package = name.strip().split(".")[0]
        if package in out:
            out[package] += ms
    return {"import.total_ms": total, "import.scipy_ms": out["scipy"],
            "import.numpy_ms": out["numpy"], "import.click_ms": out["click"],
            "import.sqznb_self_ms": out["sqznb"]}
