"""Command-line front end.

Exit codes: 0 on success, 2 for usage or configuration errors, 3 for
numerical failures (non-finite spectral values).  On one host, all outputs
are deterministic for fixed flags, config, and seed; across numpy's SIMD
kernel classes, ``log10`` and ``**`` can differ in the last bit; on a grid
both classes share, the quantum curves have one set of bits in every class.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path

import click

# estimate, budget, config, interferometer and svgplot are imported in the
# commands that use them: the last four load numpy, so propagate, fit and
# optimize start without it, and budget and project load no estimate.
from .states import ANGLE_POLICIES, LossChain, NumericalRangeError, PhaseNoise, _quote, detected_db, propagate


class _NumericalFailure(click.ClickException):
    exit_code = 3


class _Command(click.Command):
    """A command that maps library errors onto the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NumericalRangeError as exc:
            raise _NumericalFailure(str(exc)) from exc
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


def _json(payload: dict) -> str:
    """The text of every JSON output, printed or written: sorted keys, two-space indent, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _parse_loss_flags(loss_flags) -> LossChain:
    elements = []
    for flag in loss_flags:
        label, sep, value = flag.partition("=")
        if not sep or not label:
            raise click.UsageError(f"--loss expects LABEL=EFFICIENCY, got {_quote(flag)}")
        try:
            elements.append((label, float(value)))
        except ValueError:
            raise click.UsageError(f"--loss {_quote(flag)}: efficiency is not a number") from None
    return LossChain(tuple(elements))


@click.group()
def main():
    """Squeezed-light noise budget toolkit."""


main.command_class = _Command


@main.command("propagate")
@click.option("--inject-db", type=float, required=True, help="Injected squeezing level [dB].")
@click.option("--eta", type=float, default=None, help="Total detection efficiency in [0, 1].")
@click.option(
    "--loss",
    "loss_flags",
    multiple=True,
    metavar="LABEL=EFF",
    help="Named power-transmission efficiency in [0, 1]; repeatable, efficiencies multiply.",
)
@click.option("--phase-mrad", type=float, default=0.0, show_default=True, help="RMS phase jitter [mrad].")
def propagate_cmd(inject_db, eta, loss_flags, phase_mrad):
    """Propagate a squeezed state through loss and phase jitter."""
    if eta is not None and loss_flags:
        raise click.UsageError("--eta and --loss are mutually exclusive")
    if eta is None and not loss_flags:
        raise click.UsageError("give either --eta or at least one --loss LABEL=EFF")
    losses = eta if eta is not None else _parse_loss_flags(loss_flags)
    result = propagate(inject_db, losses, PhaseNoise(phase_mrad * 1e-3))
    chain = LossChain.from_total(result.efficiency) if eta is not None else losses
    click.echo(_json({
        "inject_db": inject_db,
        "efficiency": result.efficiency,
        "loss_chain": [{"label": label, "efficiency": e} for label, e in chain],
        "phase_noise_mrad": phase_mrad,
        "phase_noise_model": "rms-substitution",
        "variances": {
            "injected": dataclasses.asdict(result.injected),
            "after_loss": dataclasses.asdict(result.after_loss),
            "detected": dataclasses.asdict(result.state),
        },
        "detected_db": result.detected_db,
    }), nl=False)


@main.command("fit")
@click.option("--injected", type=float, required=True, help="Injected squeezing level [dB].")
@click.option("--detected", type=float, required=True, help="Measured squeezing level [dB].")
@click.option("--phase-mrad", type=float, default=0.0, show_default=True, help="RMS phase jitter [mrad].")
def fit_cmd(injected, detected, phase_mrad):
    """Fit the detection efficiency behind a measured squeezing level."""
    from .estimate import fit_efficiency

    result = fit_efficiency(injected, detected, PhaseNoise(phase_mrad * 1e-3))
    click.echo(_json({
        "inject_db": injected,
        "target_db": detected,
        "phase_noise_mrad": phase_mrad,
        "efficiency": result.estimate,
        "residual_db": result.residual,
        "iterations": result.iterations,
        "bracket": result.bracket,
    }), nl=False)


@main.command("uncertainty")
@click.option("--inject-db", type=float, default=10.3, show_default=True, help="Injected level [dB].")
@click.option("--inject-sigma-db", type=float, default=0.2, show_default=True)
@click.option("--eta", type=float, default=0.44, show_default=True, help="Detection efficiency.")
@click.option("--eta-sigma", type=float, default=0.02, show_default=True)
@click.option("--phase-mrad", type=float, default=37.0, show_default=True, help="RMS phase jitter [mrad].")
@click.option("--phase-sigma-mrad", type=float, default=6.0, show_default=True)
@click.option(
    "--mc-samples", type=float, default=100_000, show_default=True, metavar="INTEGER",
    help="Whole number of draws; 1e6 is accepted.",
)
@click.option("--seed", type=float, default=42, show_default=True, metavar="INTEGER")
def uncertainty_cmd(inject_db, inject_sigma_db, eta, eta_sigma, phase_mrad, phase_sigma_mrad, mc_samples, seed):
    """Monte Carlo propagation of input uncertainties to detected dB."""
    from .estimate import MeasurementWithUncertainty, mc_uncertainty

    result = mc_uncertainty(
        MeasurementWithUncertainty(inject_db, inject_sigma_db),
        MeasurementWithUncertainty(eta, eta_sigma),
        MeasurementWithUncertainty(phase_mrad * 1e-3, phase_sigma_mrad * 1e-3),
        samples=mc_samples,
        seed=seed,
    )
    click.echo(_json({
        "inputs": {
            "inject_db": {"value": inject_db, "sigma": inject_sigma_db},
            "efficiency": {"value": eta, "sigma": eta_sigma},
            "phase_noise_mrad": {"value": phase_mrad, "sigma": phase_sigma_mrad},
        },
        **dataclasses.asdict(result),
    }), nl=False)


@main.command("optimize")
@click.option("--eta", type=float, required=True, help="Detection efficiency in [0, 1].")
@click.option("--phase-mrad", type=float, required=True, help="RMS phase jitter [mrad].")
@click.option("--max-db", type=float, default=60.0, show_default=True, help="Upper limit on the injection level [dB].")
def optimize_cmd(eta, phase_mrad, max_db):
    """Injection level that maximizes detected squeezing under jitter."""
    from .estimate import optimal_inject_db

    result = optimal_inject_db(eta, PhaseNoise(phase_mrad * 1e-3), max_db=max_db)
    click.echo(_json({
        "efficiency": eta,
        "phase_noise_mrad": phase_mrad,
        "optimal_inject_db": result.inject_db,
        "detected_db": result.detected_db,
        "iterations": result.iterations,
    }), nl=False)


def _budgets(cfg, policies) -> dict:
    """One NoiseBudget per angle policy, on the config's grid, with each table resampled once."""
    from .budget import compose, ingest_asd, resample
    from .interferometer import quantum_noise_asd

    grid = cfg.grid.frequencies()
    tables = [(label, resample(ingest_asd(p, label=label), grid)) for label, p in cfg.components]
    budgets = {}
    for policy in policies:
        setup = dataclasses.replace(cfg.squeezer, angle_policy=policy)
        quantum = quantum_noise_asd(cfg.interferometer, setup, grid)
        budgets[policy] = compose(grid, [("quantum", quantum)] + tables)
    return budgets


def _improvement_dict(imp) -> dict:
    return {"median": imp.median_db, "max": imp.max_db}


def _power_increase_or_none(value_db: float):
    from .budget import equivalent_power_increase

    return equivalent_power_increase(value_db) if value_db >= 0.0 else None


def _name_max(directory: Path) -> int:
    """The longest file name, in bytes, the file system holding ``directory`` takes; else 255."""
    try:
        limit = os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        return 255
    return limit if limit > 0 else 255


def _safe_name(label: str) -> str:
    """The form of a component label used in output file names."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", label)


def _write_run(prefix: str, grid, csvs, svg=None, summary=None) -> None:
    """Write the files of a run; every output name is checked before the first is written.

    Each ``(tag, values, comment)`` in ``csvs`` goes to ``<prefix>-<tag>.csv``;
    ``summary``, with the CSV names added as ``files``, to
    ``<prefix>-summary.json``; and ``svg``, a ``(curves, title)`` pair, to
    ``<prefix>.svg``.  ``grid`` and the values are a NoiseBudget's arrays, checked
    and frozen there, so they are written as they are.  A name longer than the
    file system takes is a ValueError naming what that file would have held,
    and two outputs on one path are a ValueError naming both and the file.
    """
    from .budget import _write_csvs
    from .svgplot import write_loglog_svg

    tables = [(Path(f"{prefix}-{tag}.csv"), values, [comment]) for tag, values, comment in csvs]
    json_path = Path(f"{prefix}-summary.json")
    svg_path = Path(f"{prefix}.svg")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    limit = _name_max(json_path.parent)
    targets = [(path, comment) for path, _, (comment,) in tables]
    targets += [(json_path, "the summary")] if summary is not None else []
    targets += [(svg_path, "the plot")] if svg is not None else []
    owners = {}
    for path, what in targets:
        if len(os.fsencode(path.name)) > limit:
            raise ValueError(f"file name for {_quote(what)} is longer than {limit} bytes: {_quote(path.name)}")
        if path in owners:
            raise ValueError(f"outputs {_quote(owners[path])} and {_quote(what)} would both go to {_quote(str(path))}")
        owners[path] = what
    _write_csvs(grid, tables)
    if summary is not None:
        files = {tag: path.name for (tag, _, _), (path, _, _) in zip(csvs, tables)}
        json_path.write_text(_json({**summary, "files": files}), encoding="utf-8")
    if svg is not None:
        curves, title = svg
        write_loglog_svg(svg_path, curves, title=title)


@main.command("budget")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "prefix", required=True, help="Output path prefix for emitted files.")
@click.option("--svg", "with_svg", is_flag=True, help="Also write a log-log overview plot.")
def budget_cmd(config_path, prefix, with_svg):
    """Compose the noise budget for a config, with and without squeezing."""
    from .budget import improvement_db
    from .config import LOW_BAND, load_run_config

    cfg = load_run_config(config_path)
    budgets = _budgets(cfg, dict.fromkeys([cfg.squeezer.angle_policy, "none"]))
    squeezed, reference = budgets[cfg.squeezer.angle_policy], budgets["none"]

    grid = squeezed.grid
    imp = improvement_db(reference, squeezed, cfg.band)
    try:
        low = improvement_db(reference, squeezed, LOW_BAND)
    except ValueError:
        low = None  # the low band is optional: reported when the band rule accepts it

    components = squeezed.components.items()
    csvs = [
        ("total", squeezed.total, f"total, squeezer as configured ({cfg.label})"),
        ("total-reference", reference.total, f"total, squeezer off ({cfg.label})"),
        *((_safe_name(label), values, f"component {label} ({cfg.label})") for label, values in components),
    ]

    summary = {
        "label": cfg.label,
        "band_hz": imp.band,
        "improvement_db": _improvement_dict(imp),
        "equivalent_power_increase": {
            "from_median": _power_increase_or_none(imp.median_db),
            "from_max": _power_increase_or_none(imp.max_db),
        },
        "low_band_hz": low.band if low else None,
        "low_band_improvement_db": _improvement_dict(low) if low else None,
        "detected_squeezing_db": detected_db(cfg.squeezer.degraded_state()),
        "angle_policy": cfg.squeezer.angle_policy,
        "components": sorted(squeezed.components),
        "grid": {
            "f_min_hz": cfg.grid.f_min,
            "f_max_hz": cfg.grid.f_max,
            "points": cfg.grid.points,
            "spacing": cfg.grid.spacing,
        },
    }

    curves = [(label, grid, values) for label, values in components]
    curves.append(("total (squeezed)", grid, squeezed.total))
    curves.append(("total (no squeezing)", grid, reference.total))
    svg = (curves, cfg.label or "noise budget") if with_svg else None
    _write_run(prefix, grid, csvs, svg=svg, summary=summary)


@main.command("project")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--mode",
    type=click.Choice([*ANGLE_POLICIES, "all"]),
    default="all",
    show_default=True,
    help="Which squeeze-angle policy to project; 'all' emits the three of them.",
)
@click.option("--out", "prefix", required=True, help="Output path prefix for emitted files.")
def project_cmd(config_path, mode, prefix):
    """Project quantum-noise and total curves for squeeze-angle policies."""
    from .config import load_run_config

    cfg = load_run_config(config_path)
    budgets = _budgets(cfg, ANGLE_POLICIES if mode == "all" else [mode])
    first = next(iter(budgets.values()))
    grid = first.grid

    csvs = []
    curves = [(label, grid, first.components[label]) for label, _ in cfg.components]
    for policy, budget in budgets.items():
        quantum = budget.components["quantum"]
        csvs.append((f"quantum-{policy}", quantum, f"quantum noise, angle policy {policy} ({cfg.label})"))
        csvs.append((f"total-{policy}", budget.total, f"total noise, angle policy {policy} ({cfg.label})"))
        curves.append((f"quantum ({policy})", grid, quantum))
        curves.append((f"total ({policy})", grid, budget.total))
    _write_run(prefix, grid, csvs, svg=(curves, cfg.label or "projection"))
