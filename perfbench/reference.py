"""Reference computations and output checks, written apart from sqznb.

Nothing here imports sqznb.  Each function restates the documented model
in closed form (or by quadrature), so a benchmark op is checked against
the physics rather than against a stored copy of an earlier output.

Model (power dB, vacuum variance 1, RMS jitter substituted into the
mixing weights):

    v- = 10**(-s/10),  v+ = 10**(s/10)
    V  = 1 + eta * [(v- - 1) cos^2(theta) + (v+ - 1) sin^2(theta)]
    detected dB = -10 log10 V
"""

from __future__ import annotations

import csv
import math
import statistics
import xml.etree.ElementTree as ET

import numpy as np

# Exact in the 2019 SI.
C = 299792458.0
HBAR = 6.62607015e-34 / (2.0 * math.pi)
THETA_MAX = math.nextafter(math.pi / 4.0, 0.0)
ASD_HEADER = "frequency_hz,asd_strain_per_sqrt_hz"


class Mismatch(AssertionError):
    """An output of the program disagrees with its reference."""


def close(what: str, got: float, want: float, *, rtol: float = 0.0, atol: float = 0.0) -> None:
    """Raise Mismatch unless |got - want| <= atol + rtol * |want|."""
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def all_close(what: str, got, want, *, rtol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape} against reference {want.shape}")
    err = np.abs(got - want) / np.abs(want)
    if not np.all(err <= rtol):
        i = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
        raise Mismatch(f"{what}: point {i} got {float(got[i])!r}, reference {float(want[i])!r}")


# ---------------------------------------------------------------- squeezing chain

def mixing_term(inject_db, theta):
    """(v- - 1) cos^2 theta + (v+ - 1) sin^2 theta; negative when squeezing survives."""
    s2 = np.sin(theta) ** 2
    return (10.0 ** (-np.asarray(inject_db) / 10.0) - 1.0) * (1.0 - s2) + (
        10.0 ** (np.asarray(inject_db) / 10.0) - 1.0
    ) * s2


def detected_db(inject_db, eta, theta):
    """Detected squeezing from the closed form V = 1 + eta * mixing_term."""
    return -10.0 * np.log10(1.0 + np.asarray(eta) * mixing_term(inject_db, theta))


def fitted_eta(inject_db: float, detected: float, theta: float) -> float:
    """Efficiency that gives ``detected`` dB: (10**(-t/10) - 1) / mixing_term."""
    return (10.0 ** (-detected / 10.0) - 1.0) / float(mixing_term(inject_db, theta))


def optimal_inject_db(theta: float) -> float:
    """dV/dx = 0 at x = 10**(s/10) = cot theta, whatever the efficiency."""
    return 10.0 * math.log10(1.0 / math.tan(theta))


def degraded_variances(inject_db: float, eta: float, theta: float) -> tuple[float, float]:
    """(v_minus, v_plus) after loss and jitter."""
    s2 = math.sin(theta) ** 2
    lossy_minus = eta * 10.0 ** (-inject_db / 10.0) + 1.0 - eta
    lossy_plus = eta * 10.0 ** (inject_db / 10.0) + 1.0 - eta
    return (lossy_minus * (1.0 - s2) + lossy_plus * s2, lossy_plus * (1.0 - s2) + lossy_minus * s2)


def first_order_sigma_db(inject: tuple, eta: tuple, theta: tuple) -> float:
    """Linearized sigma of the detected dB from the analytic gradient.

    Each argument is a (value, sigma) pair.
    """
    s, e, t = inject[0], eta[0], theta[0]
    v_minus, v_plus = 10.0 ** (-s / 10.0), 10.0 ** (s / 10.0)
    c2, s2 = math.cos(t) ** 2, math.sin(t) ** 2
    big_v = 1.0 + e * float(mixing_term(s, t))
    scale = -10.0 / (math.log(10.0) * big_v)
    d_inject = e * math.log(10.0) / 10.0 * (v_plus * s2 - v_minus * c2)
    d_eta = float(mixing_term(s, t))
    d_theta = e * (v_plus - v_minus) * math.sin(2.0 * t)
    return abs(scale) * math.hypot(d_inject * inject[1], d_eta * eta[1], d_theta * theta[1])


def gauss_hermite_moments(inject: tuple, eta: tuple, theta: tuple, nodes: int = 24):
    """Mean, sigma and kurtosis of the detected dB under Gaussian inputs.

    Each argument is a (value, sigma) pair.  Draws outside the physical
    domain are moved to its edge, as the Monte Carlo does; a tensor
    Gauss-Hermite rule integrates the forward model over the three normals.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x = math.sqrt(2.0) * x
    w = w / math.sqrt(math.pi)
    s = np.clip(inject[0] + inject[1] * x, 0.0, None)[:, None, None]
    e = np.clip(eta[0] + eta[1] * x, 0.0, 1.0)[None, :, None]
    t = np.clip(theta[0] + theta[1] * x, 0.0, THETA_MAX)[None, None, :]
    weight = w[:, None, None] * w[None, :, None] * w[None, None, :]
    values = detected_db(s, e, t)
    mean = float(np.sum(weight * values))
    var = float(np.sum(weight * (values - mean) ** 2))
    m4 = float(np.sum(weight * (values - mean) ** 4))
    return mean, math.sqrt(var), m4 / (var * var)


def check_mc(result_mean: float, result_sigma: float, samples: int,
             inject: tuple, eta: tuple, theta: tuple, *, z_max: float = 6.0) -> tuple[float, float]:
    """Compare a Monte Carlo mean and sigma with the quadrature; returns both z-scores."""
    mean, sigma, kurtosis = gauss_hermite_moments(inject, eta, theta)
    z_mean = (result_mean - mean) / (sigma / math.sqrt(samples))
    z_sigma = (result_sigma - sigma) / (sigma * math.sqrt((kurtosis - 1.0) / (4.0 * samples)))
    if not (abs(z_mean) <= z_max and abs(z_sigma) <= z_max):
        raise Mismatch(
            f"Monte Carlo mean {result_mean!r} / sigma {result_sigma!r} over {samples} samples "
            f"is {z_mean:+.2f} / {z_sigma:+.2f} standard errors from the quadrature "
            f"({mean!r} / {sigma!r})"
        )
    return z_mean, z_sigma


# ---------------------------------------------------------------- quantum noise

def quantum_asd(frequency, *, arm_length, mirror_mass, arm_power, cavity_pole, wavelength,
                policy="none", inject_db=0.0, eta=1.0, theta=0.0, fixed_angle=math.pi / 2):
    """Strain ASD sqrt(h_sql^2/2 (1 + K^2)/K V(theta_n)) of a tuned interferometer.

    h_sql^2 = 8 hbar / (M Omega^2 L^2);
    K = 16 P w0 g / (M L c Omega^2 (g^2 + Omega^2)), w0 = 2 pi c / lambda,
    g = 2 pi f_pole; theta_n = atan2(1, -K).
    """
    omega = 2.0 * math.pi * np.asarray(frequency, dtype=float)
    g = 2.0 * math.pi * cavity_pole
    w0 = 2.0 * math.pi * C / wavelength
    kappa = 16.0 * arm_power * w0 * g / (
        mirror_mass * arm_length * C * omega**2 * (g * g + omega**2)
    )
    h_sql2 = 8.0 * HBAR / (mirror_mass * omega**2 * arm_length**2)
    if policy == "none":
        variance = 1.0
    else:
        v_minus, v_plus = degraded_variances(inject_db, eta, theta)
        if policy == "fd-optimal":
            variance = v_minus
        else:
            rel = np.arctan2(1.0, -kappa) - fixed_angle
            variance = v_minus * np.cos(rel) ** 2 + v_plus * np.sin(rel) ** 2
    return np.sqrt(0.5 * h_sql2 * (1.0 + kappa**2) / kappa * variance)


def interferometer_params(cfg: dict) -> dict:
    """Keyword arguments of quantum_asd for a run config's interferometer.

    A finesse F stands for the cavity pole c / (4 F L).
    """
    ifo = cfg["interferometer"]
    pole = ifo.get("cavity_pole_hz")
    if pole is None:
        pole = C / (4.0 * ifo["finesse"] * ifo["arm_length_m"])
    return {
        "arm_length": ifo["arm_length_m"],
        "mirror_mass": ifo["mirror_mass_kg"],
        "arm_power": ifo["arm_power_w"],
        "cavity_pole": pole,
        "wavelength": ifo.get("wavelength_m", 1.064e-6),
    }


def squeezer_params(cfg: dict) -> dict:
    """Keyword arguments of quantum_asd for a run config's squeezer (efficiencies multiply)."""
    sq = cfg.get("squeezer", {})
    return {
        "inject_db": sq.get("inject_db", 0.0),
        "eta": math.prod(e["efficiency"] for e in sq.get("losses", [])),
        "theta": sq.get("phase_noise_mrad", 0.0) * 1e-3,
        "fixed_angle": sq.get("fixed_angle_rad", math.pi / 2),
    }


def log_grid(f_min: float, f_max: float, points: int):
    return np.logspace(math.log10(f_min), math.log10(f_max), points)


def loglog_interp(table_f, table_a, grid):
    """Interpolate linearly in log-log coordinates; exact at the knots."""
    table_f = np.asarray(table_f, dtype=float)
    table_a = np.asarray(table_a, dtype=float)
    grid = np.asarray(grid, dtype=float)
    i = np.clip(np.searchsorted(table_f, grid, side="right") - 1, 0, table_f.size - 2)
    lf0, lf1 = np.log(table_f[i]), np.log(table_f[i + 1])
    la0, la1 = np.log(table_a[i]), np.log(table_a[i + 1])
    out = np.exp(la0 + (la1 - la0) * (np.log(grid) - lf0) / (lf1 - lf0))
    return np.where(grid == table_f[i], table_a[i], out)


# ---------------------------------------------------------------- emitted files

def read_asd_csv(path) -> tuple[list[float], list[float]]:
    """Read an emitted ASD table with the stdlib csv module."""
    freqs, values = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        if ",".join(header) != ASD_HEADER:
            raise Mismatch(f"{path}: header {header!r}")
        for row in rows:
            if not row or row[0].startswith("#"):
                continue
            freqs.append(float(row[0]))
            values.append(float(row[1]))
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise Mismatch(f"{path}: frequencies do not increase")
    return freqs, values


def improvement_median_db(grid, reference_total, squeezed_total, band) -> float:
    """20 log10 of the median reference/squeezed ratio over the band."""
    ratios = [r / s for f, r, s in zip(grid, reference_total, squeezed_total)
              if band[0] <= f <= band[1]]
    return 20.0 * math.log10(statistics.median(ratios))


def check_rss(what: str, total, components, *, rtol: float = 1e-12) -> None:
    """total**2 must equal the sum of the squared components."""
    power = np.zeros(len(total))
    for values in components:
        power += np.asarray(values, dtype=float) ** 2
    all_close(f"{what}: total^2 against the sum of component^2",
              np.asarray(total, dtype=float) ** 2, power, rtol=rtol)


def check_svg(path, curves: int, points: int) -> None:
    """Parse an SVG with xml.etree; it must hold ``curves`` polylines of ``points`` points."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise Mismatch(f"{path}: not well-formed XML: {exc}") from None
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != curves:
        raise Mismatch(f"{path}: {len(lines)} curves, expected {curves}")
    for el in lines:
        if len(el.get("points", "").split()) != points:
            raise Mismatch(f"{path}: a curve does not have {points} points")
