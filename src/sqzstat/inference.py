"""Inferring the statistics from thermal-equilibrium measurements.

Two systems in generalized thermal equilibrium share their deformed
Lagrange parameters, so the ratio of their undeformed (ordinary
thermometer) readings traces the logarithmic slope of the squeezing
function of the complex one.  Integrating that ratio over ln(count)
reconstructs ln h pointwise; under a power-law ansatz the entropic
index follows from a straight-line fit in log-log space.

The forward mixing integral over a distribution of thermal parameters
(the generalized Boltzmann-factor quadrature) is also provided; the
inverse extraction of the mixing density is ill-posed and out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DatasetError
from .squeeze import SqueezeFamily

__all__ = [
    "EquilibriumDataset",
    "QEstimate",
    "reconstruct_squeeze",
    "estimate_q",
    "superstatistics_forward",
    "synthetic_ratio_dataset",
]

POWER_LAW_RESIDUAL_THRESHOLD = 1e-6  # noiseless synthetic regime default


@dataclass(frozen=True)
class EquilibriumDataset:
    """Paired (ln count, thermometer-ratio) equilibrium measurements.

    ``ratio`` is the complex system's ordinary-thermometer Lagrange
    parameter divided by the reference (undeformed) system's, taken
    with both in generalized thermal equilibrium.  ln_g must increase
    strictly and start at the single-microstate anchor (ln g = 0, where
    the squeeze is normalized to h(1) = 1)."""

    ln_g: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        ln_g = np.asarray(self.ln_g, dtype=float)
        ratio = np.asarray(self.ratio, dtype=float)
        object.__setattr__(self, "ln_g", ln_g)
        object.__setattr__(self, "ratio", ratio)
        if ln_g.ndim != 1 or ln_g.shape != ratio.shape:
            raise DatasetError("ln_g and ratio must be matching 1-D arrays")
        if ln_g.size < 2:
            raise DatasetError("need at least two samples")
        if not np.all(np.isfinite(ln_g)) or not np.all(np.isfinite(ratio)):
            raise DatasetError("non-finite sample values")
        if np.any(ln_g[1:] <= ln_g[:-1]):  # not np.diff, which may overflow
            raise DatasetError("ln_g must be strictly increasing")
        if np.any(ratio <= 0.0):
            raise DatasetError("ratios must be positive")
        if ln_g[0] < -1e-12:
            raise DatasetError("counts below one are unphysical (ln_g[0] < 0)")

    @property
    def n(self) -> int:
        return int(self.ln_g.size)


class QEstimate(NamedTuple):
    q: float
    residual: float
    power_law: bool


def reconstruct_squeeze(data: EquilibriumDataset) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated ln h over the sample grid by cumulative trapezoid.

    Anchored at ln h(1) = 0; a leading gap between ln g = 0 and the
    first sample is bridged by constant extrapolation of the first
    ratio.  Returns (ln_g grid, ln h values)."""
    if data.n < 3:
        raise DatasetError(f"need at least 3 samples to reconstruct, got {data.n}")
    x = data.ln_g
    r = data.ratio
    if x[0] > 0.0:
        x = np.concatenate([[0.0], x])
        r = np.concatenate([[r[0]], r])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite table raises below
        ln_h = np.concatenate([[0.0], np.cumsum(0.5 * (r[1:] + r[:-1]) * np.diff(x))])
    if not np.isfinite(ln_h).all():
        raise DatasetError("reconstructed ln h is beyond the float range")
    if data.ln_g[0] > 0.0:
        return x[1:], ln_h[1:]
    return x, ln_h


def estimate_q(
    data: EquilibriumDataset,
    residual_threshold: float = POWER_LAW_RESIDUAL_THRESHOLD,
) -> QEstimate:
    """Entropic index under the power-law ansatz ratio ~ g**(1-q).

    Least-squares line of ln ratio against ln g: the slope s gives
    q = 1 - s.  The residual is the rms misfit of the line; above the
    threshold the ansatz itself is rejected (power_law = False) and the
    index estimate is not meaningful."""
    if data.n < 3:
        raise DatasetError(f"need at least 3 samples to fit, got {data.n}")
    x = data.ln_g
    with np.errstate(over="ignore"):  # a variance beyond the float range is not zero either
        if float(np.ptp(x)) <= 0.0 or float(np.var(x)) == 0.0:
            raise DatasetError("zero variance in ln_g")
    y = np.log(data.ratio)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(coef[0])
    fit = design @ coef
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    return QEstimate(q=1.0 - slope, residual=residual, power_law=residual <= residual_threshold)


def superstatistics_forward(
    beta_grid: "np.ndarray | list[float]",
    density: "np.ndarray | list[float]",
    energy: float,
    norm_tol: float = 1e-6,
) -> float:
    """Mixing-density average of the ordinary Boltzmann factor.

    Trapezoid quadrature of density(b) * exp(-b * energy) over the
    grid, normalized by the density's own trapezoid norm (so the value
    at energy = 0 is exactly one).  The density must already be
    normalized to within norm_tol or the call fails reporting the
    integral."""
    b = np.asarray(beta_grid, dtype=float)
    f = np.asarray(density, dtype=float)
    if b.ndim != 1 or b.shape != f.shape or b.size < 2:
        raise DatasetError("grid and density must be matching 1-D arrays with >= 2 points")
    if np.any(b[1:] <= b[:-1]):  # not np.diff, which may overflow
        raise DatasetError("beta grid must be strictly increasing")
    if np.any(f < 0.0):
        raise DatasetError("density must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite integral raises below
        norm = float(np.trapezoid(f, b))
        weighted = float(np.trapezoid(f * np.exp(-b * energy), b))
    if not abs(norm - 1.0) <= norm_tol:  # a nan in the grid or the density gives a nan norm
        raise DatasetError(f"density is not normalized: trapezoid integral = {norm!r}")
    if not np.isfinite(weighted):
        raise DatasetError(f"mixing integral at energy {energy!r} is beyond the float range")
    return weighted / norm


def synthetic_ratio_dataset(
    family: SqueezeFamily, ln_g_max: float = 5.0, n: int = 201
) -> EquilibriumDataset:
    """Noiseless equilibrium sweep generated from an implemented family.

    The ratio equals the logarithmic slope d(ln h)/d(ln g) evaluated on
    a uniform ln-count grid (the complex system swept against an
    undeformed reference)."""
    x = np.linspace(0.0, ln_g_max, n)
    # d(ln h)/d(ln g) = g * (f/h)(g)
    ratio = np.exp(x + family.ln_log_slope_arr(x))
    return EquilibriumDataset(ln_g=x, ratio=ratio)
