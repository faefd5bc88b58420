"""Stability matrix, Gaussian fluctuation formulas and second moments.

The curvature of the potential in the intensive directions carries the
fluctuation content: C = -(d2 phi / dy dy) is the covariance matrix of
the conjugate extensive variables, its inverse G the stability matrix of
the extensive-side expansion, and the deformed statistics rescale both
by 1 + (q - 1) * phi0.  A spectrum surface gives the curvature as a sum
over its class table in one pass; other callables are differenced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .squeeze import SqueezeFamily
from .thermo import PhiSurface, richardson

__all__ = [
    "StabilityWarning",
    "FluctuationReport",
    "stability_matrix",
    "moments",
    "einstein_log_probability",
]

_HESS_STEP = 5e-4  # second differences need a larger step than gradients
# finite-difference curvatures carry ~8 meaningful digits: a relative size below this is zero,
# so condition numbers beyond its inverse are indistinguishable from exact singularity
_REL_TOL = 1e-8


class StabilityWarning(UserWarning):
    """Raised (as a warning) when a Hessian is indefinite or a state
    looks outside the macroscopic fluctuation regime."""


@dataclass(frozen=True)
class FluctuationReport:
    """Second-moment summary around one equilibrium state.

    variances / covariances are for the extensive (fluctuating)
    variables; intensive_variances for their conjugates.  The deformed
    scale multiplies all of them and equals 1 for the identity family.
    """

    variable_names: tuple[str, ...]
    G: np.ndarray
    G_inv: np.ndarray
    variances: dict[str, float]
    intensive_variances: dict[str, float]
    covariances: dict[tuple[str, str], float]
    tsallis_scale: float
    phi0: float
    condition_number: float
    singular: bool = False

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variable_names),
            "G": [[float(v) for v in row] for row in self.G],
            "G_inv": [[float(v) for v in row] for row in self.G_inv],
            "variances": dict(self.variances),
            "intensive_variances": dict(self.intensive_variances),
            "covariances": {f"{a},{b}": v for (a, b), v in self.covariances.items()},
            "tsallis_scale": self.tsallis_scale,
            "phi0": self.phi0,
            "condition_number": self.condition_number,
            "singular": self.singular,
        }


def _differenced_hessian(phi_surface: PhiSurface, point: Mapping[str, float], names: Sequence[str]):
    steps = np.array([_HESS_STEP * max(1.0, abs(point[name])) for name in names])

    def at(deltas: dict[str, float]) -> float:
        vals = dict(point)
        for k, d in deltas.items():
            vals[k] = vals[k] + d
        return phi_surface(vals)

    f0 = at({})

    def second_differences(scale: float) -> np.ndarray:
        H = np.empty((len(names), len(names)))
        for i, ni in enumerate(names):
            hi = steps[i] * scale
            H[i, i] = (at({ni: hi}) - 2.0 * f0 + at({ni: -hi})) / (hi * hi)
            for j, nj in enumerate(names[i + 1:], i + 1):
                hj = steps[j] * scale
                H[i, j] = H[j, i] = (
                    at({ni: hi, nj: hj})
                    - at({ni: hi, nj: -hj})
                    - at({ni: -hi, nj: hj})
                    + at({ni: -hi, nj: -hj})
                ) / (4.0 * hi * hj)
        return H

    return f0, richardson(second_differences, 1.0)


def _phi_and_hessian(phi_surface: PhiSurface, point: Mapping[str, float], names: Sequence[str]):
    """(phi, symmetrized Hessian H, eigenvalues, eigenvectors of H) at
    the point, from one eigendecomposition; see stability_matrix.  A 1 x 1 H is its
    own: the entry and the eigenvector 1.0, as LAPACK's dsyevd returns them for
    n = 1 (NaN, inf, -0.0 and subnormals included), with no eigh call."""
    curvature = getattr(phi_surface, "curvature", None)
    phi, H = curvature(point, names) if curvature else _differenced_hessian(phi_surface, point, names)
    H = 0.5 * (H + H.T)
    eig, vec = (H[0], np.ones((1, 1))) if H.shape == (1, 1) else np.linalg.eigh(H)
    lam = eig.tolist()
    scale = max(1.0, *map(abs, lam))
    if any(v > _REL_TOL * scale for v in lam) and any(v < -_REL_TOL * scale for v in lam):
        warnings.warn("indefinite curvature: state is not a one-sided extremum", StabilityWarning)
    return phi, H, eig, vec


def stability_matrix(
    phi_surface: PhiSurface,
    point: Mapping[str, float],
    variables: Sequence[str],
) -> np.ndarray:
    """Hessian of the surface, symmetrized: its ``curvature`` (one class
    pass) if it has one, else central differences with one Richardson
    refinement (h, h/2).  An indefinite result draws a StabilityWarning."""
    return _phi_and_hessian(phi_surface, point, list(variables))[1]


def moments(
    phi_surface: PhiSurface,
    point: Mapping[str, float],
    variables: Sequence[str],
    family: SqueezeFamily,
    theta: float | None = None,
) -> FluctuationReport:
    """Variances and covariances of the fluctuating extensive variables.

    ``variables`` are the intensive environment names conjugate to the
    fluctuating set; ``phi0`` is the surface's phi at the point, the
    potential of the ensemble in which the fluctuating variables are exchanged.
    Passing the subdivision entropy ``theta`` arms a small-system check:
    the quadratic fluctuation formulas assume a macroscopic state, so a
    non-negligible theta draws a StabilityWarning (not an error).

    One eigendecomposition of the Hessian gives the indefinite check, the
    condition number max|lambda|/min|lambda| (inf at a zero eigenvalue or
    an exactly zero row) and G = V diag(1/lambda) V'; for one variable it is
    the entry itself and V = 1, with no eigh call.  A singular C
    (cond > 1e8) is inverted as np.linalg.pinv does, dropping the
    |lambda| <= 1e-15 max|lambda|.  The n x n bookkeeping after the eigh runs on
    Python floats (``tolist``): n is 1 to 3 in practice, where a numpy call costs more
    than its arithmetic, and floats round as the arrays did, so results keep their bits.

    Power law at q < 1/2: a row's curvature term grows like c**(2q - 1)
    as its class c nears the cutoff at 0, as the true curvature does; a
    live class is at least eps**(1/(1 - q)), so the result stays finite."""
    names = tuple(variables)
    phi0, H, eig, vec = _phi_and_hessian(phi_surface, point, names)
    C, eig = -H, -eig  # extensive covariance matrix in the undeformed case, same eigenvectors
    if theta is not None and abs(theta) > 0.01 * max(1.0, abs(phi0)):
        warnings.warn(
            f"subdivision entropy {theta:g} is not negligible: "
            "macroscopic fluctuation formulas are approximate here",
            StabilityWarning,
        )
    scale = 1.0 + (family.q - 1.0) * phi0 if family.kind == "tsallis" and not family.is_identity else 1.0
    lam, c = eig.tolist(), C.tolist()
    size = [abs(v) for v in lam]
    top, bottom = max(size), min(size)
    # inf at a zero eigenvalue, as np.linalg.cond, or at an exactly zero row
    # (a flat direction), whose eigenvalue eigh may leave at rounding level
    cond = math.inf if bottom == 0.0 or not all(map(any, c)) else top / bottom  # inf beyond float range
    singular = not math.isfinite(cond) or cond > 1 / _REL_TOL
    if singular:
        warnings.warn("covariance matrix is numerically singular", StabilityWarning)
        eig = [v if s > 1e-15 * top else math.inf for v, s in zip(lam, size)]  # np.linalg.pinv's cutoff
    with np.errstate(over="ignore", invalid="ignore"):  # IEEE: 1/lambda is inf for a subnormal lambda
        G = (vec / eig) @ vec.T  # V diag(1/lambda) V'
    g = G.tolist()
    zero = _REL_TOL * max(1.0, float(np.max(np.abs(C)))) if singular else -math.inf  # a flat row's size
    variances = {ni: scale * c[i][i] for i, ni in enumerate(names)}
    intensive = {ni: math.inf if abs(c[i][i]) <= zero else scale * g[i][i] for i, ni in enumerate(names)}
    covariances = {(ni, nj): scale * c[i][j]
                   for i, ni in enumerate(names) for j, nj in enumerate(names) if j > i}
    return FluctuationReport(
        variable_names=names,
        G=G,
        G_inv=C,
        variances=variances,
        intensive_variances=intensive,
        covariances=covariances,
        tsallis_scale=scale,
        phi0=phi0,
        condition_number=cond,
        singular=singular,
    )


def einstein_log_probability(
    alpha: "np.ndarray | Sequence[float]", G: np.ndarray, tsallis_scale: float = 1.0
) -> float:
    """Unnormalized log of the Gaussian fluctuation density at deviation
    alpha from the most probable state: -alpha' (G / scale) alpha / 2."""
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    Gm = np.atleast_2d(np.asarray(G, dtype=float))
    return float(-0.5 * a @ (Gm / tsallis_scale) @ a)
