"""Second moments of the extensive variables and of their conjugates.

The curvature of the potential in the intensive directions carries the
fluctuation content: C = -(d2 phi / dy dy) is the covariance matrix of
the conjugate extensive variables, and its inverse G is the stability
matrix of the extensive-side expansion; the deformed statistics rescale
both by 1 + (q - 1) * phi0.  ``moments`` reads the curvature from the
surface's class table in one pass and reports C (``G_inv``) and G.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .squeeze import SqueezeFamily

if TYPE_CHECKING:
    from .engine import SpectrumSurface

__all__ = [
    "StabilityWarning",
    "FluctuationReport",
    "moments",
]

# relative size below which a curvature eigenvalue counts as zero: it decides the indefinite
# check (against max(1, max|lambda|)), `singular` (cond > 1 / _REL_TOL) and a flat row's size
_REL_TOL = 1e-8
_PINV_RCOND = 1e-15  # np.linalg.pinv's: |lambda| <= it * max|lambda| is zero, in cond and in G


class StabilityWarning(UserWarning):
    """Raised (as a warning) when a Hessian is indefinite or the
    covariance matrix is numerically singular."""


@dataclass(frozen=True, eq=False)
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


def moments(
    phi_surface: SpectrumSurface,
    point: Mapping[str, float],
    variables: Sequence[str],
    family: SqueezeFamily,
) -> FluctuationReport:
    """Variances and covariances of the fluctuating extensive variables.

    ``variables`` are the intensive environment names conjugate to the
    fluctuating set; ``phi0`` is the surface's phi at the point, the
    potential of the ensemble in which the fluctuating variables are exchanged.
    ``family`` must equal the surface's own, at least one name is needed and no name may
    repeat (ValueError otherwise).

    One read of the surface's ``curvature``, symmetrized, is H = -C.  An exactly zero row of C
    is a flat direction, eigenvalue 0 along its own axis: it is left out, and G is zero on its
    row and column.  One eigendecomposition of the live rows and columns gives the indefinite
    check, the condition number max|lambda|/min|lambda| (inf at a flat direction or at a
    |lambda| <= 1e-15 max|lambda|, which np.linalg.pinv drops) and G = V diag(1/lambda) V' on
    them; for one live direction it is the entry itself and V = 1, as LAPACK's dsyevd returns
    them for n = 1 (NaN, inf, -0.0 and subnormals included), with no eigh call.  A singular C
    (cond > 1e8) is inverted as pinv does.  The n x n bookkeeping
    runs on Python floats (``tolist``): n is 1 to 3 in practice, where a
    numpy call costs more than its arithmetic, and floats round as the arrays did, so
    results keep their bits.

    Power law at q < 1/2: a row's curvature term grows like c**(2q - 1)
    as its class c nears the cutoff at 0, as the true curvature does; a
    live class is at least eps**(1/(1 - q)), so the result stays finite."""
    if family != phi_surface.family:
        raise ValueError(f"moments of a {phi_surface.family.label()} surface asked for {family.label()}")
    names = tuple(variables)
    if not names:
        raise ValueError("moments of no variables: name at least one")
    if len(set(names)) != len(names):
        raise ValueError(f"moments of repeated variables {names}: each name is one variable")
    phi0, H = phi_surface.curvature(point, names)
    H = 0.5 * (H + H.T)
    G_inv = -H  # C, the extensive covariance matrix in the undeformed case, with H's eigenvectors
    c = G_inv.tolist()
    n = len(c)
    flat = not all(map(any, c))  # a zero row: its direction is left out
    # a zero C keeps one zero direction, which the 1 x 1 rule reads as flat
    live = ([i for i, row in enumerate(c) if any(row)] or [0]) if flat else range(n)
    if len(live) > 1:
        eig, vec = np.linalg.eigh(H[np.ix_(live, live)] if flat else H)
        lam = (-eig).tolist()
    else:
        lam, vec = [c[live[0]][live[0]]], None
    scale = 1.0 + (family.q - 1.0) * phi0  # exactly 1.0 at q = 1, as phi0 is finite
    size = [abs(v) for v in lam]
    top, bottom = max(size), min(size)
    tol = _REL_TOL * max(1.0, top)
    if max(lam) > tol and min(lam) < -tol:
        warnings.warn("indefinite curvature: state is not a one-sided extremum", StabilityWarning)
    # inf at a flat direction or at an eigenvalue pinv drops (eigh may leave a zero one at
    # rounding level, where np.linalg.cond is inf)
    cond = math.inf if flat or bottom <= _PINV_RCOND * top else top / bottom
    singular = not math.isfinite(cond) or cond > 1 / _REL_TOL
    if singular:
        warnings.warn("covariance matrix is numerically singular", StabilityWarning)
        lam = [v if s > _PINV_RCOND * top else math.inf for v, s in zip(lam, size)]
    if vec is None:  # lambda is finite and nonzero here, or inf; Python's 1/lambda is IEEE's
        g = [[1.0 / lam[0] + 0.0]]  # + 0.0: the matmul's sum reads -0.0 as 0.0
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # IEEE: 1/lambda is inf for a subnormal lambda
            G = (vec / lam) @ vec.T  # V diag(1/lambda) V'
        G = np.where(np.tri(len(lam), k=-1, dtype=bool), G.T, G)  # the upper triangle mirrored: G = G'
        g = G.tolist()
    if flat:  # G is zero on flat rows and columns and the live block's inverse elsewhere
        G = np.zeros((n, n))
        for i, row in zip(live, g):
            for j, v in zip(live, row):
                G[i, j] = v
        g = G.tolist()
    elif vec is None:
        G = np.array(g)
    zero = _REL_TOL * max(1.0, *[abs(v) for row in c for v in row]) if singular else -math.inf
    variances = {ni: scale * c[i][i] for i, ni in enumerate(names)}
    intensive = {ni: math.inf if abs(c[i][i]) <= zero else scale * g[i][i] for i, ni in enumerate(names)}
    covariances = {(ni, nj): scale * c[i][j]
                   for i, ni in enumerate(names) for j, nj in enumerate(names) if j > i}
    return FluctuationReport(
        variable_names=names,
        G=G,
        G_inv=G_inv,
        variances=variances,
        intensive_variances=intensive,
        covariances=covariances,
        tsallis_scale=scale,
        phi0=phi0,
        condition_number=cond,
        singular=singular,
    )

