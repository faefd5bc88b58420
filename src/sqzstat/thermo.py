"""Thermodynamic layer: environment splits, conjugates, residuals.

Conventions used throughout the package: every extensive/intensive pair
is addressed by one name (that of the extensive member).  A pair whose
extensive value is pinned has an observable conjugate intensive value,
and vice versa -- so "observed" maps carry exactly one number per pair,
whose meaning follows from the split.  A surface
(``phi_surface_from_spectrum``) maps a full {pair name: value} dict to
the dimensionless potential and reads its derivatives from the class table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from .engine import SpectrumSurface

__all__ = [
    "EnvironmentSplit",
    "ThermoPoint",
    "conjugates_from_phi",
    "euler_residual",
    "gibbs_duhem_residual",
]


@dataclass(frozen=True)
class EnvironmentSplit:
    """Names of the pinned-extensive and pinned-intensive pairs.

    The two sets are disjoint; their union is the full set of declared
    pairs.  An isolated system has an empty intensive set.
    """

    fixed_extensive: tuple[str, ...] = ()
    fixed_intensive: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "fixed_extensive", tuple(self.fixed_extensive))
        object.__setattr__(self, "fixed_intensive", tuple(self.fixed_intensive))
        overlap = set(self.fixed_extensive) & set(self.fixed_intensive)
        if overlap:
            raise ValueError(f"pairs declared in both sets: {sorted(overlap)}")

    @property
    def all_names(self) -> tuple[str, ...]:
        return self.fixed_extensive + self.fixed_intensive


@dataclass(frozen=True)
class ThermoPoint:
    """Potential, the two entropic functions, and observed conjugates.

    entropy_theta is None when the model cannot determine the fully
    open ensemble (pinned extensive variables without a parametric
    surface)."""

    phi: float
    entropy_J: float
    entropy_theta: float | None
    observed: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "phi": self.phi,
            "entropy_J": self.entropy_J,
            "entropy_theta": self.entropy_theta,
            "observed": dict(self.observed),
        }


def conjugates_from_phi(
    phi_surface: SpectrumSurface,
    split: EnvironmentSplit,
    point: Mapping[str, float],
) -> dict[str, float]:
    """Observed values +dphi/dy of the pinned-intensive pairs: the surface's
    ``gradient``, read from its class table.  A pinned-extensive pair has no
    derivative there, so a split that pins any raises ValueError naming them."""
    if split.fixed_extensive:
        raise ValueError(
            f"conjugates need exchanged variables only; pinned extensively: {list(split.fixed_extensive)}"
        )
    return phi_surface.gradient(point, split.fixed_intensive)


def euler_residual(
    point: ThermoPoint,
    split: EnvironmentSplit,
    environment: Mapping[str, float],
) -> float:
    """Subdivision entropy Theta = -phi - sum_j y_j,obs X_j.

    Vanishes for first-order homogeneous (macroscopic) models; the
    nonzero remainder is the small-system subdivision term.  Requires
    point.observed to carry the conjugate of every pinned-extensive
    pair and ``environment`` to carry the pinned values themselves."""
    acc = -point.phi
    for name in split.fixed_extensive:
        acc -= point.observed[name] * environment[name]
    return acc


def gibbs_duhem_residual(
    trajectory: Sequence[tuple[ThermoPoint, Mapping[str, float]]],
    split: EnvironmentSplit,
    include_theta: bool = True,
) -> float:
    """Accumulated residual of d(theta) + sum_l X_l dy_l along a path.

    ``trajectory`` pairs each point with its environment values.  With
    include_theta the full small-system identity is integrated and the
    residual is ~0 up to quadrature error; without it the bare
    sum-X-dy integral is returned (the macroscopic statement, ~0 only
    for first-order homogeneous models).  Trapezoid rule; needs >= 3
    points."""
    if len(trajectory) < 3:
        raise ValueError(f"need at least 3 path points, got {len(trajectory)}")

    def x_of(point: ThermoPoint, env: Mapping[str, float], name: str) -> float:
        return env[name] if name in split.fixed_extensive else point.observed[name]

    def y_of(point: ThermoPoint, env: Mapping[str, float], name: str) -> float:
        return env[name] if name in split.fixed_intensive else point.observed[name]

    residual = 0.0
    for (p0, e0), (p1, e1) in zip(trajectory[:-1], trajectory[1:]):
        seg = 0.0
        if include_theta:
            if p0.entropy_theta is None or p1.entropy_theta is None:
                raise ValueError("trajectory point lacks entropy_theta")
            seg += p1.entropy_theta - p0.entropy_theta
        for name in split.all_names:
            dy = y_of(p1, e1, name) - y_of(p0, e0, name)
            xbar = 0.5 * (x_of(p0, e0, name) + x_of(p1, e1, name))
            seg += xbar * dy
        residual += seg
    return residual
