"""Thermodynamic layer: environment splits, thermodynamic points (phi, J,
theta and the observed conjugates), and conjugates read from a surface.

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
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .engine import SpectrumSurface

__all__ = [
    "EnvironmentSplit",
    "ThermoPoint",
    "conjugates_from_phi",
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

