"""Squeezing-function families evaluated in log domain.

A family is a positive deformation h applied to class counts, with its
inverse H.  The identity family leaves counts untouched; the power-law
("tsallis") family is parametrized by an entropic index q and built from
the deformed logarithm ln_q x = (x^(1-q) - 1)/(1-q) and its inverse.

Everything works on ln(count), so macroscopically large counts are never
materialized.  Three kernels hold a family's arithmetic: ln_squeeze
(ln h), ln_unsqueeze (ln H and the mask of *excluded* values, whose
inverse falls outside the deformed-exponential domain) and ln_row_class
(ln H(h(g) e^(-x.y)), a row's squeezed class, in one expression).  Each
kernel takes a float or an array, with the same bits either way; the
linear-domain h_of wraps ln_squeeze.  Overflow gives inf here and
SqueezeDomainError in the engine.  A family is its index q: general
squeezing functions are out of scope, and the power law alone carries
the paper's framework; the derivatives of phi are its closed sums in P^q
(``engine.ClassTable``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SqueezeDomainError

__all__ = ["SqueezeFamily"]


def _float_or_array(v):
    # numpy ufuncs take a Python float as it is, far cheaper than a 0-d array
    return v if type(v) is float else np.asarray(v, dtype=float)


@dataclass(frozen=True)
class SqueezeFamily:
    """Immutable deformation family; safe to share across workers.

    Build with ``identity()`` or ``tsallis(q)``.  Every family is the
    power law of its index q, and q = 1 is a dedicated identity branch,
    never a numerical limit: tsallis(1) is the identity, equal to it and
    labelled and written as it.  Construction rejects a non-finite q
    with SqueezeDomainError.
    """

    q: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise SqueezeDomainError(f"entropic index must be finite, got {self.q!r}")
        object.__setattr__(self, "q", float(self.q))

    @staticmethod
    def identity() -> "SqueezeFamily":
        return SqueezeFamily(1.0)

    @staticmethod
    def tsallis(q: float) -> "SqueezeFamily":
        return SqueezeFamily(q)

    @property
    def is_identity(self) -> bool:
        return self.q == 1.0

    def label(self) -> str:
        return "identity" if self.is_identity else f"tsallis(q={self.q:g})"

    # -- the three kernels: all of a family's arithmetic ----------------

    def ln_squeeze(self, ln_g: "np.ndarray | float") -> "np.ndarray | float":
        """ln h(g) from ln g, elementwise; inf where h leaves the float range."""
        x = _float_or_array(ln_g)
        if self.is_identity:
            return +x  # an array is copied, a float stays a float
        u = 1.0 - self.q
        return np.expm1(u * x) / u

    def ln_unsqueeze(self, ln_x: "np.ndarray | float") -> tuple:
        """(ln H(x) from ln x, excluded mask), elementwise; excluded values
        are at or below the deformed-exponential cutoff and read -inf."""
        x = _float_or_array(ln_x)
        if self.is_identity:
            return +x, np.zeros(np.shape(x), dtype=bool)
        u = 1.0 - self.q
        t = u * x
        excluded = t <= -1.0  # 1 + t <= 0, as 1 + t is exact near t = -1
        if type(x) is not float and not np.count_nonzero(excluded):  # no entry to mask
            return np.log1p(t) / u, excluded
        ln_H = np.log1p(np.where(excluded, 0.0, t)) / u
        return np.where(excluded, -np.inf, ln_H), excluded

    def ln_row_class(self, ln_g: "np.ndarray | float", xy: "np.ndarray | float") -> tuple:
        """(ln c, excluded mask) of the squeezed class c = H(h(g) e^(-x.y))
        from finite ln g and x.y, elementwise; excluded classes read -inf.

        The power law writes c^u = g^u - u x.y (u = 1 - q) as g^u (1 + z),
        z = -u x.y g^(-u), and takes ln c = ln g + ln(1 + z)/u with z in log
        domain; z <= -1 is excluded.  So it forms neither the bracket
        1 + u (ln_q g - x.y), which cancels for q > 1, nor g^u, which under-
        or overflows, and x.y = 0 gives ln g exactly."""
        x = _float_or_array(ln_g)
        if self.is_identity:
            ln_c = x - xy
            return ln_c, np.zeros(np.shape(ln_c), dtype=bool)
        u = 1.0 - self.q
        v = -u * xy
        # ln 0 at x.y = 0; exp and log1p warn only past z = -1 (excluded) or in the branch not taken
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = np.log(np.abs(v)) - u * x
            ln_1pz = np.where(v < 0.0, np.log1p(-np.exp(w)), np.logaddexp(0.0, w))
        excluded = ~(ln_1pz > -np.inf)  # log1p reads -inf at z = -1 and NaN below
        return np.where(excluded, -np.inf, x + ln_1pz / u), excluded

    # -- the linear-domain wrapper over ln_squeeze -------------------------

    def h_of(self, x: np.ndarray) -> np.ndarray:
        """h applied to linear-domain populations (kinetics path); h(0) is
        the exact limit at zero (0 for q > 1, exp(-1/(1-q)) for q < 1).  The
        identity returns x exactly, itself where it is a float array (no caller
        writes into h), which keeps the collision operator the classical bilinear one."""
        if self.is_identity:
            return np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf; ln h may overflow to +-inf
            return np.exp(self.ln_squeeze(np.log(x)))
