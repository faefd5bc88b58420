"""Squeezing-function families evaluated in log domain.

A family is a positive deformation h applied to class counts, with its
inverse H and its log-slope l = d(ln h)/dx.  The identity family leaves
counts untouched; the power-law ("tsallis") family is parametrized by an
entropic index q and built from the deformed logarithm
ln_q x = (x^(1-q) - 1)/(1-q) and its inverse.

Everything works on ln(count), so macroscopically large counts are never
materialized.  Four kernels hold a family's arithmetic: ln_squeeze
(ln h), ln_unsqueeze (ln H and the mask of *excluded* values, whose
inverse falls outside the deformed-exponential domain), ln_log_slope
(ln l) and ln_row_class (ln H(h(g) e^(-x.y)), a row's squeezed class, in
one expression).  A custom family supplies one hook per one-way kernel,
each from a log to a log.  Each kernel takes a float or an array, with
the same bits either way; the linear-domain forms wrap them.  Overflow
gives inf here and SqueezeDomainError in the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SqueezeDomainError

__all__ = ["SqueezeFamily"]

_IDENTITY = "identity"
_TSALLIS = "tsallis"
_CUSTOM = "custom"


def _float_or_array(v):
    # numpy ufuncs take a Python float as it is, far cheaper than a 0-d array
    return v if type(v) is float else np.asarray(v, dtype=float)


def _call(hook: Callable[[float], float], v: float) -> float:
    """hook(v); a math error in the hook (overflow, a domain error) is a SqueezeDomainError naming v."""
    try:
        return hook(v)
    except (ArithmeticError, ValueError) as exc:
        raise SqueezeDomainError(f"custom hook fails at {float(v)!r}: {exc}") from exc


def _apply(hook: Callable[[float], float], x, at_zero: float = -math.inf) -> np.ndarray:
    """A custom hook applied elementwise to a float or an array.  A zero
    count (ln = -inf) gives ``at_zero`` without a call: h(0) = H(0) = 0."""
    x = np.asarray(x, dtype=float)
    out = [at_zero if v == -math.inf else _call(hook, v) for v in x.flat]
    return np.array(out, dtype=float).reshape(x.shape)


@dataclass(frozen=True)
class SqueezeFamily:
    """Immutable deformation family; safe to share across workers.

    Build with ``identity()``, ``tsallis(q)`` or ``custom(ln_h, ln_H,
    ln_log_slope)``.  q = 1 is a dedicated identity branch, never a
    numerical limit.  A custom family's hooks work in log domain: ln h(g)
    and ln l(g), l = d(ln h)/dx, from ln g; ln H(x) from ln x (-inf or NaN
    where x is excluded).  Its row class composes them, ln H(ln h(ln g) -
    x.y).  The constructor probes them on ln g in [-3, 3]
    and rejects a non-finite value, a failed inverse roundtrip and an ln l
    that disagrees with a central difference of ln h.
    """

    kind: str
    q: float = 1.0
    ln_h_hook: Callable[[float], float] | None = None
    ln_H_hook: Callable[[float], float] | None = None
    ln_log_slope_hook: Callable[[float], float] | None = None

    @staticmethod
    def identity() -> "SqueezeFamily":
        return SqueezeFamily(kind=_IDENTITY, q=1.0)

    @staticmethod
    def tsallis(q: float) -> "SqueezeFamily":
        if not math.isfinite(q):
            raise SqueezeDomainError(f"entropic index must be finite, got {q!r}")
        return SqueezeFamily(kind=_TSALLIS, q=float(q))

    @staticmethod
    def custom(
        ln_h: Callable[[float], float],
        ln_H: Callable[[float], float],
        ln_log_slope: Callable[[float], float],
    ) -> "SqueezeFamily":
        fam = SqueezeFamily(_CUSTOM, math.nan, ln_h, ln_H, ln_log_slope)
        fam._probe()
        return fam

    @property
    def is_identity(self) -> bool:
        return self.kind == _IDENTITY or (self.kind == _TSALLIS and self.q == 1.0)

    def label(self) -> str:
        if self.kind == _TSALLIS:
            return f"tsallis(q={self.q:g})"
        return self.kind

    # -- the four kernels: all of a family's arithmetic -----------------

    def ln_squeeze(self, ln_g: "np.ndarray | float") -> "np.ndarray | float":
        """ln h(g) from ln g, elementwise; inf where h leaves the float range."""
        x = _float_or_array(ln_g)
        if self.is_identity:
            return +x  # an array is copied, a float stays a float
        if self.kind == _TSALLIS:
            u = 1.0 - self.q
            return np.expm1(u * x) / u
        return _apply(self.ln_h_hook, x)

    def ln_unsqueeze(self, ln_x: "np.ndarray | float") -> tuple:
        """(ln H(x) from ln x, excluded mask), elementwise; excluded values
        are at or below the deformed-exponential cutoff and read -inf."""
        x = _float_or_array(ln_x)
        if self.is_identity:
            return +x, np.zeros(np.shape(x), dtype=bool)
        if self.kind == _TSALLIS:
            u = 1.0 - self.q
            t = u * x
            excluded = t <= -1.0  # 1 + t <= 0, as 1 + t is exact near t = -1
            ln_H = np.log1p(np.where(excluded, 0.0, t)) / u
            return np.where(excluded, -np.inf, ln_H), excluded
        out = _apply(self.ln_H_hook, x)
        excluded = ~np.isfinite(out)
        return np.where(excluded, -np.inf, out), excluded

    def ln_log_slope(self, ln_g: "np.ndarray | float") -> "np.ndarray | float":
        """ln l(g) from ln g, l = d(ln h)/dx, elementwise."""
        x = _float_or_array(ln_g)
        if self.is_identity:
            return -x
        if self.kind == _TSALLIS:
            return -self.q * x
        return _apply(self.ln_log_slope_hook, x, at_zero=math.inf)  # ln h -> -inf at g = 0: l is unbounded

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
        if self.kind == _CUSTOM:
            return self.ln_unsqueeze(self.ln_squeeze(x) - xy)
        u = 1.0 - self.q
        v = -u * xy
        # ln 0 at x.y = 0; exp and log1p warn only past z = -1 (excluded) or in the branch not taken
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = np.log(np.abs(v)) - u * x
            ln_1pz = np.where(v < 0.0, np.log1p(-np.exp(w)), np.logaddexp(0.0, w))
        excluded = ~(ln_1pz > -np.inf)  # log1p reads -inf at z = -1 and NaN below
        return np.where(excluded, -np.inf, x + ln_1pz / u), excluded

    def slope_elasticity(self, ln_x: "np.ndarray | float") -> "np.ndarray | float":
        """kappa = d ln(d ln h/dx) / d ln x at x = exp(ln_x): -q for the power
        law and the identity (q = 1), a central difference in ln x for hooks."""
        if self.kind != _CUSTOM:
            return -self.q
        x = np.asarray(ln_x, dtype=float)
        step = 1e-5 * np.maximum(1.0, np.abs(x))
        return (self.ln_log_slope(x + step) - self.ln_log_slope(x - step)) / (2.0 * step)

    # -- linear-domain wrappers over the kernels ---------------------------

    def h_of(self, x: np.ndarray) -> np.ndarray:
        """h applied to linear-domain populations (kinetics path); h(0) is
        the exact limit at zero (0 for q > 1, exp(-1/(1-q)) for q < 1, 0
        for custom families).  The identity returns x exactly, which keeps
        the collision operator the classical bilinear one."""
        if self.is_identity:
            return np.array(x, dtype=float)
        return np.exp(self.ln_h_of_linear(x))

    def ln_h_of_linear(self, x: np.ndarray) -> np.ndarray:
        """ln h on linear-domain populations (kinetics path)."""
        with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf; ln h may overflow to +-inf
            return self.ln_squeeze(np.log(x))

    # -- custom-family validation ----------------------------------------

    def _probe(self) -> None:
        if None in (self.ln_h_hook, self.ln_H_hook, self.ln_log_slope_hook):
            raise SqueezeDomainError("custom families must supply all three hooks")
        for ln_g in np.linspace(-3.0, 3.0, 13):
            step = 1e-6 * max(1.0, abs(ln_g))
            ln_h, below, above = (_call(self.ln_h_hook, v) for v in (ln_g, ln_g - step, ln_g + step))
            back, ln_l = _call(self.ln_H_hook, ln_h), _call(self.ln_log_slope_hook, ln_g)
            if not all(map(math.isfinite, (ln_h, below, above, back, ln_l))):
                raise SqueezeDomainError(f"custom hooks give a non-finite value at ln_g={ln_g:g}")
            if abs(back - ln_g) > 1e-8 * max(1.0, abs(ln_g)):
                raise SqueezeDomainError(f"custom hooks fail the inverse roundtrip at ln_g={ln_g:g}")
            # g l(g) = d ln h / d ln g, compared in log domain
            dln_h = (above - below) / (2.0 * step)
            ln_fd = math.log(dln_h) if dln_h > 0.0 else -math.inf
            if abs(ln_g + ln_l - ln_fd) > 1e-4:
                raise SqueezeDomainError(
                    f"custom ln_log_slope inconsistent with d ln h/d ln g at ln_g={ln_g:g}: "
                    f"ln(g l) {ln_g + ln_l:g} from the hook vs {ln_fd:g} from a central difference of ln h"
                )
