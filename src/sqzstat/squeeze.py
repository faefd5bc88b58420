"""Squeezing-function families evaluated in log domain.

A family is the triple (h, H, f): a positive deformation h applied to
class counts, its inverse H, and the slope f = dh/dx.  The identity
family leaves counts untouched; the power-law ("tsallis") family is
parametrized by an entropic index q and built from the deformed
logarithm ln_q x = (x^(1-q) - 1)/(1-q) and its inverse.

Everything works on ln(count), so macroscopically large counts are never
materialized.  Three kernels hold a family's arithmetic: ln_squeeze_arr
(ln h), ln_unsqueeze_arr (ln H and the mask of *excluded* values, whose
inverse falls outside the deformed-exponential domain) and
ln_log_slope_arr (ln f/h).  Each takes a float or an array; every other
form wraps them, so scalar and array results agree bit for bit.
Overflow gives inf here and SqueezeDomainError in the engine.  Only the
roundtrip API (squeeze_log/unsqueeze_log) uses compensated (hi + lo)
power-law arithmetic, Dekker's (1971) double-length products: it keeps
roundtrips to a few ulp where 1 + (1-q)x cancels in bare doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SqueezeDomainError

__all__ = [
    "LogValue",
    "SqueezeFamily",
    "EXCLUDED",
    "squeeze_log",
    "unsqueeze_log",
]

_IDENTITY = "identity"
_TSALLIS = "tsallis"
_CUSTOM = "custom"

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = (a * _SPLIT) - (a * _SPLIT - a)
    al = a - ah
    bh = (b * _SPLIT) - (b * _SPLIT - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    v = s - a
    err = (a - (s - v)) + (b - v)
    return s, err


def _tsallis_squeeze_pair(u: float, x_hi: float, x_lo: float) -> tuple[float, float]:
    """Compensated ln h of the power law, u = 1 - q != 0."""
    t_hi, t_lo = _two_prod(u, x_hi)
    t_lo += u * x_lo
    if t_hi <= -0.5:
        # cancellation regime: keep e^(u x) - 1 as an exact pair
        e = math.exp(t_hi) * (1.0 + t_lo)
        m_hi, m_lo = _two_sum(-1.0, e)
    else:
        m_hi = math.expm1(t_hi)
        m_lo = math.exp(t_hi) * t_lo if math.isfinite(m_hi) else 0.0
    if not math.isfinite(m_hi):
        raise SqueezeDomainError(
            f"ln h overflow: deformed log of exp({x_hi:g}) exceeds float range at q={1.0 - u:g}"
        )
    q1 = m_hi / u
    p_hi, p_lo = _two_prod(q1, u)
    q2 = (((m_hi - p_hi) - p_lo) + m_lo) / u
    return _two_sum(q1, q2)


def _tsallis_unsqueeze_pair(u: float, y_hi: float, y_lo: float) -> float:
    """Compensated ln H of the power law, u = 1 - q != 0; -inf when excluded."""
    p_hi, p_lo = _two_prod(u, y_hi)
    s_hi, s_lo = _two_sum(1.0, p_hi)
    bracket = s_hi + (s_lo + (p_lo + u * y_lo))
    if bracket <= 0.0:
        return -math.inf
    return math.log(bracket) / u


def _float_or_array(v):
    # numpy ufuncs take a Python float as it is, far cheaper than a 0-d array
    return v if type(v) is float else np.asarray(v, dtype=float)


def _apply(hook: Callable[[float], float], x, at_zero: float = -math.inf) -> np.ndarray:
    """A custom hook applied elementwise to a float or an array.  A zero
    count (ln = -inf) gives ``at_zero`` without a call: h(0) = H(0) = 0."""
    x = np.asarray(x, dtype=float)
    out = [at_zero if v == -math.inf else hook(v) for v in x.flat]
    return np.array(out, dtype=float).reshape(x.shape)


@dataclass(frozen=True)
class LogValue:
    """ln of a positive count, or the excluded (zero-size) state.

    ``cutoff_flag`` marks values clamped to zero by the deformed
    exponential cutoff; excluded values carry ``ln_x = -inf`` so that
    downstream log-sum-exp reductions skip them naturally.  ``ln_x_lo``
    is an optional compensation term (``ln_x + ln_x_lo`` is a more
    accurate value of the same quantity).
    """

    ln_x: float
    cutoff_flag: bool = False
    ln_x_lo: float = 0.0

    def value(self) -> float:
        """Linear-domain value; 0.0 for the excluded state."""
        return 0.0 if self.cutoff_flag else math.exp(self.ln_x)


EXCLUDED = LogValue(ln_x=-math.inf, cutoff_flag=True)


def _as_pair(x: "LogValue | float") -> tuple[float, float]:
    if isinstance(x, LogValue):
        if x.cutoff_flag:
            raise SqueezeDomainError("excluded value passed where a live count is required")
        hi, lo = x.ln_x, x.ln_x_lo
    else:
        hi, lo = float(x), 0.0
    if not math.isfinite(hi):
        raise SqueezeDomainError(f"non-finite log input: {hi!r}")
    return hi, lo


@dataclass(frozen=True)
class SqueezeFamily:
    """Immutable deformation family; safe to share across workers.

    Build with ``identity()``, ``tsallis(q)`` or ``custom(...)``.  q = 1
    is a dedicated identity branch, never a numerical limit.  Custom
    families must supply all three hooks (ln h, ln H, dh/dx, each taking
    or producing logs of counts); the constructor probes them on a grid
    and rejects triples that fail the inverse roundtrip or whose slope
    disagrees with a finite difference of h.
    """

    kind: str
    q: float = 1.0
    ln_h_hook: Callable[[float], float] | None = None
    ln_H_hook: Callable[[float], float] | None = None
    slope_hook: Callable[[float], float] | None = None

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
        slope: Callable[[float], float],
    ) -> "SqueezeFamily":
        fam = SqueezeFamily(kind=_CUSTOM, q=math.nan, ln_h_hook=ln_h, ln_H_hook=ln_H, slope_hook=slope)
        fam._probe()
        return fam

    @property
    def is_identity(self) -> bool:
        return self.kind == _IDENTITY or (self.kind == _TSALLIS and self.q == 1.0)

    # -- the three kernels: all of a family's arithmetic ----------------

    def ln_squeeze_arr(self, ln_g: "np.ndarray | float") -> "np.ndarray | float":
        """ln h(g) from ln g, elementwise; inf where h leaves the float range."""
        x = _float_or_array(ln_g)
        if self.is_identity:
            return +x  # an array is copied, a float stays a float
        if self.kind == _TSALLIS:
            u = 1.0 - self.q
            return np.expm1(u * x) / u
        return _apply(self.ln_h_hook, x)

    def ln_unsqueeze_arr(self, ln_x: "np.ndarray | float") -> tuple:
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

    def ln_log_slope_arr(self, ln_g: "np.ndarray | float") -> "np.ndarray | float":
        """ln of d(ln h)/dx at g = exp(ln_g), i.e. ln(f(g)/h(g)), elementwise."""
        x = _float_or_array(ln_g)
        if self.is_identity:
            return -x
        if self.kind == _TSALLIS:
            return -self.q * x
        f = _apply(self.slope_hook, x, at_zero=math.nan)
        if np.any(f < 0):
            raise SqueezeDomainError("slope hook returned a negative derivative")
        return np.log(f) - _apply(self.ln_h_hook, x)

    def slope_elasticity_arr(self, ln_x: "np.ndarray | float") -> "np.ndarray | float":
        """kappa = d ln(d ln h/dx) / d ln x at x = exp(ln_x): -q for the power
        law and the identity (q = 1), a central difference in ln x for hooks."""
        if self.kind != _CUSTOM:
            return -self.q
        x = np.asarray(ln_x, dtype=float)
        step = 1e-5 * np.maximum(1.0, np.abs(x))
        return (self.ln_log_slope_arr(x + step) - self.ln_log_slope_arr(x - step)) / (2.0 * step)

    # -- wrappers over the kernels ---------------------------------------

    def ln_squeeze(self, ln_g: float) -> float:
        """ln h(g) from ln g."""
        return float(self.ln_squeeze_arr(ln_g))

    def ln_unsqueeze(self, ln_x: float) -> float:
        """ln H(x) from ln x; -inf signals the excluded state."""
        return float(self.ln_unsqueeze_arr(ln_x)[0])

    def ln_log_slope(self, ln_g: float) -> float:
        """ln of d(ln h)/dx at g = exp(ln_g), i.e. ln(f(g)/h(g))."""
        return float(self.ln_log_slope_arr(ln_g))

    def h_of(self, x: np.ndarray) -> np.ndarray:
        """h applied to linear-domain populations (kinetics path); h(0) is
        the exact limit at zero (0 for q > 1, exp(-1/(1-q)) for q < 1, 0
        for custom families).  The identity returns x exactly, which keeps
        the collision operator the classical bilinear one."""
        if self.is_identity:
            return np.array(x, dtype=float)
        return np.exp(self.ln_h_of_linear(x))

    def ln_h_of_linear(self, x: np.ndarray) -> np.ndarray:
        """ln h on linear-domain populations (entropy integrand)."""
        with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf; ln h may overflow to +-inf
            return self.ln_squeeze_arr(np.log(x))

    # -- custom-family validation ----------------------------------------

    def _probe(self) -> None:
        if None in (self.ln_h_hook, self.ln_H_hook, self.slope_hook):
            raise SqueezeDomainError("custom families must supply all three hooks")
        for ln_g in np.linspace(-3.0, 3.0, 13):
            ln_h = self.ln_h_hook(ln_g)
            back = self.ln_H_hook(ln_h)
            if not math.isfinite(back) or abs(back - ln_g) > 1e-8 * max(1.0, abs(ln_g)):
                raise SqueezeDomainError(f"custom hooks fail the inverse roundtrip at ln_g={ln_g:g}")
            f = self.slope_hook(ln_g)
            if f < 0:
                raise SqueezeDomainError(f"custom slope negative at ln_g={ln_g:g}")
            step = 1e-6 * max(1.0, abs(ln_g))
            num = (math.exp(self.ln_h_hook(ln_g + step)) - math.exp(self.ln_h_hook(ln_g - step))) / (
                2.0 * step * math.exp(ln_g)
            )
            scale = max(abs(f), abs(num), 1e-12)
            if abs(f - num) / scale > 1e-4:
                raise SqueezeDomainError(
                    f"custom slope inconsistent with dh/dg at ln_g={ln_g:g}: "
                    f"hook {f:g} vs finite difference {num:g}"
                )

    # -- config ------------------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "SqueezeFamily":
        """Build from the {"family": ..., "q": ...} JSON fragment."""
        if not isinstance(cfg, dict):
            raise SqueezeDomainError(f"squeeze config must be an object, got {cfg!r}")
        name = cfg.get("family", _IDENTITY)
        if name == _IDENTITY:
            return SqueezeFamily.identity()
        if name == _TSALLIS:
            if "q" not in cfg:
                raise SqueezeDomainError("tsallis squeeze config requires 'q'")
            try:
                q = float(cfg["q"])
            except (TypeError, ValueError):
                raise SqueezeDomainError(f"tsallis 'q' must be a number, got {cfg['q']!r}") from None
            return SqueezeFamily.tsallis(q)
        raise SqueezeDomainError(f"unknown squeeze family {name!r} (custom is code-level only)")

    def to_config(self) -> dict:
        if self.kind == _TSALLIS:
            return {"family": _TSALLIS, "q": self.q}
        if self.kind == _IDENTITY:
            return {"family": _IDENTITY}
        raise SqueezeDomainError("custom families have no config form")

    def label(self) -> str:
        if self.kind == _TSALLIS:
            return f"tsallis(q={self.q:g})"
        return self.kind


def squeeze_log(family: SqueezeFamily, ln_g: "LogValue | float") -> LogValue:
    """ln h(g) for g given as ln g."""
    hi, lo = _as_pair(ln_g)
    if family.kind == _TSALLIS and not family.is_identity:
        out_hi, out_lo = _tsallis_squeeze_pair(1.0 - family.q, hi, lo)
        return LogValue(ln_x=out_hi, ln_x_lo=out_lo)
    return LogValue(ln_x=family.ln_squeeze(hi + lo))


def unsqueeze_log(family: SqueezeFamily, ln_h: "LogValue | float") -> LogValue:
    """ln H(x) for x given as ln x; excluded state when x is at or below
    the deformed-exponential cutoff."""
    hi, lo = _as_pair(ln_h)
    if family.kind == _TSALLIS and not family.is_identity:
        out = _tsallis_unsqueeze_pair(1.0 - family.q, hi, lo)
    else:
        out = family.ln_unsqueeze(hi + lo)
    return EXCLUDED if out == -math.inf else LogValue(ln_x=out)

