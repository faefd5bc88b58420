"""Custom squeeze families shared by the tests, each written once.

A custom family is three log-domain hooks: ln h and ln l as functions of
ln g, and ln H as a function of ln x, where l = d(ln h)/dx.  Each
``*_HOOKS`` tuple is in ``SqueezeFamily.custom``'s argument order, so a
test can wrap or swap one hook.  The power law is also written here in
closed form, rather than read from sqzstat: ``deformed_log`` is its ln h,
and ``ratio_dataset`` the thermometer ratios d(ln h)/d(ln g) = g**(1 - q)
that a system of that family reads against an undeformed reference.
"""

import math

import numpy as np

from sqzstat import SqueezeFamily
from sqzstat.inference import EquilibriumDataset

# h(x) = x**2: ln h = 2 ln x, ln H = ln x / 2, l = 2/x
SQUARE_LAW_HOOKS = (lambda v: 2.0 * v, lambda w: 0.5 * w, lambda v: math.log(2.0) - v)


def square_law():
    return SqueezeFamily.custom(*SQUARE_LAW_HOOKS)


def quadratic():
    """h(x) = x + x**2, whose log-slope elasticity varies with x: l = (1 + 2x)/(x + x**2)."""
    return SqueezeFamily.custom(
        lambda v: v + math.log1p(math.exp(v)),
        lambda w: math.log(2.0) + w - math.log1p(math.sqrt(1.0 + 4.0 * math.exp(w))),
        lambda v: math.log1p(2.0 * math.exp(v)) - v - math.log1p(math.exp(v)),
    )


def power_law(q):
    """The power law of index q != 1 as custom hooks; ln H reads NaN past the cutoff, as a hook may."""
    u = 1.0 - q

    def ln_H(w):
        t = u * w
        return math.log1p(t) / u if t > -1.0 else math.nan

    return SqueezeFamily.custom(lambda v: math.expm1(u * v) / u, ln_H, lambda v: -q * v)


def deformed_log(g, q):
    """ln h(g) = (g**(1 - q) - 1) / (1 - q) for g > 0, and ln g at q = 1."""
    return math.log(g) if q == 1.0 else (g ** (1.0 - q) - 1.0) / (1.0 - q)


def ratio_dataset(q, ln_g_max, n):
    """Noiseless ratios g**(1 - q) on n evenly spaced ln g from 0 to ln_g_max."""
    x = np.linspace(0.0, ln_g_max, n)
    return EquilibriumDataset(ln_g=x, ratio=np.exp((1.0 - q) * x))
