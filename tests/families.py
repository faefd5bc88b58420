"""The power law written once in closed form for the tests, rather than
read from sqzstat: ``deformed_log`` is its ln h, and ``ratio_dataset`` the
thermometer ratios d(ln h)/d(ln g) = g**(1 - q) that a system of that
family reads against an undeformed reference.
"""

import math

import numpy as np

from sqzstat.inference import EquilibriumDataset


def deformed_log(g, q):
    """ln h(g) = (g**(1 - q) - 1) / (1 - q) for g > 0, and ln g at q = 1."""
    return math.log(g) if q == 1.0 else (g ** (1.0 - q) - 1.0) / (1.0 - q)


def ratio_dataset(q, ln_g_max, n):
    """Noiseless ratios g**(1 - q) on n evenly spaced ln g from 0 to ln_g_max."""
    x = np.linspace(0.0, ln_g_max, n)
    return EquilibriumDataset(ln_g=x, ratio=np.exp((1.0 - q) * x))
