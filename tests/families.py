"""The power law and the paper's identities, written once for the tests
rather than read from sqzstat:
- ``deformed_log`` is the power law's ln h, and ``ratio_dataset`` the
  thermometer ratios d(ln h)/d(ln g) = g**(1 - q) that a system of that
  family reads against an undeformed reference;
- ``entropy_from_probabilities`` is the entropy of a class table's
  configuration probabilities, which must equal the engine's J;
- ``combine_independent`` is the product spectrum of two independent systems;
- ``detailed_balance_residual`` measures how far a kinetic state is from the
  deformed detailed balance that makes it stationary.
"""

import math

import numpy as np

from sqzstat import DegeneracySpectrum
from sqzstat.engine import _logsumexp
from sqzstat.inference import EquilibriumDataset


def deformed_log(g, q):
    """ln h(g) = (g**(1 - q) - 1) / (1 - q) for g > 0, and ln g at q = 1."""
    return math.log(g) if q == 1.0 else (g ** (1.0 - q) - 1.0) / (1.0 - q)


def ratio_dataset(q, ln_g_max, n):
    """Noiseless ratios g**(1 - q) on n evenly spaced ln g from 0 to ln_g_max."""
    x = np.linspace(0.0, ln_g_max, n)
    return EquilibriumDataset(ln_g=x, ratio=np.exp((1.0 - q) * x))


def entropy_from_probabilities(table):
    """Entropy of a ``ClassTable``'s configuration probabilities p = c / (T g), each row
    contributing g identical terms: Gibbs-Shannon -sum p ln p at q = 1, else
    (sum p**q - 1) / (1 - q), q the table's.  ln p = ln c - ln T - ln g is taken in log
    domain, so a row whose macro probability underflows keeps its g p**q (q < 1, huge g)."""
    live, q = ~table.excluded, table.family.q
    lng = table.spectrum.ln_g[live]
    ln_p = table.ln_row_class[live] - table.ln_total - lng
    if q == 1.0:
        return float(-np.sum(np.exp(lng + ln_p) * ln_p))  # g p = the macro probability
    return float(math.expm1(_logsumexp(lng + q * ln_p)) / (1.0 - q))


def combine_independent(a, b):
    """Product spectrum of two independent systems: every pair of rows, x side
    by side under the names "A.<name>" and "B.<name>", ln g the sum."""
    names = tuple("A." + n for n in a.variable_names) + tuple("B." + n for n in b.variable_names)
    x = np.hstack([np.repeat(a.x, b.n_rows, axis=0), np.tile(b.x, (a.n_rows, 1))])
    return DegeneracySpectrum(names, x, np.repeat(a.ln_g, b.n_rows) + np.tile(b.ln_g, a.n_rows))


def detailed_balance_residual(state, net, family):
    """max over the network's quadruples (i, j | k, l) of
    |ln h(F_i) + ln h(F_j) - ln h(F_k) - ln h(F_l)|, 0 on a network with none."""
    with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf; ln h may overflow to +-inf
        ln_h = family.ln_squeeze(np.log(state.F))[net.quadruples]
    return float(np.max(np.abs(ln_h[:, 0] + ln_h[:, 1] - ln_h[:, 2] - ln_h[:, 3]), initial=0.0))
