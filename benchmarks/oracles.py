"""Independent reference values for the benchmark's output checks.

Only the standard library and numpy: closed forms for the built-in
models under the identity family, direct linear-domain q-exponential
summation for the power-law family, and the closed-form first and second
derivatives of those sums for means and curvatures.  None of this shares
code with the package under test.
"""

from __future__ import annotations

import math

import numpy as np


def lse(a: np.ndarray) -> float:
    """Max-shifted log-sum-exp."""
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))


def _shares(x: np.ndarray, ln_g: np.ndarray, y: np.ndarray, q: float):
    """(P, total, live): each row's share of the characteristic class.

    Identity: P = g exp(-x.y) / sum, as a log-sum-exp (total is the log
    of the sum).  Power law with u = 1 - q: each row's class is the
    q-exponential c = [1 + u (ln_q g - x.y)]_+^(1/u), with
    ln_q g = (g^u - 1)/u, summed in linear domain (total = sum c)."""
    xy = x @ y if x.shape[1] else np.zeros(len(ln_g))
    if q == 1.0:
        a = ln_g - xy
        total = lse(a)
        return np.exp(a - total), total, np.ones(len(a), dtype=bool)
    u = 1.0 - q
    arg = 1.0 + u * ((np.exp(u * ln_g) - 1.0) / u - xy)
    live = arg > 0.0
    c = np.zeros(len(arg))
    c[live] = arg[live] ** (1.0 / u)
    total = float(c.sum())
    return c / total, total, live


def phi_direct(x: np.ndarray, ln_g: np.ndarray, y: np.ndarray, q: float) -> float:
    """Potential -ln h(total) by direct summation over the rows."""
    _, total, _ = _shares(x, ln_g, y, q)
    if q == 1.0:
        return -total
    u = 1.0 - q
    return -(total**u - 1.0) / u


def ln_total_direct(x: np.ndarray, ln_g: np.ndarray, y: np.ndarray, q: float) -> float:
    """ln of the total characteristic class."""
    _, total, _ = _shares(x, ln_g, y, q)
    return total if q == 1.0 else math.log(total)


def macro_probs_direct(x: np.ndarray, ln_g: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    """Per-row share of the characteristic class, by direct summation."""
    return _shares(x, ln_g, y, q)[0]


def excluded_direct(x: np.ndarray, ln_g: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    """Rows at or below the q-exponential cutoff."""
    return ~_shares(x, ln_g, y, q)[2]


def mean_direct(x: np.ndarray, ln_g: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    """d phi / dy of the direct sum, in closed form: sum_r x_r P_r^q."""
    P, _, live = _shares(x, ln_g, y, q)
    return x[live].T @ P[live] ** q


def hessian_direct(x: np.ndarray, ln_g: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    """d2 phi / dy dy of the direct sum, in closed form:
    q T^(q-1) (m m' - sum_r x_r x_r' P_r^(2q-1)), with m the mean and T
    the total class (T^(q-1) = 1 for the identity)."""
    P, total, live = _shares(x, ln_g, y, q)
    xl, Pl = x[live], P[live]
    m = xl.T @ Pl**q
    S = (xl * (Pl ** (2.0 * q - 1.0))[:, None]).T @ xl
    factor = 1.0 if q == 1.0 else q * total ** (q - 1.0)
    return factor * (np.outer(m, m) - S)


def phi_closed_form(model: str, params: dict, y: dict) -> float:
    """Identity-family potential of a built-in model in closed form."""
    if model == "two_level":
        return -math.log1p(math.exp(-y["E"] * params["epsilon"]))
    if model == "spin_half_paramagnet":
        b = abs(y["M"])
        return -params["N"] * (b + math.log1p(math.exp(-2.0 * b)))
    if model == "lattice_gas":
        return -params["sites"] * math.log1p(math.exp(-y["N"]))
    if model == "einstein_solid":  # untruncated; valid when E_max is far out
        return params["N"] * math.log1p(-math.exp(-y["E"]))
    raise ValueError(f"no closed form for {model!r}")


def _ln_choose(n: float, k) -> np.ndarray:
    return np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in k])


def model_table(model: str, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """(x, ln g) of a built-in model, rebuilt with math.lgamma in the
    package's row order."""
    if model == "two_level":
        return np.array([[0.0], [float(params["epsilon"])]]), np.zeros(2)
    if model == "spin_half_paramagnet":
        n = int(params["N"])
        k = np.arange(n + 1, dtype=float)
        return (2.0 * k - n)[:, None], _ln_choose(n, k)
    if model == "einstein_solid":
        n, e_max = int(params["N"]), int(params["E_max"])
        m = np.arange(e_max + 1, dtype=float)
        ln_g = np.array([math.lgamma(j + n) - math.lgamma(j + 1) - math.lgamma(n) for j in m])
        return m[:, None], ln_g
    if model == "lattice_gas":
        s = int(params["sites"])
        k = np.arange(s + 1, dtype=float)
        return np.column_stack([np.zeros(s + 1), k]), _ln_choose(s, k)
    raise ValueError(f"unknown model {model!r}")


def close(a: float, b: float, rtol: float) -> bool:
    """|a - b| <= rtol * max(1, |b|)."""
    return abs(a - b) <= rtol * max(1.0, abs(b))


# -- kinetics -----------------------------------------------------------


def ln_h_linear(F: np.ndarray, q: float) -> np.ndarray:
    """ln h(F) on linear populations: ln F, or ln_q F = (F^u - 1)/u."""
    if q == 1.0:
        return np.log(F)
    u = 1.0 - q
    return (F**u - 1.0) / u


def detailed_balance(F: np.ndarray, quads: np.ndarray, q: float) -> float:
    """max over quadruples of |ln h(F_i) + ln h(F_j) - ln h(F_k) - ln h(F_l)|."""
    lh = ln_h_linear(F, q)
    res = lh[quads[:, 0]] + lh[quads[:, 1]] - lh[quads[:, 2]] - lh[quads[:, 3]]
    return float(np.max(np.abs(res))) if res.size else 0.0


def kinetic_trace_problems(rows, velocities: np.ndarray, F0: np.ndarray, F: np.ndarray) -> list:
    """Conservation of number, momentum and energy to 1e-9 relative, and an
    entropy that never decreases (beyond 1e-12 relative) between trace rows.

    ``rows`` are (t, S, number, energy, max|rhs|)."""
    problems = []
    v2 = (velocities**2).sum(axis=1)
    n0, e0 = float(F0.sum()), float(F0 @ v2)
    p0, p1 = F0 @ velocities, F @ velocities
    for t, _, n, e, _ in rows:
        if not close(n, n0, 1e-9) or not close(e, e0, 1e-9):
            problems.append(f"number/energy drift at t={t:g}: {n - n0:.3g}, {e - e0:.3g}")
            break
    if np.max(np.abs(p1 - p0)) > 1e-9 * max(1.0, n0):
        problems.append(f"momentum drift {np.max(np.abs(p1 - p0)):.3g}")
    for (t_a, s_a, *_), (t_b, s_b, *_) in zip(rows, rows[1:]):
        if s_b - s_a < -1e-12 * max(1.0, abs(s_a)):
            problems.append(f"entropy fell by {s_a - s_b:.3g} between t={t_a:g} and t={t_b:g}")
            break
    return problems
