"""Reference derivatives for the tests, independent of the class table.

The package reads every derivative of phi from its class table; these are
the oracles it is checked against, at 50 digits:
- ``mp_row_class`` is the class of one spectrum row in mpmath, the one
  place the oracles form it;
- ``mp_phi`` is phi of a spectrum by direct summation in mpmath, and
  ``mp_derivative`` its partial derivatives by ``mpmath.diff``;
- ``direct_sums`` is phi, the means, the curvature and the row classes of a
  spectrum by direct summation, with the condition bound ``cond`` and the
  ``scale`` of each sum that the tests' error bounds are made of.
"""

import mpmath
import numpy as np


def mp_row_class(ln_g, xy, q):
    """(c, arg) of one row at the working precision, from ln g (a float) and
    x.y: the q-exponential c = [arg]_+^(1/u), arg = 1 + u (ln_q g - x.y),
    u = 1 - q, so c = 0 beyond the cutoff (arg <= 0); at q = 1, c = g exp(-x.y)
    and arg is None.  arg is formed as g^u - u x.y, which cancels nothing
    where 1 + u ln_q g would cancel (q - 1) ln g / ln 10 digits."""
    lg = mpmath.mpf(float(ln_g))
    if q == 1.0:
        return mpmath.exp(lg - xy), None
    u = 1 - mpmath.mpf(q)
    arg = mpmath.exp(u * lg) - u * xy
    return (arg ** (1 / u) if arg > 0 else mpmath.mpf(0)), arg


def mp_phi(x, ln_g, q):
    """phi(y) in mpmath over the rows (x, ln g), for mpmath.diff: -ln_q of the
    sum of the rows' ``mp_row_class``."""
    def phi(*y):
        u = 1 - mpmath.mpf(q)
        cs = []
        for xr, lg in zip(x, ln_g):
            xy = mpmath.fsum(mpmath.mpf(float(a)) * b for a, b in zip(xr, y))
            cs.append(mp_row_class(lg, xy, q)[0])
        T = mpmath.fsum(cs)
        return -mpmath.log(T) if q == 1.0 else -(T**u - 1) / u
    return phi


def mp_derivative(x, ln_g, y, q, orders):
    """A partial derivative of phi at y, of the given order in each variable
    (a tuple), by ``mpmath.diff`` of ``mp_phi`` at 50 digits, as a float."""
    with mpmath.workdps(50):
        return float(mpmath.diff(mp_phi(x, ln_g, q), [mpmath.mpf(float(v)) for v in y], tuple(orders)))


def direct_sums(x, ln_g, y, q):
    """phi, the means and the curvature by direct summation at 50 digits.

    Rows are the ``mp_row_class`` c, T = sum c and P = c/T.  Then
    phi = -ln_q T, <X> = sum P^q X and
    d2 phi/dy dy = q T^(q-1) (<X><X>' - sum P^(2q-1) X X').
    Also returned: ``scale``, the same curvature sum taken over absolute
    values, ``cond``, a bound on the relative error of the row classes
    per unit rounding of the inputs (max over rows of (|ln h g| + |x.y| +
    1/|u|)/|1 + u (ln h g - x.y)|), and ``c`` and ``P``, the row classes and
    probabilities as 50-digit values in row order, 0 on rows beyond the cutoff."""
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        qm = mpf(q)
        u = 1 - qm
        ys = [mpf(float(v)) for v in y]
        cs, xs, cond, row_c = [], [], mpf(1), []
        for xr, lg in zip(x, ln_g):
            xy = mpmath.fsum(mpf(float(a)) * b for a, b in zip(xr, ys))
            c, arg = mp_row_class(lg, xy, q)
            if arg is None:
                cond = max(cond, abs(mpf(float(lg))) + abs(xy) + 1)
            else:
                ln_h = (arg - 1) / u + xy  # ln_q g, read back from the bracket
                cond = max(cond, (abs(ln_h) + abs(xy) + 1 / abs(u)) / abs(arg) if arg else mpmath.inf)
            row_c.append(c)
            if c == 0:
                continue
            cs.append(c)
            xs.append([mpf(float(a)) for a in xr])
        if not cs:
            return None
        T = mpmath.fsum(cs)
        P = [c / T for c in cs]
        phi = -mpmath.log(T) if q == 1.0 else -(T**u - 1) / u
        k = len(ys)
        mean = [mpmath.fsum(p**qm * xr[i] for p, xr in zip(P, xs)) for i in range(k)]
        f = qm * T ** (qm - 1)

        def second(i, j, fn):
            return mpmath.fsum(fn(p ** (2 * qm - 1) * xr[i] * xr[j]) for p, xr in zip(P, xs))

        H = [[f * (mean[i] * mean[j] - second(i, j, lambda v: v)) for j in range(k)] for i in range(k)]
        scale = [[f * (abs(mean[i] * mean[j]) + second(i, j, abs)) for j in range(k)] for i in range(k)]
        abs_mean = [mpmath.fsum(p**qm * abs(xr[i]) for p, xr in zip(P, xs)) for i in range(k)]
        return {
            "phi": float(phi), "mean": np.array(mean, dtype=float),
            "H": np.array(H, dtype=float), "scale": np.array(scale, dtype=float),
            "abs_mean": np.array(abs_mean, dtype=float), "T_u": float(T**u),
            "cond": float(cond), "c": row_c, "P": [c / T for c in row_c],
        }
