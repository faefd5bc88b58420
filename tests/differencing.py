"""Reference derivatives for the tests, independent of the class table.

The package reads every derivative of phi from its class table; these are
the oracles it is checked against:
- ``mp_phi`` is phi of a spectrum by direct summation in mpmath, for
  ``mpmath.diff`` at 50 digits where phi has a cheap closed form;
- ``central_derivative`` is a central difference refined once by
  Richardson extrapolation, for functions given only as floats (the
  engine's means, surfaces parametric in a model size); ``conjugates``
  and ``hessian`` apply it to a surface over a {name: value} point.
"""

import mpmath
import numpy as np


def richardson(D, h):
    """One Richardson refinement of a difference quotient D (a float or an
    array) whose leading error is O(h^2): (4 D(h/2) - D(h)) / 3."""
    return (4.0 * D(h / 2) - D(h)) / 3.0


def central_derivative(f, x0, rel_step=1e-5):
    """Central difference at step h = rel_step * max(1, |x0|), refined by ``richardson``."""
    return richardson(lambda h: (f(x0 + h) - f(x0 - h)) / (2.0 * h), rel_step * max(1.0, abs(x0)))


def conjugates(surface, split, point):
    """Observed values of a split by ``central_derivative``: -dphi/dX for a
    pinned-extensive pair, +dphi/dy for a pinned-intensive one."""
    def partial(name):
        return central_derivative(lambda v: surface({**point, name: v}), point[name])

    return {name: -partial(name) if name in split.fixed_extensive else partial(name) for name in split.all_names}


def hessian(surface, point, names, rel_step=5e-4):
    """Second differences of the surface over ``names`` (a larger step than
    a gradient needs), refined by ``richardson``."""
    steps = [rel_step * max(1.0, abs(point[name])) for name in names]

    def at(deltas):
        return surface({**point, **{k: point[k] + d for k, d in deltas.items()}})

    f0 = at({})

    def second_differences(scale):
        H = np.empty((len(names), len(names)))
        for i, ni in enumerate(names):
            hi = steps[i] * scale
            H[i, i] = (at({ni: hi}) - 2.0 * f0 + at({ni: -hi})) / (hi * hi)
            for j, nj in enumerate(names[i + 1:], i + 1):
                hj = steps[j] * scale
                H[i, j] = H[j, i] = (
                    at({ni: hi, nj: hj}) - at({ni: hi, nj: -hj}) - at({ni: -hi, nj: hj}) + at({ni: -hi, nj: -hj})
                ) / (4.0 * hi * hj)
        return H

    return richardson(second_differences, 1.0)


def mp_phi(x, ln_g, q):
    """phi(y) in mpmath over the rows (x, ln g), for mpmath.diff: rows are the
    q-exponentials [1 + u (ln_q g - x.y)]_+^(1/u), u = 1 - q (g exp(-x.y) at
    q = 1), and phi = -ln_q of their sum."""
    def phi(*y):
        u = 1 - mpmath.mpf(q)
        cs = []
        for xr, lg in zip(x, ln_g):
            xy = mpmath.fsum(mpmath.mpf(float(a)) * b for a, b in zip(xr, y))
            if q == 1.0:
                cs.append(mpmath.exp(mpmath.mpf(float(lg)) - xy))
                continue
            arg = 1 + u * (mpmath.expm1(u * mpmath.mpf(float(lg))) / u - xy)
            if arg > 0:
                cs.append(arg ** (1 / u))
        T = mpmath.fsum(cs)
        return -mpmath.log(T) if q == 1.0 else -(T**u - 1) / u
    return phi
