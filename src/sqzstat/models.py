"""Built-in degeneracy-spectrum generators.

All degeneracies are produced through log-gamma expressions or running
sums of log1p, so the tables stay overflow-free at any size; truncation
cutoffs (E_max, N_max) are explicit parameters.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable

import numpy as np

from .engine import DegeneracySpectrum, _number
from .errors import ModelValidationError

__all__ = [
    "two_level",
    "spin_half_paramagnet",
    "einstein_solid",
    "lattice_gas",
    "MODELS",
    "build_model",
]


def _lgamma(v: "float | np.ndarray") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    try:
        out = np.fromiter(map(math.lgamma, v.ravel()), float, v.size)
    except OverflowError:
        raise ModelValidationError(
            f"log-degeneracy exceeds the float range (log-gamma of {float(v.max()):g})"
        ) from None
    return out.reshape(v.shape)


def _ln_gamma_shift(z: np.ndarray, a: float) -> np.ndarray:
    """ln Γ(z + a) - ln Γ(z) for z >= 193 and 0 <= a < 1 (0.0 at a = 0), by Stirling's series
    ln Γ(x) = (x - 1/2) ln x - x + ln(2π)/2 + 1/(12x) - 1/(360x³) with its large terms cancelled
    in closed form; the next term, 1/(1260x⁵), would move the result by less than 1e-16."""
    za = z + a
    tail = (1.0 / 12.0 - 1.0 / (360.0 * za * za)) / za - (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z
    return (z - 0.5) * np.log1p(a / z) + a * (np.log(za) - 1.0) + tail


def _ln_choose(n: "float | np.ndarray", k: np.ndarray) -> np.ndarray:
    """ln C(n, k) over the rows k = 0, 1, ..., K, at one n or at one a = n - k (n an array).

    The lgamma form cancels for k << n (0.03 off at n = 1e13, k = 1) and for n - k << n, so past
    n = 256 those rows (k <= n/4, n - k <= n/4) are running sums of log1p; a top row of one n
    = N + f is read from the row j = N - k, as C(n, k) / C(n, j) = Γ(j+1) Γ(k+1+f) / (Γ(j+1+f)
    Γ(k+1)).  The lgamma form is always formed: a log-gamma past the float range is an error."""
    ln_k_fact = _lgamma(k + 1.0)
    ln_rest = _lgamma(n - k + 1.0)
    out = _lgamma(n + 1.0) - ln_k_fact - ln_rest
    if np.max(n) <= 256.0:
        return out
    one_a = np.ndim(n) > 0
    base = n[0] if one_a else n  # a, as k[0] = 0
    low = int(np.count_nonzero(4.0 * k <= n))  # the first rows
    if low > 1:
        steps = np.cumsum(np.log1p((k[1:low] if one_a else -k[:low - 1]) / base))
        out[:low] = k[:low] * math.log(base) - ln_k_fact[:low] + np.concatenate(([0.0], steps))
    top = 4.0 * (n - k) <= n
    if one_a:
        out[top] = np.concatenate(([0.0], np.cumsum(np.log1p(base / k[1:]))))[top]
    else:  # at an integer n, f = 0 and the top rows are the first rows' bits
        whole = math.floor(n)
        j = (whole - k[top]).astype(int)
        out[top] = out[j] + (ln_k_fact[j] - ln_rest[top]) + _ln_gamma_shift(k[top] + 1.0, n - whole)
    return out


def _row_range(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n - 1; a count past numpy's index range (a ValueError there) is a MemoryError."""
    try:
        return np.arange(n, dtype=float)
    except ValueError as exc:  # "Maximum allowed size exceeded" or "array is too big"
        raise MemoryError(f"Unable to allocate {n:.3g} rows: {exc}") from None


def _param(value, key: str, count: bool = False) -> "float | int":
    """A builder's parameter under the number rule of model documents: a finite int or float,
    never a bool or a str, and an integer-like one for a count, which the CLI passes as a float."""
    val = _number(value, f"parameter {key}")
    if not math.isfinite(val):
        raise ModelValidationError(f"parameter {key}={val!r} must be finite")
    if not count:
        return val
    ival = int(round(val))
    if abs(ival - val) > 1e-9:
        raise ModelValidationError(f"parameter {key}={val!r} must be an integer")
    return ival


def two_level(epsilon: float = 1.0) -> DegeneracySpectrum:
    """Single two-level system: E in {0, epsilon}, both nondegenerate."""
    epsilon = _param(epsilon, "epsilon")
    if epsilon <= 0:
        raise ModelValidationError(f"epsilon must be positive, got {epsilon!r}")
    return DegeneracySpectrum(
        variable_names=("E",),
        x=np.array([[0.0], [epsilon]]),
        ln_g=np.array([0.0, 0.0]),
    )


def spin_half_paramagnet(N: int) -> DegeneracySpectrum:
    """N spin-1/2 sites; magnetization M = 2k - N with binomial degeneracy."""
    N = _param(N, "N", count=True)
    if N < 1:
        raise ModelValidationError(f"N must be >= 1, got {N}")
    k = _row_range(N + 1)
    return DegeneracySpectrum(
        variable_names=("M",),
        x=(2.0 * k - N)[:, None],
        ln_g=_ln_choose(float(N), k),
    )


def einstein_solid(N: int, E_max: int = 100) -> DegeneracySpectrum:
    """N oscillators sharing m quanta, m = 0..E_max; g = C(m+N-1, m)."""
    N = _param(N, "N", count=True)
    E_max = _param(E_max, "E_max", count=True)
    if N < 1:
        raise ModelValidationError(f"N must be >= 1, got {N}")
    if E_max < 0:
        raise ModelValidationError(f"E_max must be >= 0, got {E_max}")
    m = _row_range(E_max + 1)
    return DegeneracySpectrum(
        variable_names=("E",),
        x=m[:, None],
        ln_g=_ln_choose(m + N - 1.0, m),
    )


def lattice_gas(sites: float, N_max: int | None = None) -> DegeneracySpectrum:
    """Ideal lattice gas: N particles on `sites` sites, all energies zero.

    Exchanged pair variables are (E, N); E is identically 0 so the
    thermal parameter enters trivially and the chemical one drives the
    occupation distribution.  `sites` may be non-integer (the binomial
    is continued through log-gamma), which keeps the table smooth for
    parametric derivatives in the site count."""
    sites = _param(sites, "sites")
    N_max = int(sites) if N_max is None else _param(N_max, "N_max", count=True)
    if sites < N_max or N_max < 0:
        raise ModelValidationError(f"need sites >= N_max >= 0, got sites={sites!r}, N_max={N_max}")
    n = _row_range(N_max + 1)
    x = np.column_stack([np.zeros(N_max + 1), n])
    return DegeneracySpectrum(variable_names=("E", "N"), x=x, ln_g=_ln_choose(float(sites), n))


MODELS: dict[str, Callable[..., DegeneracySpectrum]] = {
    f.__name__: f for f in (two_level, spin_half_paramagnet, einstein_solid, lattice_gas)
}


def build_model(name: str, params: dict) -> DegeneracySpectrum:
    """Instantiate a named generator with {parameter: value} arguments.

    The parameter names and defaults are the builder's own signature, and the builder applies
    the number rule to each value."""
    if name not in MODELS:
        raise ModelValidationError(f"unknown model {name!r}; choices: {sorted(MODELS)}")
    signature = inspect.signature(MODELS[name]).parameters
    if unknown := set(params) - set(signature):
        raise ModelValidationError(f"model {name!r} does not take parameters {sorted(unknown)}")
    if missing := {k for k, p in signature.items() if p.default is p.empty} - set(params):
        raise ModelValidationError(f"model {name!r} missing parameters {sorted(missing)}")
    return MODELS[name](**params)
