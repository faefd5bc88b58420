"""Built-in degeneracy-spectrum generators.

All degeneracies are produced through log-gamma expressions, so the
tables stay overflow-free at any size; truncation cutoffs (E_max,
N_max) are explicit parameters.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable

import numpy as np

from .engine import DegeneracySpectrum
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


def _ln_choose(n: "float | np.ndarray", k: np.ndarray) -> np.ndarray:
    return _lgamma(n + 1.0) - _lgamma(k + 1.0) - _lgamma(n - k + 1.0)


def two_level(epsilon: float = 1.0) -> DegeneracySpectrum:
    """Single two-level system: E in {0, epsilon}, both nondegenerate."""
    if epsilon <= 0:
        raise ModelValidationError(f"epsilon must be positive, got {epsilon!r}")
    return DegeneracySpectrum(
        variable_names=("E",),
        x=np.array([[0.0], [float(epsilon)]]),
        ln_g=np.array([0.0, 0.0]),
    )


def spin_half_paramagnet(N: int) -> DegeneracySpectrum:
    """N spin-1/2 sites; magnetization M = 2k - N with binomial degeneracy."""
    N = int(N)
    if N < 1:
        raise ModelValidationError(f"N must be >= 1, got {N}")
    k = np.arange(N + 1, dtype=float)
    return DegeneracySpectrum(
        variable_names=("M",),
        x=(2.0 * k - N)[:, None],
        ln_g=_ln_choose(float(N), k),
    )


def einstein_solid(N: int, E_max: int = 100) -> DegeneracySpectrum:
    """N oscillators sharing m quanta, m = 0..E_max; g = C(m+N-1, m)."""
    N = int(N)
    E_max = int(E_max)
    if N < 1:
        raise ModelValidationError(f"N must be >= 1, got {N}")
    if E_max < 0:
        raise ModelValidationError(f"E_max must be >= 0, got {E_max}")
    m = np.arange(E_max + 1, dtype=float)
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
    if N_max is None:
        N_max = int(sites)
    N_max = int(N_max)
    if sites < N_max or N_max < 0:
        raise ModelValidationError(f"need sites >= N_max >= 0, got sites={sites!r}, N_max={N_max}")
    n = np.arange(N_max + 1, dtype=float)
    x = np.column_stack([np.zeros(N_max + 1), n])
    return DegeneracySpectrum(variable_names=("E", "N"), x=x, ln_g=_ln_choose(float(sites), n))


MODELS: dict[str, Callable[..., DegeneracySpectrum]] = {
    f.__name__: f for f in (two_level, spin_half_paramagnet, einstein_solid, lattice_gas)
}


def build_model(name: str, params: dict) -> DegeneracySpectrum:
    """Instantiate a named generator with {parameter: value} arguments.

    The parameter names and defaults are the builder's own signature."""
    if name not in MODELS:
        raise ModelValidationError(f"unknown model {name!r}; choices: {sorted(MODELS)}")
    signature = inspect.signature(MODELS[name]).parameters
    unknown = set(params) - set(signature)
    if unknown:
        raise ModelValidationError(f"model {name!r} does not take parameters {sorted(unknown)}")
    missing = {k for k, p in signature.items() if p.default is p.empty} - set(params)
    if missing:
        raise ModelValidationError(f"model {name!r} missing parameters {sorted(missing)}")
    kwargs = {}
    for key, val in params.items():
        if val is not None:
            val = float(val)
            if not math.isfinite(val):
                raise ModelValidationError(f"parameter {key}={val!r} must be finite")
            if key in ("N", "E_max", "N_max"):  # integer-like; they arrive as floats from the CLI
                ival = int(round(val))
                if abs(ival - val) > 1e-9:
                    raise ModelValidationError(f"parameter {key}={val!r} must be an integer")
                val = ival
        kwargs[key] = val
    return MODELS[name](**kwargs)
