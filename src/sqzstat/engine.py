"""Ensemble engine: characteristic classes, probabilities and means.

The engine turns a microcanonical degeneracy table into the squeezed
characteristic class of an ensemble.  Per subclass (row) the pipeline is

    ln u   = ln h(g_row) - sum_i y_i X_i,row
    ln c   = ln H(exp(ln u))          (excluded rows get the cutoff flag)
    total  = log-sum-exp over live rows

and the dimensionless potential is phi = -ln h(total).  The identity
family collapses every step, recovering the ordinary weighted sum of
degeneracies.  All reductions are ordered (max-shift log-sum-exp over
row order), so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import struct
import sys
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateEnsembleError, ModelValidationError, SqueezeDomainError
from .squeeze import SqueezeFamily
from .thermo import EnvironmentSplit, ThermoPoint

__all__ = [
    "DegeneracySpectrum",
    "EnsembleSpec",
    "ClassTable",
    "ProbabilityTable",
    "ThermoReport",
    "characteristic_class",
    "phi_and_entropies",
    "probabilities",
    "observed_mean",
    "phi_surface_from_spectrum",
    "report_for",
]

_ROW_MATCH_ATOL = 1e-9
_ROW_MATCH_RTOL = 1e-9
_LN_MAX = math.log(sys.float_info.max)  # the largest x whose math.exp(x) is finite


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a), max-shifted with the ties to the max counted apart.

    With top = max(a), m entries equal to top and s the sum of
    exp(a - top) over the others divided by m, the result is
    log1p(s) + ln m + top (Blanchard, Higham & Higham, IMA J. Numer.
    Anal. 41, 2021).  Empty input gives -inf; an infinite or NaN top is
    returned as is.  Bit-identical to scipy.special.logsumexp on 1-D
    float input: the other entries are summed in place, in row order.
    Reductions are ufunc calls; np.log takes m as a float, faster than an int."""
    if a.size == 0:
        return -math.inf
    top = np.maximum.reduce(a)
    if not math.isfinite(top):
        return float(top)
    at_top = a == top
    m = np.count_nonzero(at_top)
    e = np.exp(a - top)
    e[at_top] = 0.0
    return float(np.log1p(np.add.reduce(e) / m) + np.log(float(m)) + top)


@dataclass(frozen=True, eq=False)
class DegeneracySpectrum:
    """Finite table of microcanonical subclasses.

    ``variable_names`` orders the exchanged extensive variables; row r
    has values ``x[r, :]`` and log-degeneracy ``ln_g[r]``; x is column-major, the layout whose
    ``x @ y`` the class pass rounds as it always has.  ``_last`` holds the last class table
    taken over it weakly, because a table refers to its spectrum: a freed report frees its
    table without waiting for the cycle collector; ``restrict`` reads its rows.  Copies drop it.
    """

    variable_names: tuple[str, ...]
    x: np.ndarray
    ln_g: np.ndarray
    _last: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float, order="F")
        if x.ndim == 1:
            x = x[:, None]
        ln_g = np.asarray(self.ln_g, dtype=float)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "ln_g", ln_g)
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ModelValidationError(f"variable names must be distinct, got {self.variable_names}")
        if x.shape[0] == 0:
            raise ModelValidationError("spectrum needs at least one row")
        if x.ndim != 2 or x.shape[1] != len(self.variable_names):
            raise ModelValidationError(
                f"row values of shape {x.shape} for {len(self.variable_names)} variable names"
            )
        if ln_g.shape != (x.shape[0],):
            raise ModelValidationError("ln_g length must match the number of rows")
        if not np.all(np.isfinite(ln_g)):
            raise ModelValidationError("all ln_g must be finite")
        if not np.all(np.isfinite(x)):
            raise ModelValidationError("all row values must be finite")
        # equal rows (0.0 and -0.0 compare equal) are neighbours once sorted
        s = x[np.lexsort(x.T)] if x.shape[1] else x
        if (s[1:] == s[:-1]).all(axis=1).any():
            raise ModelValidationError("rows must have distinct variable vectors")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_last"}

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @cached_property
    def g(self) -> np.ndarray:
        """Degeneracy per row, np.exp(ln_g), inf beyond the float range.

        Degeneracies are integer counts; log-gamma pipelines and exp return
        them with ~1 ulp noise, so a g below 2**53 within 1e-9 of a positive
        integer is that integer (uniform microcanonical distributions come
        out as literal 1/Omega).  Computed on first use."""
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.exp(self.ln_g)
            near = np.round(g)
            snap = (g < 2.0**53) & (near > 0) & (np.abs(g - near) <= 1e-9 * near)
        return np.where(snap, near, g)

    @cached_property
    def _g_divides(self) -> np.ndarray:
        """Rows whose g is a finite positive float, so a quotient by it is a plain division."""
        return np.isfinite(self.g) & (self.g > 0)

    @cached_property
    def _g_divides_units(self) -> bool:
        """Every g is a finite float of at least e^-709 > 1/DBL_MAX, so x / g of any x <= 1 is finite."""
        return bool(np.isfinite(self.g).all() and self.ln_g.min() > -709.0)

    @cached_property
    def _max_abs_ln_g(self) -> float:  # bounds the squeezed ln h(g) in ``characteristic_class``
        return float(np.maximum.reduce(np.abs(self.ln_g)))

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.variable_names.index(name)
        except ValueError:
            raise ModelValidationError(f"no variable {name!r} in spectrum") from None
        return self.x[:, j]

    def restrict(self, fixed: Mapping[str, float]) -> "DegeneracySpectrum":
        """Drop pinned columns, keeping only rows that match the values: the spectrum of the last
        class table taken over this one (``_last``) while it lives, if it pinned equal values."""
        if not fixed:
            return self
        table = self._last[1] and self._last[1]()
        if table is not None and table.env.fixed_extensive == fixed:
            return table.spectrum
        mask = np.ones(self.n_rows, dtype=bool)
        for name, value in fixed.items():
            mask &= np.isclose(self.column(name), value, rtol=_ROW_MATCH_RTOL, atol=_ROW_MATCH_ATOL)
        if not mask.any():
            raise ModelValidationError(f"no spectrum rows match fixed values {dict(fixed)!r}")
        keep = [n for n in self.variable_names if n not in fixed]
        idx = [self.variable_names.index(n) for n in keep]
        return DegeneracySpectrum(
            variable_names=tuple(keep),
            x=self.x[mask][:, idx] if keep else np.zeros((int(mask.sum()), 0)),
            ln_g=self.ln_g[mask],
        )


@dataclass(frozen=True)
class EnsembleSpec:
    """Environment values: which variables are exchanged at fixed
    intensive value (y) and which are pinned extensively (X)."""

    fixed_intensive: Mapping[str, float] = field(default_factory=dict)
    fixed_extensive: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "fixed_intensive", dict(self.fixed_intensive))
        object.__setattr__(self, "fixed_extensive", dict(self.fixed_extensive))
        for name, value in {**self.fixed_intensive, **self.fixed_extensive}.items():
            if not math.isfinite(value):
                raise ModelValidationError(f"environment value {name}={value!r} is not finite")
        overlap = set(self.fixed_intensive) & set(self.fixed_extensive)
        if overlap:
            raise ModelValidationError(f"variables in both environment sets: {sorted(overlap)}")

    @cached_property
    def split(self) -> EnvironmentSplit:
        return EnvironmentSplit(
            fixed_extensive=tuple(self.fixed_extensive),
            fixed_intensive=tuple(self.fixed_intensive),
        )

    def values(self) -> dict[str, float]:
        return {**self.fixed_extensive, **self.fixed_intensive}


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Per-subclass squeezed classes for one ensemble evaluation.

    Rows follow the restricted spectrum.  ``ln_row_class`` is ln c, -inf on excluded rows;
    ``ln_total`` is ln T, T = sum c over the surviving rows.  With P = c/T, ``phi`` = -ln_q T,
    ``means`` holds <X_j> = d phi/dy_j = sum P^q X_j (the plain average at q = 1) and
    ``second_sums`` holds S_jk = -q T^(q-1) sum P^(2q-1) X_j X_k, in ``spectrum.variable_names``
    order: floats the class pass forms from the rows it holds."""

    spectrum: DegeneracySpectrum
    env: EnsembleSpec
    family: SqueezeFamily
    ln_row_class: np.ndarray
    excluded: np.ndarray
    ln_total: float
    phi: float
    means: tuple[float, ...]
    second_sums: tuple[tuple[float, ...], ...]

    @property
    def n_rows(self) -> int:
        return self.spectrum.n_rows

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Normalized macro (per subclass) and configuration probabilities;
    ``excluded`` is the class table's own array."""

    macro_probs: np.ndarray
    config_probs: np.ndarray
    excluded: np.ndarray


@dataclass(frozen=True, eq=False)
class ThermoReport:
    """A thermodynamic point plus the per-subclass table behind it."""

    point: ThermoPoint
    table: ClassTable

    def to_json_dict(self) -> dict:
        out = self.point.to_json_dict()
        out["environment"] = self.table.env.values()
        out["squeeze"] = _squeeze_to_json(self.table.family)
        out["excluded_rows"] = int(self.table.n_excluded)
        return out

    def columns(self) -> dict[str, np.ndarray]:
        """The per-row table as {column name: array}, in CSV order:
        ``x_<name>`` per exchanged variable, ``ln_g``, ``ln_class``,
        ``macro_prob``, ``config_prob``, ``boltzmann_factor`` and the
        boolean ``excluded``.  The generalized Boltzmann factor is a row's
        squeezed class over its bare degeneracy, c/g: exp(-sum y X) for
        the identity family, 0 on excluded rows."""
        t, s = self.table, self.table.spectrum
        probs = probabilities(t)
        out = {f"x_{n}": s.x[:, j] for j, n in enumerate(s.variable_names)}
        out.update(ln_g=s.ln_g, ln_class=t.ln_row_class, macro_prob=probs.macro_probs,
                   config_prob=probs.config_probs,
                   boltzmann_factor=_per_configuration(t.ln_row_class, s)[1], excluded=t.excluded)
        return out

    def rows(self) -> list[dict]:
        """``columns()`` as one dict per row, with Python float and bool
        cells.  Kept for callers that read cells by row and name, such as
        the benchmark's large-table checks; on large tables the dicts cost
        far more than the class pass, so the CLI writes ``columns()``."""
        cols = self.columns()
        return [dict(zip(cols, cells)) for cells in zip(*(c.tolist() for c in cols.values()))]


def _ln_weights(ln_c: np.ndarray, q: float, ln_total: float) -> np.ndarray:
    """ln w of live classes ln c, w = P^q the weight in <X> = sum w X; -inf (w = 0) on overflow."""
    return q * ln_c - q * ln_total


def _weighted_sums(w: np.ndarray, columns, family: SqueezeFamily) -> tuple[float, ...]:
    """sum w v for each column v of live rows (np.sum's reduction, unwrapped), under the caller's
    errstate; a sum beyond the float range raises SqueezeDomainError."""
    sums = tuple(float(np.add.reduce(w * v)) for v in columns)
    if not all(map(math.isfinite, sums)):
        raise SqueezeDomainError(f"an observed mean exceeds the float range at {family.label()}")
    return sums


def characteristic_class(
    spectrum: DegeneracySpectrum, env: EnsembleSpec, family: SqueezeFamily
) -> ClassTable:
    """Squeeze-and-rearrange pass producing the per-row class table."""
    working = spectrum.restrict(env.fixed_extensive)  # its columns are the unpinned variables
    if env.fixed_intensive.keys() != set(working.variable_names):
        raise ModelValidationError(f"exchanged names {sorted(env.fixed_intensive)} are not the "
                                   f"unpinned spectrum variables {sorted(working.variable_names)}")
    y = np.array([env.fixed_intensive[n] for n in working.variable_names])
    q, u = family.q, abs(1.0 - family.q)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below, or by curvature for the second sums
        ln_h_g = family.ln_squeeze(working.ln_g)
        # |ln h(g)| <= exp(u max|ln g|) / min(u, 1), the exponent alone overflowing at u >= 1:
        # it can overflow only where this bound passes e^709
        if u and u * working._max_abs_ln_g - math.log(min(u, 1.0)) >= 709.0 and not np.isfinite(ln_h_g).all():
            raise SqueezeDomainError(
                "squeezed log-degeneracy exceeds the float range "
                f"(largest ln g = {float(working.ln_g.max()):g} at {family.label()})"
            )
        ln_weight = ln_h_g - (working.x @ y if y.size else 0.0)
        ln_row_class, excluded = family.ln_unsqueeze(ln_weight)
        n_excluded = np.count_nonzero(excluded)
        if n_excluded == excluded.size:
            raise DegenerateEnsembleError("every subclass is excluded by the cutoff")
        ln_c, xt = ln_row_class, working.x.T  # xt holds a column per row, the layout of x @ y
        if n_excluded:
            ln_c, xt = ln_c[~excluded], xt.compress(~excluded, axis=1)
        ln_total = _logsumexp(ln_c)
        phi = -float(family.ln_squeeze(ln_total))
        if not math.isfinite(phi):
            raise SqueezeDomainError(
                "squeezed class total exceeds the float range "
                f"(ln total = {ln_total:g} at {family.label()})"
            )
        ln_w = _ln_weights(ln_c, q, ln_total)
        means = _weighted_sums(np.exp(ln_w), xt, family)
        ln_w *= 2.0  # b = -q T^(q-1) P^(2q-1) = -q w^2 / c * T^q, in ln w's buffer: no per-row temporary
        ln_w -= ln_c
        b = np.exp(np.add(ln_w, q * ln_total, out=ln_w), out=ln_w)
        b *= -q
        b[ln_c == -np.inf] = 0.0  # a live c = 0 adds 0
        second_sums = tuple(map(tuple, ((xt * b) @ xt.T).tolist()))
    return ClassTable(working, env, family, ln_row_class, excluded, ln_total, phi, means, second_sums)


def observed_mean(
    spectrum: DegeneracySpectrum,
    env: EnsembleSpec,
    family: SqueezeFamily,
    observable: "str | np.ndarray | Sequence[float]",
) -> float:
    """Weighted mean of a per-row observable, sum P^q v over the live rows (P = c/T,
    ``ClassTable``): for a spectrum column, the derivative of phi with respect to its
    conjugate intensive variable.  For the identity family (q = 1) the weights are the
    macro probabilities, the plain ensemble average.
    """
    table = _class_table(spectrum, env.fixed_intensive, env.fixed_extensive, family, env)
    if isinstance(observable, str):
        values = table.spectrum.column(observable)
    else:
        values = np.asarray(observable, dtype=float)
        if values.shape != (table.n_rows,):
            raise ModelValidationError(
                f"observable has {values.shape} values for {table.n_rows} rows"
            )
        if not np.all(np.isfinite(values)):
            raise ModelValidationError("all observable values must be finite")
    live = ~table.excluded
    with np.errstate(over="ignore", invalid="ignore"):  # a mean beyond the float range raises
        ln_w = _ln_weights(table.ln_row_class[live], table.family.q, table.ln_total)
        return _weighted_sums(np.exp(ln_w), [values[live]], table.family)[0]


def phi_and_entropies(table: ClassTable) -> ThermoPoint:
    """Potential, entropy and subdivision entropy for one class table.

    The entropy is the Legendre combination J = sum_i y_i <X_i> - phi,
    which coincides with ln h(total degeneracy) for isolated systems.
    The subdivision entropy theta is the fully-open potential with the
    opposite sign; it is exact (-phi) when no extensive variable is
    pinned and reported as None otherwise (the open second pass would
    need conjugates of the pinned variables, which a bare spectrum does
    not determine).
    """
    env = table.env
    phi = table.phi
    observed = dict(zip(table.spectrum.variable_names, table.means))
    j_val = -phi
    for name, mean in observed.items():
        j_val += env.fixed_intensive[name] * mean
    theta = -phi if not env.fixed_extensive else None
    return ThermoPoint(phi=phi, entropy_J=j_val, entropy_theta=theta, observed=observed)


def probabilities(table: ClassTable) -> ProbabilityTable:
    """Macro and per-configuration probabilities from a class table.

    Degeneracies that are exactly representable integers are divided out
    exactly, so uniform microcanonical distributions come out as literal
    1/Omega.  Excluded rows read ln c = -inf, so 0; macro is finite, so g alone decides the quotient.
    """
    macro, config = _per_configuration(table.ln_row_class - table.ln_total, table.spectrum, unit=True)
    return ProbabilityTable(macro_probs=macro, config_probs=config, excluded=table.excluded)


def _per_configuration(ln_num: np.ndarray, spectrum: DegeneracySpectrum,
                       unit: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(num, num / g) per row, num = np.exp(ln_num) and g the snapped degeneracy counts
    (``DegeneracySpectrum.g``): np.divide where num and g are finite and g > 0, so the
    quotients keep their bits, and np.exp(ln_num - ln g), the log-domain form, only elsewhere.
    A ``unit`` num is at most 1 (a probability), so where every g is a float of at least e^-709
    (``_g_divides_units``) each quotient is a finite plain divide, taken with no errstate."""
    if unit and spectrum._g_divides_units:
        num = np.exp(ln_num)
        return num, num / spectrum.g
    with np.errstate(invalid="ignore", over="ignore"):  # a num or a quotient beyond the float range reads inf
        num = np.exp(ln_num)
        divides = np.isfinite(num) & spectrum._g_divides
        if divides.all():  # any built-in spectrum below the float range: a plain divide, cheaper
            return num, num / spectrum.g
        out = np.exp(ln_num - spectrum.ln_g, out=np.empty_like(num), where=~divides)
        return num, np.divide(num, spectrum.g, out=out, where=divides)


def _class_table(spectrum: DegeneracySpectrum, y: Mapping, X: Mapping, family: SqueezeFamily,
                 env: EnsembleSpec | None = None) -> ClassTable:
    """The one class-table lookup: the spectrum's last table while it lives if taken for the same
    y and X names in order and bit-equal q and values (0.0 != -0.0), else a new pass, over ``env``
    if the caller holds the EnsembleSpec of these y and X."""
    key = (tuple(y), tuple(X), struct.pack(f"{1 + len(y) + len(X)}d", family.q, *y.values(), *X.values()))
    last_key, ref = spectrum._last  # one read: the key and the table belong together
    table = ref() if last_key == key else None
    if table is None:
        table = characteristic_class(spectrum, EnsembleSpec(y, X) if env is None else env, family)
        object.__setattr__(spectrum, "_last", (key, weakref.ref(table)))
    return table


@dataclass(frozen=True, eq=False)
class SpectrumSurface:
    """Phi of a full {pair name: value} mapping over a fixed spectrum,
    smooth in the intensive values; pinned extensive values select rows,
    so only support points are meaningful.  Points are looked up with
    ``_class_table`` and the last table is held, so phi, ``gradient`` and
    ``curvature`` at one point share one pass if no other point comes between."""

    spectrum: DegeneracySpectrum
    env: EnsembleSpec
    family: SqueezeFamily
    _held: ClassTable | None = field(default=None, init=False, repr=False)

    def _table(self, values: Mapping[str, float]) -> ClassTable:
        try:
            y = {n: values[n] for n in self.env.fixed_intensive}
            X = {n: values[n] for n in self.env.fixed_extensive}
        except KeyError as exc:
            raise ModelValidationError(f"the point has no value for {exc.args[0]!r}") from None
        object.__setattr__(self, "_held", _class_table(self.spectrum, y, X, self.family))
        return self._held

    def __call__(self, values: Mapping[str, float]) -> float:
        return self._table(values).phi

    @staticmethod
    def _columns(table: ClassTable, names: Sequence[str]) -> list[int]:
        index = table.spectrum.variable_names
        try:
            return [index.index(n) for n in names]
        except ValueError:
            name = next(n for n in names if n not in index)
            raise ModelValidationError(f"no exchanged variable {name!r} in spectrum") from None

    def gradient(self, point: Mapping[str, float], names: Sequence[str]) -> dict[str, float]:
        """d phi/d y of exchanged names: the observed means."""
        table = self._table(point)
        return {n: table.means[j] for n, j in zip(names, self._columns(table, names))}

    def curvature(self, point: Mapping[str, float], names: Sequence[str]) -> tuple[float, np.ndarray]:
        """(phi, H), H = d2 phi/dy dy' = q T^(q-1) (<X><X>' - sum P^(2q-1) X X'), with T the
        class total, P = c/T the row's probability, and <X> and the second sum the table's
        ``means`` and ``second_sums`` (``ClassTable``).  Where a = q T^(q-1) alone is beyond the
        float range, or <X_i><X_j> alone underflows, a <X_i><X_j> is a sum of logs.  An entry is
        formed from its unordered pair of columns: H is symmetric to the bit in any order of names.
        An H beyond the float range raises SqueezeDomainError."""
        table, q = self._table(point), self.family.q
        cols = self._columns(table, names)
        ln_t = q * table.ln_total - table.ln_total  # ln T^(q-1)
        a = q * math.exp(ln_t) if ln_t <= _LN_MAX else math.inf
        m, s = table.means, table.second_sums
        H = [_a_product(a, q, ln_t, m[i], m[j]) + (s[i][j] if i <= j else s[j][i]) for i in cols for j in cols]
        if not all(map(math.isfinite, H)):
            raise SqueezeDomainError(f"curvature of phi exceeds the float range at {self.family.label()}")
        return table.phi, np.array(H).reshape(len(cols), len(cols))


def _a_product(a: float, q: float, ln_t: float, u: float, v: float) -> float:
    """a u v, a = q e^ln_t, for finite q, u and v: a (u v) where a is finite and u v is not below
    DBL_MIN for nonzero u and v, else a sum of logs, inf or 0 only where a u v itself is."""
    uv = u * v
    if math.isfinite(a) and (abs(uv) >= sys.float_info.min or not (u and v)):
        return a * uv
    if not (q and u and v):
        return q * u * v  # a signed zero
    ln_u, ln_v = sorted((math.log(abs(u)), math.log(abs(v))))  # one order for (u, v) and (v, u)
    ln = math.log(abs(q)) + ln_t + ln_u + ln_v
    return math.copysign(math.exp(ln) if ln <= _LN_MAX else math.inf, q * u * v)


phi_surface_from_spectrum = SpectrumSurface  # the public constructor name


def report_for(
    spectrum: DegeneracySpectrum, env: EnsembleSpec, family: SqueezeFamily
) -> ThermoReport:
    """One-stop evaluation used by the CLI.  While the report lives, a surface at
    the same point reads its class table (``_class_table``), with no second pass."""
    table = _class_table(spectrum, env.fixed_intensive, env.fixed_extensive, family, env)
    return ThermoReport(point=phi_and_entropies(table), table=table)


# ---------------------------------------------------------------------------
# the model-file format: spectrum, environment and squeeze fragment, read and written only here

def _number(value, field: str, error: type = ModelValidationError) -> float:
    """float(value) if it is a JSON number, an int or a float, never a bool or a str: the one number
    rule of model documents and model parameters; else ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{field} takes numbers, an int or a float, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise error(f"{field} takes numbers in the float range, got an integer beyond it") from None


def _numbers(value, field: str):
    """A JSON number or a list of them, nested to any depth, in floats (a row's x)."""
    return [_numbers(v, field) for v in value] if isinstance(value, list) else _number(value, field)


def _squeeze_to_json(family: SqueezeFamily) -> dict:
    return {"family": "identity"} if family.is_identity else {"family": "tsallis", "q": family.q}


def _squeeze_from_json(cfg) -> SqueezeFamily:
    """The family of a {"family": ..., "q": ...} fragment, q with tsallis only; errors are SqueezeDomainError."""
    if not isinstance(cfg, dict):
        raise SqueezeDomainError(f"squeeze config must be an object, got {cfg!r}")
    name = cfg.get("family", "identity")
    if name not in ("identity", "tsallis"):
        raise SqueezeDomainError(f"unknown squeeze family {name!r}; choices: ['identity', 'tsallis']")
    if name == "identity":
        if "q" in cfg:
            raise SqueezeDomainError("'q' applies only to the tsallis squeeze family")
        return SqueezeFamily.identity()
    if "q" not in cfg:
        raise SqueezeDomainError("tsallis squeeze config requires 'q'")
    return SqueezeFamily.tsallis(_number(cfg["q"], "tsallis 'q'", SqueezeDomainError))


def model_to_json_dict(
    spectrum: DegeneracySpectrum, env: EnsembleSpec, family: SqueezeFamily
) -> dict:
    variables = [{"name": n, "kind": "exchanged" if n in env.fixed_intensive else "fixed"}
                 for n in spectrum.variable_names]
    rows = [
        {"x": [float(v) for v in spectrum.x[r]], "ln_g": float(spectrum.ln_g[r])}
        for r in range(spectrum.n_rows)
    ]
    return {
        "variables": variables,
        "rows": rows,
        "environment": {"y": dict(env.fixed_intensive), "X": dict(env.fixed_extensive)},
        "squeeze": _squeeze_to_json(family),
    }


def model_from_json_dict(doc: dict) -> tuple[DegeneracySpectrum, EnsembleSpec, SqueezeFamily]:
    try:
        names = tuple(v["name"] for v in doc["variables"])
        kinds = {v["name"]: v["kind"] for v in doc["variables"]}
        x = np.array([_numbers(row["x"], "x") for row in doc["rows"]], dtype=float)
        ln_g = np.array([_number(row["ln_g"], "ln_g") for row in doc["rows"]], dtype=float)
        envdoc = doc.get("environment", {})
        y = {k: _number(v, "y") for k, v in envdoc.get("y", {}).items()}
        X = {k: _number(v, "X") for k, v in envdoc.get("X", {}).items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelValidationError(f"malformed model document: {exc}") from exc
    for n in names:
        if kinds[n] not in ("exchanged", "fixed"):
            raise ModelValidationError(f"variable {n!r} has unknown kind {kinds[n]!r}")
        if kinds[n] == "exchanged" and n not in y:
            raise ModelValidationError(f"exchanged variable {n!r} missing a y value")
        if kinds[n] == "fixed" and n not in X:
            raise ModelValidationError(f"fixed variable {n!r} missing an X value")
    spectrum = DegeneracySpectrum(variable_names=names, x=x, ln_g=ln_g)
    env = EnsembleSpec(fixed_intensive=y, fixed_extensive=X)
    return spectrum, env, _squeeze_from_json(doc.get("squeeze", {"family": "identity"}))
