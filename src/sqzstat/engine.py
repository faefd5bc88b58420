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
    "phi_of",
    "phi_and_entropies",
    "probabilities",
    "generalized_boltzmann_factor",
    "observed_mean",
    "entropy_from_probabilities",
    "combine_independent",
    "phi_surface_from_spectrum",
    "report_for",
]

_ROW_MATCH_ATOL = 1e-9
_ROW_MATCH_RTOL = 1e-9
_LN_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows above this


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


@dataclass(frozen=True)
class DegeneracySpectrum:
    """Finite table of microcanonical subclasses.

    ``variable_names`` orders the exchanged extensive variables; row r
    has values ``x[r, :]`` and log-degeneracy ``ln_g[r]``; x is column-major, the layout whose
    ``x @ y`` the class pass rounds as it always has.  ``_last`` holds the last class table
    taken over it weakly, because a table refers to its spectrum: a freed report frees its
    table without waiting for the cycle collector.  Copies drop it.
    """

    variable_names: tuple[str, ...]
    x: np.ndarray
    ln_g: np.ndarray
    _last: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float, order="F")
        if x.ndim == 1:
            x = x[:, None]
        ln_g = np.asarray(self.ln_g, dtype=float)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "ln_g", ln_g)
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
        """Degeneracy per row, exp(ln_g), inf beyond the float range.

        Degeneracies are integer counts; log-gamma pipelines return them
        with ~1 ulp noise, so a g below 2**53 within 1e-9 of a positive
        integer is that integer (uniform microcanonical distributions come
        out as literal 1/Omega).  Computed on first use."""
        g = _exp_rows(self.ln_g)
        with np.errstate(invalid="ignore"):
            near = np.round(g)
            snap = (g < 2.0**53) & (near > 0) & (np.abs(g - near) <= 1e-9 * near)
        return np.where(snap, near, g)

    @cached_property
    def _g_divides(self) -> np.ndarray:
        """Rows whose g is a finite positive float, so a quotient by it is a plain division."""
        return np.isfinite(self.g) & (self.g > 0)

    def ln_total_class(self) -> float:
        """ln of the unweighted class total (sum of all degeneracies)."""
        return _logsumexp(self.ln_g)

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.variable_names.index(name)
        except ValueError:
            raise ModelValidationError(f"no variable {name!r} in spectrum") from None
        return self.x[:, j]

    def restrict(self, fixed: Mapping[str, float]) -> "DegeneracySpectrum":
        """Drop pinned columns, keeping only rows that match the values."""
        if not fixed:
            return self
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
        out = dict(self.fixed_extensive)
        out.update(self.fixed_intensive)
        return out

    def validate_against(self, spectrum: DegeneracySpectrum) -> None:
        names = set(spectrum.variable_names)
        declared = set(self.fixed_intensive) | set(self.fixed_extensive)
        missing = names - declared
        if missing:
            raise ModelValidationError(f"no environment value for spectrum variables {sorted(missing)}")
        extra = declared - names
        if extra:
            raise ModelValidationError(f"environment names not in spectrum: {sorted(extra)}")


@dataclass(frozen=True)
class ClassTable:
    """Per-subclass squeezed classes for one ensemble evaluation.

    Rows follow the restricted spectrum.  ``ln_row_class`` is -inf on
    excluded rows; ``ln_total`` is the log characteristic class over the
    surviving rows.  ``means`` is its one cached value; mean weights are formed per call.
    """

    spectrum: DegeneracySpectrum
    env: EnsembleSpec
    family: SqueezeFamily
    ln_row_class: np.ndarray
    excluded: np.ndarray
    ln_total: float

    @property
    def exchanged_names(self) -> tuple[str, ...]:
        return self.spectrum.variable_names

    @property
    def x_exchanged(self) -> np.ndarray:
        return self.spectrum.x

    @property
    def ln_g(self) -> np.ndarray:
        return self.spectrum.ln_g

    @property
    def n_rows(self) -> int:
        return self.spectrum.n_rows

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())

    @property
    def phi(self) -> float:
        return -self.family.ln_squeeze(self.ln_total)

    @np.errstate(over="ignore")  # an ln w below -max float is -inf, a zero weight
    def mean_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(live mask, ln w), w = l(total)/l(c_row) on live rows, l = d(ln h)/dx; not cached."""
        live, family = ~self.excluded, self.family
        return live, family.ln_log_slope(self.ln_total) - family.ln_log_slope_arr(self.ln_row_class[live])

    def mean_of(self, *columns: np.ndarray) -> tuple[float, ...]:
        """sum_r w_r v_r over the live rows for each per-row column v (np.sum's reduction, unwrapped)."""
        live, ln_w = self.mean_weights()
        w = np.exp(ln_w)
        return tuple(float(np.add.reduce(w * v[live])) for v in columns)

    @cached_property
    def means(self) -> tuple[float, ...]:
        """<X_j> in ``exchanged_names`` order."""
        return self.mean_of(*self.x_exchanged.T)


@dataclass(frozen=True)
class ProbabilityTable:
    """Normalized macro (per subclass) and configuration probabilities;
    ``excluded`` and ``ln_g`` are the class table's own arrays."""

    macro_probs: np.ndarray
    config_probs: np.ndarray
    ln_config: np.ndarray
    excluded: np.ndarray
    ln_g: np.ndarray


@dataclass(frozen=True)
class ThermoReport:
    """A thermodynamic point plus the per-subclass table behind it."""

    point: ThermoPoint
    table: ClassTable

    def to_json_dict(self) -> dict:
        out = self.point.to_json_dict()
        out["environment"] = self.table.env.values()
        out["squeeze"] = self.table.family.to_config()
        out["excluded_rows"] = int(self.table.n_excluded)
        return out

    def columns(self) -> dict[str, np.ndarray]:
        """The per-row table as {column name: array}, in CSV order:
        ``x_<name>`` per exchanged variable, ``ln_g``, ``ln_class``,
        ``macro_prob``, ``config_prob``, ``boltzmann_factor`` (0 on
        excluded rows) and the boolean ``excluded``."""
        t = self.table
        probs = probabilities(t)
        out = {f"x_{n}": t.x_exchanged[:, j] for j, n in enumerate(t.exchanged_names)}
        out.update(ln_g=t.ln_g, ln_class=t.ln_row_class, macro_prob=probs.macro_probs,
                   config_prob=probs.config_probs,
                   boltzmann_factor=_boltzmann_factors(t),
                   excluded=t.excluded)
        return out

    def rows(self) -> list[dict]:
        """``columns()`` as one dict per row, with Python float and bool
        cells.  Kept for callers that read cells by row and name, such as
        the benchmark's large-table checks; on large tables the dicts cost
        far more than the class pass, so the CLI writes ``columns()``."""
        cols = self.columns()
        return [dict(zip(cols, cells)) for cells in zip(*(c.tolist() for c in cols.values()))]


def characteristic_class(
    spectrum: DegeneracySpectrum, env: EnsembleSpec, family: SqueezeFamily
) -> ClassTable:
    """Squeeze-and-rearrange pass producing the per-row class table."""
    env.validate_against(spectrum)
    working = spectrum.restrict(env.fixed_extensive)  # its columns are the exchanged variables
    y = np.array([env.fixed_intensive[n] for n in working.variable_names])
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        ln_h_g = family.ln_squeeze_arr(working.ln_g)
        if not np.isfinite(ln_h_g).all():
            raise SqueezeDomainError(
                "squeezed log-degeneracy exceeds the float range "
                f"(largest ln g = {float(working.ln_g.max()):g} at {family.label()})"
            )
        ln_weight = ln_h_g - (working.x @ y if y.size else 0.0)
        ln_row_class, excluded = family.ln_unsqueeze_arr(ln_weight)
        if excluded.all():
            raise DegenerateEnsembleError("every subclass is excluded by the cutoff")
        ln_total = _logsumexp(ln_row_class[~excluded])
        if not math.isfinite(family.ln_squeeze(ln_total)):
            raise SqueezeDomainError(
                "squeezed class total exceeds the float range "
                f"(ln total = {ln_total:g} at {family.label()})"
            )
    return ClassTable(spectrum=working, env=env, family=family, ln_row_class=ln_row_class,
                      excluded=excluded, ln_total=ln_total)


def phi_of(spectrum: DegeneracySpectrum, env: EnsembleSpec, family: SqueezeFamily) -> float:
    """Dimensionless characteristic potential of the ensemble."""
    return _class_table(spectrum, env.fixed_intensive, env.fixed_extensive, family).phi


def observed_mean(
    spectrum: DegeneracySpectrum,
    env: EnsembleSpec,
    family: SqueezeFamily,
    observable: "str | np.ndarray | Sequence[float]",
) -> float:
    """Weighted mean of a per-row observable.

    The weights are the ratio of logarithmic squeeze slopes evaluated at
    the total class and at each row class; this makes the mean equal the
    derivative of phi with respect to the conjugate intensive variable.
    For the identity family the weights reduce to the macro
    probabilities (plain ensemble average); for the power-law family to
    P_row**q.
    """
    table = _class_table(spectrum, env.fixed_intensive, env.fixed_extensive, family)
    if isinstance(observable, str):
        values = table.spectrum.column(observable)
    else:
        values = np.asarray(observable, dtype=float)
        if values.shape != (table.n_rows,):
            raise ModelValidationError(
                f"observable has {values.shape} values for {table.n_rows} rows"
            )
    return table.mean_of(values)[0]


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
    observed = dict(zip(table.exchanged_names, table.means))
    j_val = -phi
    for name, mean in observed.items():
        j_val += env.fixed_intensive[name] * mean
    theta = -phi if not env.fixed_extensive else None
    return ThermoPoint(phi=phi, entropy_J=j_val, entropy_theta=theta, observed=observed)


def probabilities(table: ClassTable) -> ProbabilityTable:
    """Macro and per-configuration probabilities from a class table.

    Degeneracies that are exactly representable integers are divided out
    exactly, so uniform microcanonical distributions come out as literal
    1/Omega.
    """
    ln_macro = table.ln_row_class - table.ln_total
    macro = np.where(table.excluded, 0.0, np.exp(ln_macro))
    ln_config = ln_macro - table.ln_g
    config = np.where(table.excluded, 0.0, _per_configuration(macro, ln_config, table.spectrum))
    return ProbabilityTable(
        macro_probs=macro,
        config_probs=config,
        ln_config=ln_config,
        excluded=table.excluded,
        ln_g=table.ln_g,
    )


def _exp_rows(v: np.ndarray) -> np.ndarray:
    """math.exp per entry, inf where it would overflow.

    math.exp, not np.exp: the two round differently in the last bit on
    some CPUs, and row quotients have always been taken from math.exp."""
    over = v > _LN_FLOAT_MAX
    out = np.fromiter(map(math.exp, np.where(over, 0.0, v)), float, v.size)
    out[over] = math.inf
    return out


def _per_configuration(num: np.ndarray, ln_quotient: np.ndarray, spectrum: DegeneracySpectrum,
                       rows: slice = slice(None)) -> np.ndarray:
    """num / g over the rows, g the snapped degeneracy counts
    (``DegeneracySpectrum.g``); where num or g leaves the float range the
    quotient is exp(ln_quotient), ln_quotient = ln num - ln g, which the caller
    forms once.  Whether g divides does not depend on y, so the spectrum keeps
    that mask; the division is np.divide's, masked, so the quotients keep their bits."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.exp(ln_quotient)
    return np.divide(num, spectrum.g[rows], out=out, where=np.isfinite(num) & spectrum._g_divides[rows])


def _boltzmann_factors(table: ClassTable, rows: slice = slice(None)) -> np.ndarray:
    ln_c, spectrum = table.ln_row_class[rows], table.spectrum
    factors = _per_configuration(_exp_rows(ln_c), ln_c - spectrum.ln_g[rows], spectrum, rows)
    return np.where(table.excluded[rows], 0.0, factors)


def generalized_boltzmann_factor(
    spectrum: DegeneracySpectrum,
    env: EnsembleSpec,
    family: SqueezeFamily,
    row: int,
) -> float:
    """Ratio of the row's squeezed class to its bare degeneracy.

    Identity family: exp(-sum y X) exactly.  Excluded rows give 0.0."""
    table = _class_table(spectrum, env.fixed_intensive, env.fixed_extensive, family)
    if not 0 <= row < table.n_rows:
        raise ModelValidationError(f"row {row} out of range (n_rows={table.n_rows})")
    return float(_boltzmann_factors(table, slice(row, row + 1))[0])


def entropy_from_probabilities(probs: ProbabilityTable, family: SqueezeFamily) -> float:
    """Entropy functional of the configuration probabilities.

    Identity: Gibbs-Shannon -sum_k p_k ln p_k; power-law family:
    (sum_k p_k**q - 1)/(1-q).  Sums run over configurations, each row
    contributing g_row identical terms.  No closed probability-space
    form exists for custom hooks."""
    live = ~probs.excluded
    lng = probs.ln_g[live]
    ln_p = probs.ln_config[live]
    if family.is_identity:
        # -sum_rows g p ln p, with g p = macro prob
        return float(-np.sum(np.exp(lng + ln_p) * ln_p))
    if family.kind == "tsallis":
        q = family.q
        lse = _logsumexp(lng + q * ln_p)
        return float(math.expm1(lse) / (1.0 - q))
    raise ModelValidationError("no closed probability-space entropy for custom families")


def combine_independent(a: DegeneracySpectrum, b: DegeneracySpectrum) -> DegeneracySpectrum:
    """Product spectrum of two independent systems.

    Variable names are prefixed "A." and "B." to stay distinct; degeneracies
    multiply (log-add) over the cartesian product of subclasses."""
    names = tuple("A." + n for n in a.variable_names) + tuple("B." + n for n in b.variable_names)
    na, nb = a.n_rows, b.n_rows
    xa = np.repeat(a.x, nb, axis=0)
    xb = np.tile(b.x, (na, 1))
    lng = np.repeat(a.ln_g, nb) + np.tile(b.ln_g, na)
    return DegeneracySpectrum(variable_names=names, x=np.hstack([xa, xb]), ln_g=lng)


def _class_table(spectrum: DegeneracySpectrum, y: Mapping, X: Mapping, family: SqueezeFamily) -> ClassTable:
    """The one class-table lookup: the spectrum's last table while it lives if taken for this family
    object, the same y and X names in order and bit-equal values (0.0 != -0.0), else a new pass."""
    key = (tuple(y), tuple(X), struct.pack(f"{len(y) + len(X)}d", *y.values(), *X.values()))
    last_key, ref = spectrum._last  # one read: the key and the table belong together
    table = ref() if last_key == key else None
    if table is None or table.family is not family:
        table = characteristic_class(spectrum, EnsembleSpec(y, X), family)
        object.__setattr__(spectrum, "_last", (key, weakref.ref(table)))
    return table


@dataclass(frozen=True)
class SpectrumSurface:
    """Phi of a full {pair name: value} mapping over a fixed spectrum,
    smooth in the intensive values; pinned extensive values select rows,
    so only support points are meaningful.  Points are looked up with
    ``_class_table`` and the last table is held, so phi, ``gradient`` and
    ``curvature`` at one point share one pass if no other point comes between."""

    spectrum: DegeneracySpectrum
    env: EnsembleSpec
    family: SqueezeFamily
    _held: ClassTable | None = field(default=None, init=False, repr=False, compare=False)

    def _table(self, values: Mapping[str, float]) -> ClassTable:
        y = {n: values[n] for n in self.env.fixed_intensive}
        X = {n: values[n] for n in self.env.fixed_extensive}
        object.__setattr__(self, "_held", _class_table(self.spectrum, y, X, self.family))
        return self._held

    def __call__(self, values: Mapping[str, float]) -> float:
        return self._table(values).phi

    def gradient(self, point: Mapping[str, float], names: Sequence[str]) -> dict[str, float]:
        """d phi/d y of exchanged names: the observed means."""
        table = self._table(point)
        return {n: table.means[table.exchanged_names.index(n)] for n in names}

    def curvature(self, point: Mapping[str, float], names: Sequence[str]) -> tuple[float, np.ndarray]:
        """(phi, H), H_ij = d2 phi/dy_i dy_j = -k(T)/(T l(T)) <X_i><X_j> +
        sum_r w_r k(c_r)/(c_r l(c_r)) X_ri X_rj, with T the class total, c_r
        the row class, l = d(ln h)/dx, w_r = l(T)/l(c_r), k = d ln l/d ln x.  A live
        row with c_r = 0 adds 0; an H beyond the float range raises SqueezeDomainError."""
        table, family = self._table(point), self.family
        live, ln_w = table.mean_weights()
        cols = [table.exchanged_names.index(n) for n in names]
        xt = table.x_exchanged.T.take(cols, axis=0).compress(live, axis=1)  # x[live][:, cols].T, cheaper
        ln_c, ln_l_total = table.ln_row_class[live], family.ln_log_slope(table.ln_total)
        a = -family.slope_elasticity_arr(table.ln_total) * math.exp(-table.ln_total - ln_l_total)
        with np.errstate(over="ignore", invalid="ignore"):  # 2 ln w may overflow to -inf
            mean = xt @ np.exp(ln_w)
            b = family.slope_elasticity_arr(ln_c) * np.exp(2.0 * ln_w - ln_c - ln_l_total)
            b[ln_c == -np.inf] = 0.0
            H = a * (mean[:, None] * mean) + (xt * b) @ xt.T
        if not np.isfinite(H).all():
            raise SqueezeDomainError(f"curvature of phi exceeds the float range at {family.label()}")
        return table.phi, H


phi_surface_from_spectrum = SpectrumSurface  # the public constructor name


def report_for(
    spectrum: DegeneracySpectrum, env: EnsembleSpec, family: SqueezeFamily
) -> ThermoReport:
    """One-stop evaluation used by the CLI.  While the report lives, a surface at
    the same point reads its class table (``_class_table``), with no second pass."""
    table = _class_table(spectrum, env.fixed_intensive, env.fixed_extensive, family)
    return ThermoReport(point=phi_and_entropies(table), table=table)


# ---------------------------------------------------------------------------
# model-file round trip (the JSON wire format for spectra + environments)

def model_to_json_dict(
    spectrum: DegeneracySpectrum, env: EnsembleSpec, family: SqueezeFamily
) -> dict:
    variables = []
    for n in spectrum.variable_names:
        kind = "exchanged" if n in env.fixed_intensive else "fixed"
        variables.append({"name": n, "kind": kind})
    rows = [
        {"x": [float(v) for v in spectrum.x[r]], "ln_g": float(spectrum.ln_g[r])}
        for r in range(spectrum.n_rows)
    ]
    return {
        "variables": variables,
        "rows": rows,
        "environment": {"y": dict(env.fixed_intensive), "X": dict(env.fixed_extensive)},
        "squeeze": family.to_config(),
    }


def model_from_json_dict(doc: dict) -> tuple[DegeneracySpectrum, EnsembleSpec, SqueezeFamily]:
    try:
        names = tuple(v["name"] for v in doc["variables"])
        kinds = {v["name"]: v["kind"] for v in doc["variables"]}
        x = np.array([row["x"] for row in doc["rows"]], dtype=float)
        ln_g = np.array([row["ln_g"] for row in doc["rows"]], dtype=float)
        envdoc = doc.get("environment", {})
        y = {k: float(v) for k, v in envdoc.get("y", {}).items()}
        X = {k: float(v) for k, v in envdoc.get("X", {}).items()}
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
    family = SqueezeFamily.from_config(doc.get("squeeze", {"family": "identity"}))
    return spectrum, env, family
