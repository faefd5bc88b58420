"""The library surface under drawn arguments: the kinetics layer and the engine.

Kinetics: hypothesis draws populations of 0, -0.0, 5e-324 and 1e308 (every velocity alike,
or mixed with ordinary values), a step dt that is subnormal, huge, inf or nan, the index
q in {0.5, 1, 1.5, 2, 3}, either xi and a seed, and calls ``step`` (with and without the
bound check), ``run_trace``, ``run_to_stationarity``, ``collision_rhs``, ``stability_dt``,
``entropy_functional``, ``KineticState.number`` and ``.energy`` and ``random_state``.

Engine: over small built-in spectra it draws each variable exchanged or pinned, values of
0, -0.0, 5e-324, +-1e308 and ordinary ones, pinned values that match a row and ones that
match none, environments and points with a missing, an extra or an unknown pinned name,
read names that repeat, are unknown or are none, and q in {0.2, 0.5, 1 - 1e-12, 1, 1.5, 3};
it calls ``report_for``, ``characteristic_class``, ``observed_mean``, ``probabilities``,
a ``SpectrumSurface``'s phi, ``gradient`` and ``curvature``, ``moments`` and
``conjugates_from_phi``.

Every call must give a finite result (or an inf its docstring documents) or raise an error
of ``sqzstat.errors``, or a ValueError or TypeError from a ``raise`` statement of the
package: never an OverflowError, a ZeroDivisionError, a KeyError or another bare Python
error, and no RuntimeWarning.  ``StabilityWarning`` is documented and allowed.  The draws
are derandomized, so the suite is reproducible."""

import linecache
import math
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqzstat
from sqzstat import SqueezeFamily, errors
from sqzstat.engine import (
    ClassTable,
    EnsembleSpec,
    ProbabilityTable,
    SpectrumSurface,
    ThermoReport,
    characteristic_class,
    observed_mean,
    probabilities,
    report_for,
)
from sqzstat.fluctuation import FluctuationReport, StabilityWarning, moments
from sqzstat.kinetics import (
    KineticState,
    build_collision_network,
    collision_rhs,
    entropy_functional,
    make_lattice,
    random_state,
    run_to_stationarity,
    run_trace,
    stability_dt,
    step,
    xi_soft,
)
from sqzstat.models import einstein_solid, lattice_gas, spin_half_paramagnet, two_level
from sqzstat.thermo import conjugates_from_phi

PACKAGE_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
PACKAGE_DIR = Path(sqzstat.__file__).resolve().parent


def raised_by_a_package_raise(exc: BaseException) -> bool:
    """Whether the last frame of exc's traceback is a ``raise`` statement of the package."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename).resolve()
    return path.parent == PACKAGE_DIR and linecache.getline(str(path), tb.tb_lineno).lstrip().startswith("raise")


# ---------------------------------------------------------------------------
# kinetics

EDGES = (0.0, -0.0, 5e-324, 1e308)
NETS = {xi: build_collision_network(make_lattice(1)).with_xi(xi) for xi in (None, xi_soft)}
N = NETS[None].lattice.n

POPULATIONS = st.one_of(
    st.sampled_from(EDGES).map(lambda v: np.full(N, v)),
    st.lists(st.one_of(st.sampled_from(EDGES), st.floats(0.2, 1.8)), min_size=N, max_size=N).map(np.array),
)
DTS = st.sampled_from([5e-324, 1e-310, 1e300, math.inf, math.nan])  # subnormal, huge, inf, nan
FAMILIES = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]).map(SqueezeFamily.tsallis)
SEEDS = st.sampled_from([0, 7, 2**70, -1, -(2**70)])
CALLS = {
    "step": lambda s, net, fam, dt, seed: step(s, net, fam, dt),
    "step unchecked": lambda s, net, fam, dt, seed: step(s, net, fam, dt, enforce_bound=False),
    "run_trace": lambda s, net, fam, dt, seed: list(run_trace(s, net, fam, dt, 3, 2)),
    "run_to_stationarity": lambda s, net, fam, dt, seed: run_to_stationarity(s, net, fam, dt, max_steps=3),
    "collision_rhs": lambda s, net, fam, dt, seed: collision_rhs(s, net, fam),
    "stability_dt": lambda s, net, fam, dt, seed: stability_dt(s, net, fam),
    "entropy_functional": lambda s, net, fam, dt, seed: entropy_functional(s, fam),
    "number": lambda s, net, fam, dt, seed: s.number(),
    "energy": lambda s, net, fam, dt, seed: s.energy(net.lattice),
    "random_state": lambda s, net, fam, dt, seed: random_state(net.lattice, seed),
}


def floats_of(result) -> list:
    """Every float a result holds: a state's t and F, an array, a number, nested in tuples."""
    if isinstance(result, KineticState):
        return [result.t, *result.F.tolist()]
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, (tuple, list)):
        return [v for item in result for v in floats_of(item)]
    return [result]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(CALLS)), POPULATIONS, DTS, FAMILIES, st.sampled_from([None, xi_soft]), SEEDS)
# a trace row's sum F overflowed to inf with a RuntimeWarning, though h and S are finite at q = 3
@example("run_trace", np.array([1e308, 1e308, 0.5, 0.5, 0.5]), 5e-324, SqueezeFamily.tsallis(3.0), None, 0)
# the sums of a state's populations overflowed to inf with a RuntimeWarning
@example("number", np.array([1e308, 1e308, 0.5, 0.5, 0.5]), 5e-324, SqueezeFamily.identity(), None, 0)
@example("energy", np.full(N, 1e308), 5e-324, SqueezeFamily.identity(), None, 0)
# numpy's own ValueError for a negative seed
@example("random_state", np.full(N, 0.5), 5e-324, SqueezeFamily.identity(), None, -1)
def test_kinetics_calls_give_a_finite_result_or_a_package_error(call, F, dt, family, xi, seed):
    state = KineticState(F=F)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = CALLS[call](state, NETS[xi], family, dt, seed)
        except PACKAGE_ERRORS:
            return
    assert all(map(math.isfinite, floats_of(result)))


# ---------------------------------------------------------------------------
# engine

SPECTRA = {
    "two_level": two_level(1.0),
    "lattice_gas": lattice_gas(10),
    "paramagnet": spin_half_paramagnet(6),
    "einstein_solid": einstein_solid(3, 10),
}
VALUES = (0.0, -0.0, 5e-324, 0.7, -0.3, 1e308, -1e308)
PINS = (0.0, -0.0, 2.0, 2.5, 1e308)  # 2.5 and 1e308 match no row of any spectrum
QS = (0.2, 0.5, 1.0 - 1e-12, 1.0, 1.5, 3.0)
ENGINE_CALLS = {
    "report_for": lambda s, env, fam, point, names, obs: report_for(s, env, fam),
    "characteristic_class": lambda s, env, fam, point, names, obs: characteristic_class(s, env, fam),
    "observed_mean": lambda s, env, fam, point, names, obs: observed_mean(s, env, fam, obs),
    "probabilities": lambda s, env, fam, point, names, obs: probabilities(report_for(s, env, fam).table),
    "surface": lambda s, env, fam, point, names, obs: SpectrumSurface(s, env, fam)(point),
    "gradient": lambda s, env, fam, point, names, obs: SpectrumSurface(s, env, fam).gradient(point, names),
    "curvature": lambda s, env, fam, point, names, obs: SpectrumSurface(s, env, fam).curvature(point, names),
    "moments": lambda s, env, fam, point, names, obs: moments(SpectrumSurface(s, env, fam), point, names, fam),
    "conjugates_from_phi":
        lambda s, env, fam, point, names, obs: conjugates_from_phi(SpectrumSurface(s, env, fam), env.split, point),
}


@st.composite
def engine_cases(draw):
    """(spectrum name, y, X, q, point, read names, observable): y and X are the environment's
    exchanged and pinned values, the point is the environment's values with one edit at most."""
    name = draw(st.sampled_from(sorted(SPECTRA)))
    variables = SPECTRA[name].variable_names
    y, X = {}, {}
    for v in variables:
        if draw(st.sampled_from([True, True, False])):
            y[v] = draw(st.sampled_from(VALUES))
        else:
            X[v] = draw(st.sampled_from(PINS))
    edit = draw(st.sampled_from(["none"] * 5 + ["missing", "extra", "unknown pinned"]))
    if edit == "missing":
        (y if y and (not X or draw(st.booleans())) else X).popitem()
    elif edit == "extra":
        y["Z"] = draw(st.sampled_from(VALUES))
    elif edit == "unknown pinned":
        X["Z"] = draw(st.sampled_from(PINS))
    point = {**X, **y}
    point_edit = draw(st.sampled_from(["none"] * 3 + ["missing", "extra", "value"]))
    if point_edit == "missing" and point:
        del point[draw(st.sampled_from(sorted(point)))]
    elif point_edit == "extra":
        point["Z"] = draw(st.sampled_from(VALUES))
    elif point_edit == "value" and point:
        point[draw(st.sampled_from(sorted(point)))] = draw(st.sampled_from(VALUES + PINS))
    names = draw(st.one_of(st.just(sorted(y)), st.lists(st.sampled_from([*variables, "Z"]), max_size=3)))
    observable = draw(st.one_of(
        st.sampled_from([*variables, "Z"]),
        st.sampled_from(VALUES).map(lambda v: [v] * SPECTRA[name].n_rows),
    ))
    return name, y, X, draw(st.sampled_from(QS)), point, names, observable


def engine_floats(result) -> tuple[list, list]:
    """(floats that must be finite, floats that may also be a documented inf) of a result."""
    if isinstance(result, ThermoReport):
        p = result.point
        theta = [] if p.entropy_theta is None else [p.entropy_theta]
        return [p.phi, p.entropy_J, *theta, *p.observed.values()], []
    if isinstance(result, ClassTable):  # ln c is -inf on excluded rows
        return [result.phi, result.ln_total, *result.means], result.ln_row_class.tolist()
    if isinstance(result, ProbabilityTable):
        return [*result.macro_probs.tolist(), *result.config_probs.tolist()], []
    if isinstance(result, FluctuationReport):  # G and the intensive variances are inf along a flat direction
        finite = [result.phi0, result.tsallis_scale, *result.G_inv.flat, *result.variances.values(),
                  *result.covariances.values()]
        return finite, [*result.G.flat, *result.intensive_variances.values(), result.condition_number]
    if isinstance(result, tuple):  # curvature's (phi, H)
        return [result[0], *result[1].flat], []
    if isinstance(result, dict):  # gradient's and conjugates_from_phi's means
        return list(result.values()), []
    return [result], []


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(ENGINE_CALLS)), engine_cases())
# the mean of an observable of two 1.7e308 cells overflowed to inf with a RuntimeWarning
@example("observed_mean", ("two_level", {"E": 0.0}, {}, 0.2, {"E": 0.0}, ["E"], [1.7e308, 1.7e308]))
# a surface read at a point that lacks an environment name ended in a bare KeyError
@example("gradient", ("lattice_gas", {"E": 0.7, "N": 0.2}, {}, 1.0, {"E": 0.7}, ["E"], "E"))
@example("curvature", ("lattice_gas", {"E": 0.7}, {"N": 2.0}, 1.5, {"E": 0.7}, ["E"], "E"))
def test_engine_calls_give_a_finite_result_or_a_documented_error(call, case):
    name, y, X, q, point, names, observable = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", StabilityWarning)
        try:
            env = EnsembleSpec(y, X)
            result = ENGINE_CALLS[call](SPECTRA[name], env, SqueezeFamily.tsallis(q), point, names, observable)
        except PACKAGE_ERRORS:
            return
        except (ValueError, TypeError) as exc:
            assert raised_by_a_package_raise(exc), repr(exc)
            return
    finite, documented = engine_floats(result)
    assert all(map(math.isfinite, finite)), finite
    assert not any(map(math.isnan, documented)), documented
