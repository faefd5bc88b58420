"""The library surface under drawn arguments: kinetics, the engine, inference, thermo and
the squeeze kernels.

Kinetics: hypothesis draws populations of 0, -0.0, 5e-324 and 1e308 (every velocity alike,
or mixed with ordinary values), a step dt that is subnormal, huge, inf or nan, the index
q in {0.5, 1, 1.5, 2, 3}, either xi and a seed, and calls ``step`` (with and without the
bound check), ``run_trace``, ``run_to_stationarity``, ``collision_rhs``, ``stability_dt``,
``entropy_functional``, ``KineticState.number`` and ``.energy`` and ``random_state``.

Engine: over small built-in spectra it draws each variable exchanged or pinned, values of
0, -0.0, 5e-324, +-1e308 and ordinary ones, pinned values that match a row and ones that
match none, environments and points with a missing, an extra or an unknown pinned name,
read names that repeat, are unknown or are none, and q in {0.2, 0.5, 1 - 1e-12, 1, 1.5, 3,
1026}; it calls ``report_for``, ``characteristic_class``, ``observed_mean``,
``probabilities``, a ``SpectrumSurface``'s phi, ``gradient`` and ``curvature``, ``moments``
and ``conjugates_from_phi``.

Inference and thermo: samples of +-1e308, 5e-324, -0.0, nan and inf, increasing grids from
edge starts, drawn grids in any order, words, and uniform or drawn densities, through
``EquilibriumDataset``, ``reconstruct_squeeze``, ``estimate_q``, ``superstatistics_forward``;
drawn name lists through ``EnvironmentSplit`` and ``conjugates_from_phi``.

Every call must give a finite result (or an inf its docstring documents) or raise an error
of ``sqzstat.errors``, or a ValueError or TypeError from a ``raise`` statement of the
package: never an OverflowError, a ZeroDivisionError, a KeyError or another bare Python
error, and no RuntimeWarning.  ``StabilityWarning`` is documented and allowed.  The squeeze
kernels run under the errstate their callers hold and must give no NaN and the same bits
for a float and an array.  The draws are derandomized, so the suite is reproducible."""

import linecache
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
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
from sqzstat.inference import (
    EquilibriumDataset,
    QEstimate,
    estimate_q,
    reconstruct_squeeze,
    superstatistics_forward,
)
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
from sqzstat.thermo import EnvironmentSplit, conjugates_from_phi

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
QS = (0.2, 0.5, 1.0 - 1e-12, 1.0, 1.5, 3.0, 1026.0)  # at 1026, a = q T^(q-1) is beyond the float range at T = 2
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
    if isinstance(result, FluctuationReport):  # a singular direction's intensive variance and cond may be inf
        finite = [result.phi0, result.tsallis_scale, *result.G.flat, *result.G_inv.flat,
                  *result.variances.values(), *result.covariances.values()]
        return finite, [*result.intensive_variances.values(), result.condition_number]
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
# a = q T^(q-1) is beyond the float range (T = 2): an unguarded math.exp raises OverflowError
@example("curvature", ("two_level", {"E": 0.0}, {}, 1026.0, {"E": 0.0}, ["E"], "E"))
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


# ---------------------------------------------------------------------------
# inference and thermo

SAMPLES = (0.0, -0.0, 5e-324, 0.3, 1.0, 2.5, 1e308, -1e308, math.nan, math.inf, -math.inf)
STEPS = (5e-324, 0.1, 1.0, 1e308)  # an increasing grid's gaps: subnormal, ordinary and huge
WORDS = ["a", "b", "c", "d", "e"]
SPLIT_NAMES = st.lists(st.sampled_from(["E", "N", "Z"]), max_size=3)
LATTICE_SURFACE = SpectrumSurface(lattice_gas(10), EnsembleSpec({"E": 0.7, "N": 0.2}), SqueezeFamily.tsallis(1.5))


def samples(n):
    return st.lists(st.sampled_from(SAMPLES), min_size=n, max_size=n)


@st.composite
def grids(draw, n):
    """n values: a strictly increasing grid from an edge start (whose sums may reach inf), drawn
    values in any order (non-increasing, repeated, nan or inf), or words numpy cannot read."""
    kind = draw(st.sampled_from(["increasing", "increasing", "drawn", "words"]))
    if kind == "words":
        return WORDS[:n]
    if kind == "drawn":
        return draw(samples(n))
    grid = [draw(st.sampled_from((0.0, -0.0, 5e-324, 0.5, -1e308)))]
    for _ in range(n - 1):
        grid.append(grid[-1] + draw(st.sampled_from(STEPS)))
    return grid


@st.composite
def inference_cases(draw):
    """(call, arguments): a dataset of 2-5 samples, or a mixing grid with a density that is the
    grid's uniform one (normalized, up to rounding) or drawn (unnormalized, negative or nan)."""
    call = draw(st.sampled_from(["EquilibriumDataset", "reconstruct_squeeze", "estimate_q",
                                 "superstatistics_forward", "EnvironmentSplit", "conjugates_from_phi"]))
    n = draw(st.integers(2, 5))
    if call in ("EnvironmentSplit", "conjugates_from_phi"):
        return call, (draw(SPLIT_NAMES), draw(SPLIT_NAMES))
    if call == "superstatistics_forward":
        grid = draw(grids(n))
        if draw(st.booleans()) and not isinstance(grid[0], str):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                width = np.float64(grid[-1]) - np.float64(grid[0])
                density = [float(1.0 / width)] * n
        else:
            density = draw(st.one_of(st.just(WORDS[:n]), samples(n)))
        return call, (grid, density, draw(st.sampled_from(SAMPLES)))
    ratio = draw(st.one_of(st.just(WORDS[:n]), samples(n)))
    return call, (draw(grids(n)), ratio)


INFERENCE_CALLS = {
    "EquilibriumDataset": lambda ln_g, ratio: EquilibriumDataset(ln_g, ratio),
    "reconstruct_squeeze": lambda ln_g, ratio: reconstruct_squeeze(EquilibriumDataset(ln_g, ratio)),
    "estimate_q": lambda ln_g, ratio: estimate_q(EquilibriumDataset(ln_g, ratio)),
    "superstatistics_forward": superstatistics_forward,
    "EnvironmentSplit": lambda extensive, intensive: EnvironmentSplit(extensive, intensive),
    "conjugates_from_phi": lambda extensive, intensive: conjugates_from_phi(
        LATTICE_SURFACE, EnvironmentSplit(extensive, intensive), {"E": 0.7, "N": 0.2}),
}


def inference_floats(result) -> list:
    """Every float a result holds: a dataset's samples, a reconstruction's two arrays, an
    estimate's q and residual, a conjugate map's values, the value; a split holds names only."""
    if isinstance(result, EquilibriumDataset):
        return [*result.ln_g.tolist(), *result.ratio.tolist()]
    if isinstance(result, QEstimate):
        return [result.q, result.residual]
    if isinstance(result, EnvironmentSplit):
        assert all(type(n) is str for n in result.all_names)
        return []
    if isinstance(result, dict):
        return list(result.values())
    if isinstance(result, tuple):
        return [v for a in result for v in a.tolist()]
    return [result]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(inference_cases())
# numpy's bare ValueError "could not convert string to float" from an np.asarray line
@example(("EquilibriumDataset", (WORDS[:3], [1, 1, 1])))
@example(("superstatistics_forward", (WORDS[:2], [0.5, 0.5], 1.0)))
def test_inference_and_thermo_calls_give_a_finite_result_or_a_documented_error(case):
    call, args = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", StabilityWarning)
        try:
            result = INFERENCE_CALLS[call](*args)
        except PACKAGE_ERRORS:
            return
        except (ValueError, TypeError) as exc:
            assert raised_by_a_package_raise(exc), repr(exc)
            return
    assert all(map(math.isfinite, inference_floats(result))), result


# ---------------------------------------------------------------------------
# the squeeze kernels

KERNEL_VALUES = (0.0, -0.0, 5e-324, 0.7, -0.3, 1500.0, -1500.0, 1e308, -1e308)
KERNEL_QS = (0.2, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5, 3.0)


def parts(result) -> tuple:
    """A kernel's result as arrays: (ln value,) or (ln value, excluded mask)."""
    return tuple(map(np.asarray, result if isinstance(result, tuple) else (result,)))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["ln_squeeze", "ln_unsqueeze", "ln_row_class"]), st.sampled_from(KERNEL_QS),
       st.lists(st.tuples(st.sampled_from(KERNEL_VALUES + (-math.inf,)), st.sampled_from(KERNEL_VALUES)),
                min_size=1, max_size=4))
def test_squeeze_kernels_give_the_same_bits_for_a_float_and_an_array(kernel, q, pairs):
    # under the errstate each caller holds (overflow reads inf: see ROADMAP item 18), a kernel
    # gives no NaN, reads -inf on its excluded entries, and gives an array the bits of its floats
    if kernel == "ln_row_class":  # it takes finite ln g and x.y
        pairs = [(max(v, -1e308), xy) for v, xy in pairs]
    else:  # ln g or ln x, where ln 0 = -inf
        pairs = [(v,) for v, _ in pairs]
    call = getattr(SqueezeFamily.tsallis(q), kernel)
    with np.errstate(over="ignore"):
        whole = parts(call(*map(np.array, zip(*pairs))))
        each = [parts(call(*p)) for p in pairs]
    assert not np.isnan(whole[0]).any()
    if len(whole) == 2:
        assert np.all(whole[0][whole[1]] == -math.inf)
    for i, one in enumerate(each):
        assert [p.tobytes() for p in one] == [w[i].tobytes() for w in whole]


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="ROADMAP item 18: ln_squeeze leaves its errstate to its caller")
def test_a_squeeze_beyond_the_float_range_reads_inf_with_no_warning():
    # ln h = 2 (e^750 - 1) is beyond the float range: the kernel reads inf, but expm1 warns
    assert SqueezeFamily.tsallis(0.5).ln_squeeze(np.array([1500.0]))[0] == math.inf
