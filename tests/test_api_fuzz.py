"""The library surface under drawn arguments, a first slice: the kinetics layer.

Hypothesis draws populations of 0, -0.0, 5e-324 and 1e308 (every velocity alike, or
mixed with ordinary values), a step dt that is subnormal, huge, inf or nan, the index
q in {0.5, 1, 1.5, 2, 3} and either xi, and calls ``step`` (with and without the bound
check), ``run_trace``, ``run_to_stationarity``, ``collision_rhs``, ``stability_dt`` and
``entropy_functional``.  Every call must give a finite result or raise an error of
``sqzstat.errors``: never an OverflowError, a ZeroDivisionError or any other bare Python
error, and no RuntimeWarning.  The draws are derandomized, so the suite is reproducible."""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzstat import SqueezeFamily, errors
from sqzstat.kinetics import (
    KineticState,
    build_collision_network,
    collision_rhs,
    entropy_functional,
    make_lattice,
    run_to_stationarity,
    run_trace,
    stability_dt,
    step,
    xi_soft,
)

PACKAGE_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
EDGES = (0.0, -0.0, 5e-324, 1e308)
NETS = {xi: build_collision_network(make_lattice(1)).with_xi(xi) for xi in (None, xi_soft)}
N = NETS[None].lattice.n

POPULATIONS = st.one_of(
    st.sampled_from(EDGES).map(lambda v: np.full(N, v)),
    st.lists(st.one_of(st.sampled_from(EDGES), st.floats(0.2, 1.8)), min_size=N, max_size=N).map(np.array),
)
DTS = st.sampled_from([5e-324, 1e-310, 1e300, math.inf, math.nan])  # subnormal, huge, inf, nan
FAMILIES = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]).map(SqueezeFamily.tsallis)
CALLS = {
    "step": lambda s, net, fam, dt: step(s, net, fam, dt),
    "step unchecked": lambda s, net, fam, dt: step(s, net, fam, dt, enforce_bound=False),
    "run_trace": lambda s, net, fam, dt: list(run_trace(s, net, fam, dt, 3, 2)),
    "run_to_stationarity": lambda s, net, fam, dt: run_to_stationarity(s, net, fam, dt, max_steps=3),
    "collision_rhs": lambda s, net, fam, dt: collision_rhs(s, net, fam),
    "stability_dt": lambda s, net, fam, dt: stability_dt(s, net, fam),
    "entropy_functional": lambda s, net, fam, dt: entropy_functional(s, fam),
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
@given(st.sampled_from(sorted(CALLS)), POPULATIONS, DTS, FAMILIES, st.sampled_from([None, xi_soft]))
# a trace row's sum F overflowed to inf with a RuntimeWarning, though h and S are finite at q = 3
@example("run_trace", np.array([1e308, 1e308, 0.5, 0.5, 0.5]), 5e-324, SqueezeFamily.tsallis(3.0), None)
def test_kinetics_calls_give_a_finite_result_or_a_package_error(call, F, dt, family, xi):
    state = KineticState(F=F)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = CALLS[call](state, NETS[xi], family, dt)
        except PACKAGE_ERRORS:
            return
    assert all(map(math.isfinite, floats_of(result)))
