"""Derivatives of phi read from the class table.

A spectrum surface gives the gradient of phi (the observed means) and its
curvature from one class pass.  These tests pin the pass counts, check
the q < 1 states where second differences of phi lost the curvature,
compare phi, the means, the curvature, the probabilities and the entropy
with 50-digit direct sums, and cover custom families and the growth of
the curvature next to a cutoff at q < 1/2."""

import copy
import dataclasses
import gc
import json
import math
import pickle
import tracemalloc
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sqzstat import (
    DegeneracySpectrum,
    EnsembleSpec,
    SqueezeFamily,
    conjugates_from_phi,
    observed_mean,
    phi_surface_from_spectrum,
)
from sqzstat import engine
from sqzstat.cli import main
from sqzstat.fluctuation import StabilityWarning, moments, stability_matrix
from sqzstat.models import einstein_solid, lattice_gas, two_level

from differencing import central_derivative, conjugates, hessian, mp_phi

IDENT = SqueezeFamily.identity()
EPS = np.finfo(float).eps


@pytest.fixture
def class_passes(monkeypatch):
    """Counts characteristic_class calls made through the engine module."""
    calls = []
    original = engine.characteristic_class

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "characteristic_class", counting)
    return calls


# ---------------------------------------------------------------------------
# one class pass per derivative


@pytest.mark.parametrize(
    "spectrum, y",
    [(two_level(1.0), {"E": 0.7}), (lattice_gas(100), {"E": 0.7, "N": 0.2})],
    ids=["1var", "2var"],
)
def test_moments_take_one_class_pass(class_passes, spectrum, y):
    env = EnsembleSpec(fixed_intensive=y)
    surface = phi_surface_from_spectrum(spectrum, env, IDENT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        moments(surface, env.values(), sorted(y), IDENT)
    assert len(class_passes) == 1


def test_conjugates_take_one_class_pass(class_passes):
    env = EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    surface = phi_surface_from_spectrum(lattice_gas(100), env, IDENT)
    out = conjugates_from_phi(surface, env.split, env.values())
    assert len(class_passes) == 1
    # the conjugates are the observed means, bit for bit
    for name in ("E", "N"):
        assert out[name] == observed_mean(lattice_gas(100), env, IDENT, name)


def test_cli_fluct_takes_one_class_pass(class_passes, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        code = main(["fluct", "--model", "lattice_gas", "--param", "sites=100",
                     "--y", "E=0.7", "--y", "N=0.2"])
    capsys.readouterr()
    assert code == 0
    assert len(class_passes) == 1  # the report's table serves the curvature


# ---------------------------------------------------------------------------
# a surface keeps the class table of the last point it evaluated


def test_conjugates_then_moments_at_one_point_take_one_class_pass(class_passes):
    env = EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    surface = phi_surface_from_spectrum(lattice_gas(100), env, IDENT)
    conjugates_from_phi(surface, env.split, env.values())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        moments(surface, env.values(), ["E", "N"], IDENT)
    assert len(class_passes) == 1


def surface_bits(surface, point, names):
    """phi, the gradient and the curvature at one point, as raw bytes."""
    phi_c, H = surface.curvature(point, names)
    grad = surface.gradient(point, names)
    return np.array([surface(point), phi_c, *(grad[n] for n in names)]).tobytes() + H.tobytes()


SURFACE_CASES = {
    "exchanged": (lattice_gas(30), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2}), ["E", "N"],
                  ({"E": 0.7, "N": 0.2}, {"E": 0.9, "N": -0.1})),
    "pinned": (lattice_gas(30), EnsembleSpec({"E": 0.7}, {"N": 3.0}), ["E"],
               ({"E": 0.7, "N": 3.0}, {"E": 0.7, "N": 4.0})),
}


@pytest.mark.parametrize("case", sorted(SURFACE_CASES))
def test_revisited_point_matches_a_fresh_surface(class_passes, case):
    spectrum, env, names, (a, b) = SURFACE_CASES[case]
    fam = SqueezeFamily.tsallis(0.7)
    surface = phi_surface_from_spectrum(spectrum, env, fam)
    got = [surface_bits(surface, p, names) for p in (a, b, a)]
    assert len(class_passes) == 3  # one per distinct point in turn
    for p, bits in zip((a, b, a), got):
        assert bits == surface_bits(phi_surface_from_spectrum(spectrum, env, fam), p, names)


@pytest.mark.parametrize("pinned", [False, True], ids=["exchanged", "pinned"])
def test_signed_zeros_are_different_points(class_passes, pinned):
    if pinned:  # N = 0 and N = -0 select the same rows
        spectrum, env, key = lattice_gas(10), EnsembleSpec({"E": 0.7}, {"N": 0.0}), "N"
    else:
        spectrum, env, key = two_level(1.0), EnsembleSpec(fixed_intensive={"E": 0.0}), "E"
    surface = phi_surface_from_spectrum(spectrum, env, IDENT)
    point = env.values()
    for value in (0.0, -0.0, 0.0):
        surface({**point, key: value})
    assert len(class_passes) == 3
    surface({**point, key: 0.0})
    assert len(class_passes) == 3


# ---------------------------------------------------------------------------
# a report and a surface at one point share the spectrum's last class table


def test_report_then_surface_derivatives_take_one_class_pass(class_passes):
    spectrum, env = lattice_gas(30), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    fam = SqueezeFamily.tsallis(0.7)
    report = engine.report_for(spectrum, env, fam)
    surface = phi_surface_from_spectrum(spectrum, env, fam)
    got = surface_bits(surface, env.values(), ["E", "N"])
    assert len(class_passes) == 1
    assert surface._table(env.values()) is report.table
    assert got == surface_bits(phi_surface_from_spectrum(lattice_gas(30), env, fam),
                               env.values(), ["E", "N"])


@pytest.mark.parametrize("change", ["equal_family", "name_order"])
def test_shared_table_misses_on_another_family_object_or_name_order(class_passes, change):
    spectrum, y = lattice_gas(30), {"E": 0.7, "N": 0.2}
    env, fam = EnsembleSpec(fixed_intensive=y), SqueezeFamily.tsallis(0.7)
    report = engine.report_for(spectrum, env, fam)
    if change == "equal_family":
        other_env, other_fam = env, SqueezeFamily.tsallis(0.7)
        assert other_fam == fam and other_fam is not fam
    else:
        other_env, other_fam = EnsembleSpec(fixed_intensive={"N": 0.2, "E": 0.7}), fam
    other = engine.report_for(spectrum, other_env, other_fam)
    assert len(class_passes) == 2
    assert other.table is not report.table
    assert other.table.ln_row_class.tobytes() == report.table.ln_row_class.tobytes()
    assert other.point == report.point


def test_report_table_is_freed_without_the_cycle_collector():
    spectrum, env = two_level(1.0), EnsembleSpec(fixed_intensive={"E": 0.7})
    gc.disable()
    try:
        report = engine.report_for(spectrum, env, IDENT)
        ref = weakref.ref(report.table)
        del report
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("clone", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_spectrum_report_and_surface_copy_after_an_evaluation(clone):
    spectrum, env = lattice_gas(10), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    report = engine.report_for(spectrum, env, IDENT)
    surface = phi_surface_from_spectrum(spectrum, env, IDENT)
    expected = surface_bits(surface, env.values(), ["E", "N"])
    spectrum2, report2, surface2 = map(clone, (spectrum, report, surface))
    assert spectrum2._last == (None, None)  # the weak slot is not copied
    assert spectrum2.ln_g.tobytes() == spectrum.ln_g.tobytes()
    assert report2.point == report.point
    assert surface_bits(surface2, env.values(), ["E", "N"]) == expected


@pytest.mark.parametrize("family", [IDENT, SqueezeFamily.tsallis(1.5)], ids=["identity", "tsallis"])
def test_live_report_holds_only_its_class_table_fields(family):
    n = 200_000
    spectrum = DegeneracySpectrum(("E",), np.arange(n, dtype=float), np.zeros(n))
    env = EnsembleSpec(fixed_intensive={"E": 1e-5})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = engine.report_for(spectrum, env, family)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    table = report.table
    assert not table.excluded.any()  # every row live, so per-live-row arrays would show in full
    fields = table.ln_row_class.nbytes + table.excluded.nbytes + table.x_exchanged.nbytes
    assert fields == 17 * n
    assert held <= fields + 64 * 1024


def test_class_table_caches_floats_only_and_is_taken_over_the_callers_spec():
    spectrum, env = lattice_gas(20), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    report = engine.report_for(spectrum, env, SqueezeFamily.tsallis(0.7))
    table = report.table
    assert table.env is env
    phi_surface_from_spectrum(spectrum, env, table.family).curvature(env.values(), ["E", "N"])
    cached = {k: v for k, v in vars(table).items() if k not in {f.name for f in dataclasses.fields(table)}}
    assert sorted(cached) == ["ln_l_total", "means", "phi"]
    assert type(cached["phi"]) is type(cached["ln_l_total"]) is float
    assert all(type(v) is float for v in cached["means"])


# Interleaved lookups on one spectrum: two environments over a pool of three
# points each, two of them differing only in the sign of a zero, and three
# families: two equal but distinct objects and one of another q.
LOOKUP_ENVS = {
    "exchanged": (("E", "N"), (), [(0.7, 0.0), (0.7, -0.0), (0.9, 0.2)]),
    "pinned": (("E",), ("N",), [(0.7, 0.0), (0.7, -0.0), (0.9, 3.0)]),
}
LOOKUP_FAMILIES = (SqueezeFamily.tsallis(0.7), SqueezeFamily.tsallis(0.7), SqueezeFamily.tsallis(1.4))


def lookup_spectrum():
    e, n = np.meshgrid(np.arange(5.0), np.arange(4.0))
    x = np.column_stack([e.ravel(), n.ravel()])
    return DegeneracySpectrum(("E", "N"), x, 0.3 * x[:, 0] + 0.7 * x[:, 1] + 0.1 * (x[:, 0] % 2))


def lookup_surfaces(spectrum):
    surfaces = {}
    for name, (y_names, x_names, pool) in LOOKUP_ENVS.items():
        values = dict(zip(("E", "N"), pool[0]))
        env = EnsembleSpec({n: values[n] for n in y_names}, {n: values[n] for n in x_names})
        for i, family in enumerate(LOOKUP_FAMILIES):
            surfaces[name, i] = phi_surface_from_spectrum(spectrum, env, family)
    return surfaces


def lookup_bits(spectrum, surfaces, reports, op):
    """One lookup's result as raw bytes; a kept report stays alive in ``reports``."""
    kind, env_name, family_index, point, keep = op
    y_names, x_names, pool = LOOKUP_ENVS[env_name]
    values = dict(zip(("E", "N"), pool[point]))
    if kind == "report":
        env = EnsembleSpec({n: values[n] for n in y_names}, {n: values[n] for n in x_names})
        report = engine.report_for(spectrum, env, LOOKUP_FAMILIES[family_index])
        if keep:
            reports.append(report)
        p = report.point
        theta = math.nan if p.entropy_theta is None else p.entropy_theta
        return np.array([p.phi, p.entropy_J, theta, *p.observed.values()]).tobytes()
    surface = surfaces[env_name, family_index]
    if kind == "call":
        return np.float64(surface(values)).tobytes()
    if kind == "gradient":
        return np.array(list(surface.gradient(values, y_names).values())).tobytes()
    phi, H = surface.curvature(values, list(y_names))
    return np.float64(phi).tobytes() + H.tobytes()


LOOKUP_OPS = st.tuples(st.sampled_from(["report", "call", "gradient", "curvature"]),
                       st.sampled_from(sorted(LOOKUP_ENVS)), st.integers(0, 2), st.integers(0, 2),
                       st.booleans())


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.lists(LOOKUP_OPS, min_size=1, max_size=12))
# a surface whose held table is no longer the spectrum's last
@example([("call", "exchanged", 0, 0, False), ("report", "exchanged", 0, 2, True),
          ("gradient", "exchanged", 0, 0, False), ("curvature", "exchanged", 0, 0, False)])
def test_interleaved_lookups_match_a_fresh_spectrum(ops):
    spectrum, reports = lookup_spectrum(), []
    surfaces = lookup_surfaces(spectrum)
    for op in ops:
        fresh = lookup_spectrum()
        assert lookup_bits(spectrum, surfaces, reports, op) == lookup_bits(fresh, lookup_surfaces(fresh), [], op)


# ---------------------------------------------------------------------------
# q < 1: the curvature against the differenced exact mean


@pytest.mark.parametrize(
    "spectrum, y, q, name",
    [
        (einstein_solid(50, 100), {"E": 0.3}, 0.9, "E"),
        (lattice_gas(100), {"E": 0.7, "N": 0.2}, 0.9, "N"),
        (lattice_gas(100), {"E": 0.7, "N": 0.2}, 0.2, "N"),
        (einstein_solid(5, 40), {"E": 0.5}, 0.2, "E"),
    ],
    ids=["einstein50-q0.9", "lattice_gas100-q0.9", "lattice_gas100-q0.2", "einstein5-q0.2"],
)
def test_curvature_matches_differenced_mean_below_q_one(spectrum, y, q, name):
    fam = SqueezeFamily.tsallis(q)
    env = EnsembleSpec(fixed_intensive=y)
    names = sorted(y)
    H = stability_matrix(phi_surface_from_spectrum(spectrum, env, fam), env.values(), names)

    def mean_at(v):
        return observed_mean(spectrum, EnsembleSpec(fixed_intensive={**y, name: v}), fam, name)

    # a step of 3e-3 resolves these derivatives to ~2e-7 (checked against
    # 50-digit sums); smaller steps lose digits to the size of phi
    d_mean = central_derivative(mean_at, y[name], rel_step=3e-3)
    i = names.index(name)
    assert H[i, i] == pytest.approx(d_mean, rel=1e-6)


def test_cli_fluct_variance_below_q_one(capsys):
    argv = ["fluct", "--model", "einstein_solid", "--param", "N=50", "--param", "E_max=100",
            "--y", "E=0.3", "--squeeze", "tsallis", "--q", "0.9"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    spectrum, fam = einstein_solid(50, 100), SqueezeFamily.tsallis(0.9)

    def mean_at(v):
        return observed_mean(spectrum, EnsembleSpec(fixed_intensive={"E": v}), fam, "E")

    expected = -doc["tsallis_scale"] * central_derivative(mean_at, 0.3, rel_step=3e-3)
    assert doc["variances"]["E"] == pytest.approx(expected, rel=1e-6)
    assert round(doc["variances"]["E"], 3) == 78.463


# ---------------------------------------------------------------------------
# independent oracle: 50-digit direct sums


def direct_sums(x, ln_g, y, q):
    """phi, the means and the curvature by direct summation at 50 digits.

    Rows are the q-exponentials c = [1 + u (ln_q g - x.y)]_+^(1/u), u = 1 - q
    (c = g exp(-x.y) for the identity), T = sum c and P = c/T.  Then
    phi = -ln_q T, <X> = sum P^q X and
    d2 phi/dy dy = q T^(q-1) (<X><X>' - sum P^(2q-1) X X').
    Also returned: ``scale``, the same curvature sum taken over absolute
    values, ``cond``, a bound on the relative error of the row classes
    per unit rounding of the inputs (max over rows of (|ln h g| + |x.y| +
    1/|u|)/|1 + u (ln h g - x.y)|), and ``P``, the row probabilities as
    50-digit values in row order, 0 on rows beyond the cutoff."""
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        qm = mpf(q)
        u = 1 - qm
        ys = [mpf(float(v)) for v in y]
        cs, xs, cond, row_c = [], [], mpf(1), []
        for xr, lg in zip(x, ln_g):
            xy = mpmath.fsum(mpf(float(a)) * b for a, b in zip(xr, ys))
            if q == 1.0:
                c = mpmath.exp(mpf(float(lg)) - xy)
                cond = max(cond, abs(mpf(float(lg))) + abs(xy) + 1)
            else:
                ln_h = mpmath.expm1(u * mpf(float(lg))) / u
                arg = 1 + u * (ln_h - xy)
                cond = max(cond, (abs(ln_h) + abs(xy) + 1 / abs(u)) / abs(arg) if arg else mpmath.inf)
                if arg <= 0:
                    row_c.append(mpf(0))
                    continue
                c = arg ** (1 / u)
            cs.append(c)
            row_c.append(c)
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
            "cond": float(cond), "P": [c / T for c in row_c],
        }


@pytest.mark.parametrize("q", [1.0, 0.3, 0.9, 1.7])
def test_oracle_sums_are_the_derivatives_of_its_phi(q):
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [1.0, 3.0], [3.0, 2.0]])
    ln_g = np.array([0.0, 1.5, 2.0, 0.7, 3.1])
    y = np.array([0.4, 0.3])
    ref = direct_sums(x, ln_g, y, q)
    with mpmath.workdps(50):
        f = mp_phi(x, ln_g, q)
        point = [mpmath.mpf(float(v)) for v in y]
        grad = [mpmath.diff(f, point, (1, 0)), mpmath.diff(f, point, (0, 1))]
        hess = [[mpmath.diff(f, point, (2, 0)), mpmath.diff(f, point, (1, 1))],
                [mpmath.diff(f, point, (1, 1)), mpmath.diff(f, point, (0, 2))]]
        assert float(f(*point)) == pytest.approx(ref["phi"], rel=1e-15)
    assert np.allclose(np.array(grad, dtype=float), ref["mean"], rtol=1e-14, atol=0)
    assert np.allclose(np.array(hess, dtype=float), ref["H"], rtol=1e-14, atol=0)


@st.composite
def spectrum_states(draw):
    """2-30 distinct rows in one or two variables, ln g in [0, 60], the
    identity or q in [0.1, 3]; half of the deformed states put one row
    within 1e-3 of its cutoff."""
    k = draw(st.integers(1, 2))
    n = draw(st.integers(2, 30))
    keys = draw(st.lists(st.tuples(*[st.integers(-20, 20)] * k), min_size=n, max_size=n, unique=True))
    x = np.array(keys, dtype=float) * draw(st.sampled_from([0.25, 1.0, 3.0]))
    ln_g = np.array(draw(st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n)))
    q = draw(st.one_of(st.just(1.0), st.floats(0.1, 3.0)))
    y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    r = draw(st.integers(0, n - 1))
    if q != 1.0 and x[r, 0] != 0.0 and draw(st.booleans()):
        u = 1.0 - q
        if u > 0:  # keep the row's ln h(g) moderate, else x.y cancels it
            ln_g[r] = min(ln_g[r], math.log(1001.0) / u)
        gap = draw(st.floats(1e-6, 1e-3))
        ln_h = math.expm1(u * ln_g[r]) / u
        y[0] = (ln_h + (1.0 - gap) / u - x[r, 1:] @ y[1:]) / x[r, 0]
    return x, ln_g, q, y


@settings(deadline=None, max_examples=150, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spectrum_states())
def test_phi_gradient_and_curvature_against_direct_sums(state):
    x, ln_g, q, y = state
    ref = direct_sums(x, ln_g, y, q)
    assume(ref is not None and ref["cond"] * EPS < 1e-8)
    names = ["A", "B"][: x.shape[1]]
    spectrum = DegeneracySpectrum(names, x, ln_g)
    env = EnsembleSpec(fixed_intensive=dict(zip(names, map(float, y))))
    fam = IDENT if q == 1.0 else SqueezeFamily.tsallis(q)
    surface = phi_surface_from_spectrum(spectrum, env, fam)
    phi, H = surface.curvature(env.values(), names)
    grad = surface.gradient(env.values(), names)
    # first-order error bounds: each row class carries a relative error of
    # about cond * eps, which the means raise to the power q and the
    # curvature terms to 2q - 1, next to an error of q in ln T
    err = 64.0 * EPS * ref["cond"]
    assert phi == surface(env.values())
    assert abs(phi - ref["phi"]) <= err * (ref["T_u"] + abs(ref["phi"]))
    for i, n in enumerate(names):
        assert abs(grad[n] - ref["mean"][i]) <= err * max(1.0, q) * ref["abs_mean"][i]
    assert np.all(np.abs(H - ref["H"]) <= err * (1.0 + 3.0 * q) * ref["scale"])


@settings(deadline=None, max_examples=150, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spectrum_states())
def test_probabilities_and_entropy_against_direct_sums(state):
    x, ln_g, q, y = state
    ref = direct_sums(x, ln_g, y, q)
    assume(ref is not None and ref["cond"] * EPS < 1e-8)
    names = ["A", "B"][: x.shape[1]]
    spectrum = DegeneracySpectrum(names, x, ln_g)
    env = EnsembleSpec(fixed_intensive=dict(zip(names, map(float, y))))
    fam = IDENT if q == 1.0 else SqueezeFamily.tsallis(q)
    probs = engine.probabilities(engine.report_for(spectrum, env, fam).table)
    # each row class carries a relative error of about cond * eps (as above), and so
    # does each probability; config probabilities divide by the spectrum's counts g
    # (exp(ln g), snapped to an integer within 1e-9), the entropy sums over ln p = ln P - ln g
    err, tiny = 64.0 * EPS * ref["cond"], np.finfo(float).tiny
    with mpmath.workdps(50):
        P = ref["P"]
        config = [p / mpmath.mpf(float(g)) for p, g in zip(P, spectrum.g)]
        lgs = [mpmath.mpf(float(lg)) for lg in ln_g]
        rows = [(p, mpmath.log(p) - lg, lg) for p, lg in zip(P, lgs) if p]  # (P, ln p, ln g) of live rows
        if q == 1.0:
            S = -mpmath.fsum(p * lp for p, lp, _ in rows)
            S_scale = mpmath.fsum(p * (abs(lp) + 1) for p, lp, _ in rows)
        else:
            terms = [mpmath.exp(lg + q * lp) for _, lp, lg in rows]  # g p**q
            S = (mpmath.fsum(terms) - 1) / (1 - q)
            S_scale = mpmath.fsum(t * (lg + q * abs(lp) + 1 + q) for t, (_, lp, lg) in zip(terms, rows))
            S_scale = S_scale / abs(1 - q) + abs(S)  # and the rounding of expm1 and of the quotient
        P, config = np.array(P, dtype=float), np.array(config, dtype=float)
        S, S_scale = float(S), float(S_scale)
    assert probs.excluded.tolist() == [not p for p in ref["P"]]
    assert np.all(np.abs(probs.macro_probs - P) <= err * P + tiny)
    assert np.all(np.abs(probs.config_probs - config) <= err * config + tiny)
    assert abs(engine.entropy_from_probabilities(probs, fam) - S) <= err * S_scale


def test_large_potential_state_against_direct_sums():
    # q = 0.8 rows with ln g near 50: phi ~ -1e5
    x = np.arange(12.0)[:, None]
    ln_g = np.linspace(45.0, 52.0, 12)
    y = np.array([0.05])
    ref = direct_sums(x, ln_g, y, 0.8)
    spectrum = DegeneracySpectrum(["E"], x, ln_g)
    env = EnsembleSpec(fixed_intensive={"E": 0.05})
    phi, H = phi_surface_from_spectrum(spectrum, env, SqueezeFamily.tsallis(0.8)).curvature(env.values(), ["E"])
    assert 1e4 < abs(ref["phi"]) < 1e6
    assert phi == pytest.approx(ref["phi"], rel=1e-12)
    assert H[0, 0] == pytest.approx(ref["H"][0, 0], rel=1e-9)


# ---------------------------------------------------------------------------
# custom families and q < 1/2


def square_law():
    """h(x) = x**2: ln h = 2 ln g, ln H = ln x / 2, dh/dx = 2x."""
    return SqueezeFamily.custom(lambda v: 2.0 * v, lambda v: 0.5 * v, lambda v: 2.0 * math.exp(v))


def quadratic():
    """h(x) = x + x**2, whose log-slope elasticity varies with x."""
    return SqueezeFamily.custom(
        lambda v: v + math.log1p(math.exp(v)),
        lambda w: math.log(2.0) + w - math.log1p(math.sqrt(1.0 + 4.0 * math.exp(w))),
        lambda v: 1.0 + 2.0 * math.exp(v),
    )


def test_custom_elasticity_against_closed_form():
    ln_x = np.linspace(-6.0, 6.0, 25)
    xv = np.exp(ln_x)
    exact = 2.0 * xv / (1.0 + 2.0 * xv) - 1.0 - xv / (1.0 + xv)
    assert np.allclose(quadratic().slope_elasticity_arr(ln_x), exact, rtol=0, atol=1e-9)
    assert np.allclose(square_law().slope_elasticity_arr(ln_x), -1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("family", [square_law, quadratic], ids=["square_law", "quadratic"])
@pytest.mark.parametrize(
    "spectrum, y",
    [(lattice_gas(20), {"E": 0.7, "N": 0.2}), (einstein_solid(2, 60), {"E": 1.0})],
    ids=["lattice_gas20", "einstein2"],
)
def test_custom_family_curvature_against_richardson(family, spectrum, y):
    fam = family()
    env = EnsembleSpec(fixed_intensive=y)
    surface = phi_surface_from_spectrum(spectrum, env, fam)
    names = sorted(y)
    H = stability_matrix(surface, env.values(), names)
    H_fd = hessian(surface, env.values(), names)  # differences of phi alone
    assert np.allclose(H, H_fd, rtol=0, atol=1e-7 * np.max(np.abs(H_fd)))
    grad = conjugates_from_phi(surface, env.split, env.values())
    grad_fd = conjugates(surface, env.split, env.values())
    for n in names:
        assert grad[n] == pytest.approx(grad_fd[n], rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
def test_curvature_near_the_cutoff_below_q_half_is_finite(gap):
    # two levels at q = 0.2: the upper row's class is gap**(1/u) (u = 0.8)
    # and its curvature term grows like that class to the power 2q - 1
    q, u = 0.2, 0.8
    spectrum = DegeneracySpectrum(["E"], np.array([[0.0], [1.0]]), np.zeros(2))
    y = (1.0 - gap) / u
    env = EnsembleSpec(fixed_intensive={"E": y})
    fam = SqueezeFamily.tsallis(q)
    surface = phi_surface_from_spectrum(spectrum, env, fam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        rep = moments(surface, env.values(), ["E"], fam)
    assert not engine.characteristic_class(spectrum, env, fam).excluded.any()
    assert math.isfinite(rep.variances["E"]) and rep.variances["E"] > 0
    ref = direct_sums(spectrum.x, spectrum.ln_g, np.array([y]), q)
    err = 64.0 * EPS * ref["cond"] * (1.0 + 3.0 * q) * ref["scale"][0, 0]
    assert abs(-rep.G_inv[0, 0] - ref["H"][0, 0]) <= err


def tsallis_hooks(q):
    """The power law of index q as custom hooks; ln H reads NaN past the cutoff, as a hook may."""
    u = 1.0 - q

    def ln_H(w):
        t = u * w
        return math.log1p(t) / u if t > -1.0 else math.nan

    return SqueezeFamily.custom(lambda v: math.expm1(u * v) / u, ln_H,
                                lambda v: math.exp(math.expm1(u * v) / u - q * v))


def test_custom_family_excluded_rows_read_minus_inf_as_the_power_law():
    # ln u = E here, so at q = 1.5 the rows with E >= 2 are past the cutoff
    spectrum = DegeneracySpectrum(("E",), np.arange(6.0), np.zeros(6))
    env = EnsembleSpec(fixed_intensive={"E": -1.0})
    hooks, power = (engine.report_for(spectrum, env, fam).columns()
                    for fam in (tsallis_hooks(1.5), SqueezeFamily.tsallis(1.5)))
    assert hooks["excluded"].tolist() == power["excluded"].tolist() == [False, False, True, True, True, True]
    assert hooks["ln_class"][2:].tolist() == power["ln_class"][2:].tolist() == [-math.inf] * 4
    for name in ("ln_class", "macro_prob", "config_prob", "boltzmann_factor"):
        np.testing.assert_allclose(hooks[name], power[name], rtol=1e-14, atol=0)
        assert hooks[name][2:].tolist() == [-math.inf if name == "ln_class" else 0.0] * 4


def where_probabilities(table):
    """(macro, config, ln config, Boltzmann factor) per row as formed while excluded
    rows were set to 0 with np.where; the reference for the forms without it."""
    s, excluded = table.spectrum, table.excluded
    ln_macro = table.ln_row_class - table.ln_total
    macro = np.where(excluded, 0.0, np.exp(ln_macro))
    ln_config = ln_macro - table.ln_g
    num = engine._exp_rows(table.ln_row_class)
    with np.errstate(invalid="ignore", over="ignore"):
        config, bf = np.exp(ln_config), np.exp(table.ln_row_class - s.ln_g)
    np.divide(macro, s.g, out=config, where=np.isfinite(macro) & s._g_divides)
    np.divide(num, s.g, out=bf, where=np.isfinite(num) & s._g_divides)
    return macro, np.where(excluded, 0.0, config), ln_config, np.where(excluded, 0.0, bf)


WHERE_FAMILIES = (IDENT, *map(SqueezeFamily.tsallis, (0.2, 0.5, 1.5, 2.0)), tsallis_hooks(1.5))


@settings(deadline=None, max_examples=200, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spectrum_states(), st.sampled_from(WHERE_FAMILIES))
def test_probabilities_keep_their_bits_without_where(state, fam):
    x, ln_g, _, y = state
    names = ["A", "B"][: x.shape[1]]
    spectrum = DegeneracySpectrum(names, x, ln_g)
    env = EnsembleSpec(fixed_intensive=dict(zip(names, map(float, y))))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the hooks' slope underflows far below 1
            report = engine.report_for(spectrum, env, fam)
    except (engine.DegenerateEnsembleError, engine.SqueezeDomainError, RuntimeWarning):
        assume(False)
    probs = engine.probabilities(report.table)
    got = (probs.macro_probs, probs.config_probs, probs.ln_config, report.columns()["boltzmann_factor"])
    for g, ref in zip(got, where_probabilities(report.table)):
        assert g.tobytes() == ref.tobytes()
