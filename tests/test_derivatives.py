"""Derivatives of phi read from the class table.

A spectrum surface gives the gradient of phi (the observed means) and its
curvature from one class pass.  These tests pin the pass counts, check
the q < 1 states where second differences of phi lost the curvature,
compare phi, the means, the curvature, the probabilities, the entropies,
the Boltzmann factors and a product spectrum with 50-digit direct sums,
and cover the growth of the curvature next to a cutoff at q < 1/2."""

import copy
import dataclasses
import fractions
import gc
import itertools
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
from sqzstat.errors import ModelValidationError, SqueezeDomainError
from sqzstat.fluctuation import StabilityWarning, moments
from sqzstat.models import einstein_solid, lattice_gas, spin_half_paramagnet, two_level

from differencing import direct_sums, mp_derivative, mp_phi
from families import combine_independent, entropy_from_probabilities

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


def test_shared_table_hits_on_an_equal_family(class_passes):
    # a family is its q: tsallis(1) is the identity, and equal objects share one pass
    spectrum, env = lattice_gas(30), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    for fam, other_fam in ((SqueezeFamily.tsallis(0.7), SqueezeFamily.tsallis(0.7)),
                           (IDENT, SqueezeFamily.tsallis(1.0))):
        assert other_fam == fam and other_fam is not fam
        report = engine.report_for(spectrum, env, fam)
        assert engine.report_for(spectrum, env, other_fam).table is report.table
    assert len(class_passes) == 2


@pytest.mark.parametrize("change", ["another_q", "name_order"])
def test_shared_table_misses_on_another_family_object_or_name_order(class_passes, change):
    spectrum, y = lattice_gas(30), {"E": 0.7, "N": 0.2}
    env, fam = EnsembleSpec(fixed_intensive=y), SqueezeFamily.tsallis(0.7)
    report = engine.report_for(spectrum, env, fam)
    if change == "another_q":
        other_env, other_fam = env, SqueezeFamily.tsallis(0.8)
    else:
        other_env, other_fam = EnsembleSpec(fixed_intensive={"N": 0.2, "E": 0.7}), fam
    other = engine.report_for(spectrum, other_env, other_fam)
    assert len(class_passes) == 2
    assert other.table is not report.table and other.table.family is other_fam
    if change == "name_order":  # the same point under another key
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


# ---------------------------------------------------------------------------
# the lookup keeps the pinned rows: one restriction per spectrum and pinned values


@pytest.fixture
def spectra_built(monkeypatch):
    """Counts the DegeneracySpectrum objects built (each validated in full)."""
    calls = []
    original = DegeneracySpectrum.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(DegeneracySpectrum, "__post_init__", counting)
    return calls


PINNED_SWEEP = ["sweep", "--model", "lattice_gas", "--param", "sites=200", "--y", "E=0.1", "--X", "N=2",
                "--axis", "E", "--range", "0.1:0.5", "--steps", "20", "--squeeze", "tsallis", "--q", "1.5"]


def test_a_pinned_sweep_restricts_its_spectrum_once(spectra_built, capsys):
    assert main(PINNED_SWEEP) == 0
    assert len(spectra_built) == 2  # the model's spectrum and its one restriction
    spectrum, family = lattice_gas(200), SqueezeFamily.tsallis(1.5)
    spectra_built.clear()
    reports = [engine.report_for(spectrum, EnsembleSpec({"E": y}, {"N": 2.0}), family)
               for y in np.linspace(0.1, 0.5, 20).tolist()]
    assert len(spectra_built) == 1
    assert all(r.table.spectrum is reports[0].table.spectrum for r in reports)
    # the kept rows give every point's bits, as a fresh spectrum at each point does
    for r in reports:
        env = r.table.env
        fresh = engine.report_for(lattice_gas(200), env, family)
        assert fresh.point == r.point
        assert fresh.table.ln_row_class.tobytes() == r.table.ln_row_class.tobytes()


def test_a_new_pinned_value_or_another_spectrum_restricts_again(spectra_built):
    a, b, family = lattice_gas(30), lattice_gas(30), SqueezeFamily.tsallis(1.5)
    spectra_built.clear()

    def at(spectrum, n):
        return engine.report_for(spectrum, EnsembleSpec({"E": 0.7}, {"N": n}), family)

    two, three = at(a, 2.0), at(a, 3.0)
    assert len(spectra_built) == 2
    assert two.table.spectrum.ln_g.tolist() != three.table.spectrum.ln_g.tolist()
    other = at(b, 3.0)
    assert len(spectra_built) == 3 and other.table.spectrum is not three.table.spectrum
    zero, minus_zero = at(a, 0.0), at(a, -0.0)
    assert len(spectra_built) == 4  # N = 0 and N = -0 select the same rows ...
    assert minus_zero.table.spectrum is zero.table.spectrum
    assert minus_zero.table is not zero.table  # ... and stay two points
    assert minus_zero.table.env.fixed_extensive["N"] is not zero.table.env.fixed_extensive["N"]


def test_a_restriction_to_equal_rows_is_still_rejected():
    # N within 1e-9 of the pinned 1.0 on both rows, which are equal once N is dropped
    spectrum = DegeneracySpectrum(("E", "N"), np.array([[0.0, 1.0], [0.0, 1.0 + 1e-10]]), np.zeros(2))
    with pytest.raises(ModelValidationError, match="distinct"):
        engine.report_for(spectrum, EnsembleSpec({"E": 0.7}, {"N": 1.0}), IDENT)


SURFACE_READS = {
    "phi": lambda surface, point: surface(point),
    "gradient": lambda surface, point: surface.gradient(point, ["E"]),
    "curvature": lambda surface, point: surface.curvature(point, ["E"]),
    "moments": lambda surface, point: moments(surface, point, ["E"], surface.family),
    "conjugates_from_phi": lambda surface, point: conjugates_from_phi(surface, surface.env.split, point),
}


@pytest.mark.parametrize("read", sorted(SURFACE_READS))
def test_a_point_without_an_environment_name_is_a_model_error(read):
    surface = phi_surface_from_spectrum(lattice_gas(10), EnsembleSpec({"E": 0.7, "N": 0.2}), IDENT)
    with pytest.raises(ModelValidationError, match="the point has no value for 'N'"):
        SURFACE_READS[read](surface, {"E": 0.7})
    pinned = phi_surface_from_spectrum(lattice_gas(10), EnsembleSpec({"E": 0.7}, {"N": 2.0}), IDENT)
    if read != "conjugates_from_phi":  # which takes exchanged names only
        with pytest.raises(ModelValidationError, match="the point has no value for 'N'"):
            SURFACE_READS[read](pinned, {"E": 0.7})


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
    fields = table.ln_row_class.nbytes + table.excluded.nbytes + table.spectrum.x.nbytes
    assert fields == 17 * n
    assert held <= fields + 64 * 1024


def test_class_table_caches_floats_only_and_is_taken_over_the_callers_spec():
    spectrum, env = lattice_gas(20), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    report = engine.report_for(spectrum, env, SqueezeFamily.tsallis(0.7))
    table = report.table
    assert table.env is env
    phi_surface_from_spectrum(spectrum, env, table.family).curvature(env.values(), ["E", "N"])
    # phi and the means are floats the class pass sets; no read caches anything on the table,
    # and its only per-row arrays are ln c and the excluded mask
    assert set(vars(table)) == {f.name for f in dataclasses.fields(table)}
    assert {k for k, v in vars(table).items() if isinstance(v, np.ndarray)} == {"ln_row_class", "excluded"}
    assert type(table.phi) is float
    assert type(table.means) is tuple and all(type(v) is float for v in table.means)
    assert type(table.second_sums) is tuple and len(table.second_sums) == 2
    assert all(type(row) is tuple and len(row) == 2 and all(type(v) is float for v in row)
               for row in table.second_sums)


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("q", [1.0, 0.5, 1.5])
@pytest.mark.parametrize("names", [("N", "E"), ("E",), ("N",)], ids=["reversed", "E", "N"])
def test_reordered_and_subset_reads_are_the_full_read_permuted_bit_for_bit(q, names):
    # the class pass forms every entry once, in the spectrum's column order; a read picks them
    spectrum, y = lattice_gas(30), {"E": 0.7, "N": 0.2}
    env, family = EnsembleSpec(fixed_intensive=y), SqueezeFamily.tsallis(q)
    surface = phi_surface_from_spectrum(spectrum, env, family)
    full = ("E", "N")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)  # E and N of a lattice gas: a flat direction
        rep_full, rep = moments(surface, y, full, family), moments(surface, y, names, family)
    grad_full, grad = surface.gradient(y, full), surface.gradient(y, names)
    (phi_full, H_full), (phi, H) = surface.curvature(y, full), surface.curvature(y, names)
    cols = [full.index(n) for n in names]
    assert phi == phi_full
    assert bits(H) == bits(H_full[np.ix_(cols, cols)])
    assert [bits(grad[n]) for n in names] == [bits(grad_full[n]) for n in names]
    assert [bits(rep.variances[n]) for n in names] == [bits(rep_full.variances[n]) for n in names]
    if len(names) == 2:
        assert bits(rep.covariances["N", "E"]) == bits(rep_full.covariances["E", "N"])


NE, ABC = list(itertools.product(range(4), range(5))), list(itertools.product(range(4), repeat=3))
COUPLED = {  # coupled degeneracies, so every entry of C is nonzero and the second sums round apart
    "permuted": (DegeneracySpectrum(("N", "E"), np.array(NE, float),
                                    np.array([0.3 * n * e + 0.5 * n + 0.2 * e for n, e in NE])),
                 {"N": 0.3, "E": 0.6}),
    "three": (DegeneracySpectrum(("a", "b", "c"), np.array(ABC, float),
                                 np.array([0.25 * (a * b + b * c) + 0.5 * c for a, b, c in ABC])),
              {"a": 0.4, "b": 0.7, "c": 0.2}),
}


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5])
@pytest.mark.parametrize("case", sorted(COUPLED))
def test_curvature_is_symmetric_to_the_bit_in_any_order_of_names(case, q):
    # each entry is formed from its unordered pair of columns, so no reader symmetrizes H
    spectrum, y = COUPLED[case]
    surface = phi_surface_from_spectrum(spectrum, EnsembleSpec(fixed_intensive=y), SqueezeFamily.tsallis(q))
    full = spectrum.variable_names
    _, H_full = surface.curvature(y, full)
    ref = direct_sums(spectrum.x, spectrum.ln_g, np.array([y[n] for n in full]), q)
    assert np.all(np.abs(H_full - ref["H"]) <= 64.0 * EPS * ref["cond"] * (1.0 + 3.0 * q) * ref["scale"])
    for names in itertools.permutations(full):
        _, H = surface.curvature(y, names)
        cols = [full.index(n) for n in names]
        assert bits(H) == bits(H.T)
        assert bits(H) == bits(H_full[np.ix_(cols, cols)])


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.floats(-800.0, 800.0), st.sampled_from([0.5, 1.5, 3.0]),
       *[st.floats(1e-300, 1e300).flatmap(lambda v: st.sampled_from([v, -v]))] * 2)
def test_a_product_is_the_same_for_either_order_of_its_factors(ln_t, q, u, v):
    a = q * math.exp(ln_t) if ln_t <= 709.0 else math.inf
    assert bits(engine._a_product(a, q, ln_t, u, v)) == bits(engine._a_product(a, q, ln_t, v, u))


def test_overflowing_curvature_raises_only_when_read():
    # phi and <E> ~ 1e200 are finite, the curvature ~ <E>^2 is not: the class pass forms its
    # second sums without a RuntimeWarning (an error under this suite's filters)
    spectrum = DegeneracySpectrum(("E",), np.array([0.0, 1e200]), np.zeros(2))
    env = EnsembleSpec(fixed_intensive={"E": 1e-200})
    report = engine.report_for(spectrum, env, IDENT)
    assert math.isfinite(report.point.phi) and report.point.observed["E"] > 1e199
    surface = phi_surface_from_spectrum(spectrum, env, IDENT)
    with pytest.raises(SqueezeDomainError, match="curvature of phi exceeds the float range"):
        surface.curvature(env.values(), ["E"])
    with pytest.raises(SqueezeDomainError, match="curvature of phi exceeds the float range"):
        moments(surface, env.values(), ["E"], IDENT)


@pytest.mark.parametrize("n, q, rel", [
    (2, 1026.0, 1e-11), (3, 648.0, 1e-11), (1_000_000, 60.0, 1e-11),
    (10_001, 80.0, 1e-3),  # its weights P^q ~ 1e-320 are subnormal, with ~11 bits
    (10_001, 70.0, 1e-11),  # a is finite, but <E>^2 ~ 1e-545 underflows: a <E>^2 is a sum of logs
])
def test_curvature_where_a_alone_leaves_the_float_range(n, q, rel):
    # n classes of 1 (ln g = 0 at y = 0): T = n, P = 1/n, and H = -q n^(1-q) Var(E) for E = 0 .. n-1,
    # while a = q T^(q-1) is beyond the float range, where math.exp raised OverflowError (at q = 70
    # a is finite, and a <E>^2 read 0 from the underflowed <E>^2)
    spectrum = DegeneracySpectrum(("E",), np.arange(n, dtype=float)[:, None], np.zeros(n))
    env = EnsembleSpec(fixed_intensive={"E": 0.0})
    surface = phi_surface_from_spectrum(spectrum, env, SqueezeFamily.tsallis(q))
    _, H = surface.curvature(env.values(), ["E"])
    with mpmath.workdps(50):
        n_mp = mpmath.mpf(n)
        closed = float(-q * n_mp ** (1 - q) * (n_mp**2 - 1) / 12)  # -0.0 at n = 1e6: below the range
    assert H[0, 0] == pytest.approx(closed, rel=rel, abs=1e-320)


def test_a_mean_beyond_the_float_range_is_a_domain_error():
    # at q = 0.5 two rows of P = 1/2 give <E> = sum P^q E = 0.71 (1e308 + 1.7e308) while phi is
    # finite: the class pass rejects it as it rejects phi, with no RuntimeWarning (an error under
    # this suite's filters) and no inf in a report
    spectrum = DegeneracySpectrum(("E",), np.array([1e308, 1.7e308]), np.zeros(2))
    env = EnsembleSpec(fixed_intensive={"E": 0.0})
    with pytest.raises(SqueezeDomainError, match="an observed mean exceeds the float range at"):
        engine.report_for(spectrum, env, SqueezeFamily.tsallis(0.5))
    assert engine.report_for(spectrum, env, IDENT).point.observed["E"] == 0.5 * 1e308 + 0.5 * 1.7e308


def test_configuration_probability_over_a_g_below_the_float_range_reads_inf():
    # g = e^-720 ~ 2e-313 holds P = 1, so P / g is beyond the float range: it reads inf with no
    # RuntimeWarning (an error under this suite's filters)
    spectrum = DegeneracySpectrum(("E",), np.array([-1000.0, 0.0]), np.array([-720.0, 0.0]))
    cols = engine.report_for(spectrum, EnsembleSpec(fixed_intensive={"E": 1.0}), IDENT).columns()
    assert cols["x_E"].tolist() == [-1000.0, 0.0]
    assert cols["macro_prob"].tolist() == [1.0, math.exp(-280.0)]
    assert cols["config_prob"].tolist() == [math.inf, math.exp(-280.0)]


@pytest.mark.parametrize("name", ["N", "Q"], ids=["pinned", "unknown"])
def test_surface_reads_of_a_name_not_exchanged_name_it(name):
    env = EnsembleSpec(fixed_intensive={"E": 0.5}, fixed_extensive={"N": 3})
    surface = phi_surface_from_spectrum(lattice_gas(20), env, IDENT)
    message = f"no exchanged variable '{name}' in spectrum"
    for read in (surface.gradient, surface.curvature):
        with pytest.raises(ModelValidationError, match=message):
            read(env.values(), ["E", name])
    with pytest.raises(ModelValidationError, match=message):
        moments(surface, env.values(), [name], IDENT)


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
# q < 1: the curvature against the exact mean, differenced at 50 digits


def curvature_error(ref, q, i):
    """The error bound of the engine's H[i, i] (as for every curvature below): 64 eps cond
    (1 + 3q) times the entry's scale."""
    return 64.0 * EPS * ref["cond"] * (1.0 + 3.0 * q) * ref["scale"][i, i]


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
    H = phi_surface_from_spectrum(spectrum, env, fam).curvature(env.values(), names)[1]
    # d<X>/dy = d2 phi/dy2 of the 50-digit phi; the spectrum's variables are in sorted order
    assert list(spectrum.variable_names) == names
    yv = [y[n] for n in names]
    d_mean = mp_derivative(spectrum.x, spectrum.ln_g, yv, q, [2 * (n == name) for n in names])
    i = names.index(name)
    ref = direct_sums(spectrum.x, spectrum.ln_g, np.array(yv), q)
    assert abs(H[i, i] - d_mean) <= curvature_error(ref, q, i)


def test_cli_fluct_variance_below_q_one(capsys):
    argv = ["fluct", "--model", "einstein_solid", "--param", "N=50", "--param", "E_max=100",
            "--y", "E=0.3", "--squeeze", "tsallis", "--q", "0.9"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    spectrum = einstein_solid(50, 100)
    ref = direct_sums(spectrum.x, spectrum.ln_g, np.array([0.3]), 0.9)
    scale = doc["tsallis_scale"]
    assert abs(doc["variances"]["E"] + scale * ref["H"][0, 0]) <= abs(scale) * curvature_error(ref, 0.9, 0)
    assert round(doc["variances"]["E"], 3) == 78.463


# ---------------------------------------------------------------------------
# independent oracle: 50-digit direct sums


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


# The three repros below fail while the engine forms the power-law row class as
# 1 + u (ln_q g - x.y): for q > 1, ln_q g saturates at 1/(q - 1) and the
# bracket cancels to rounding noise once (q - 1) ln g exceeds ~37.

@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_power_law_phi_of_large_degeneracies_against_direct_sums():
    spectrum, y, q = spin_half_paramagnet(40), 0.01, 2.5
    ref = direct_sums(spectrum.x, spectrum.ln_g, np.array([y]), q)
    env = EnsembleSpec(fixed_intensive={"M": y})
    phi = engine.report_for(spectrum, env, SqueezeFamily.tsallis(q)).point.phi
    assert phi == pytest.approx(ref["phi"], rel=1e-12)  # engine -0.665262, direct sum -0.666667


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_power_law_one_row_class_of_a_large_degeneracy_is_live():
    g = 705_432.0  # C(22, 11), the one row at M = 0; the engine calls it excluded
    env = EnsembleSpec(fixed_extensive={"M": 0.0})
    phi = engine.report_for(spin_half_paramagnet(22), env, SqueezeFamily.tsallis(4.0)).point.phi
    assert phi == pytest.approx(-(1.0 - g**-3) / 3.0, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_power_law_state_of_1e19_oscillators_against_direct_sums():
    # compute --model einstein_solid --param N=1e19 --param E_max=17 --y E=0 --squeeze tsallis --q 2
    # exits 0 with phi = -0.0, <E> = 0 and 17 rows excluded; at 50 digits ln T = 710.23
    spectrum, q = einstein_solid(10**19, 17), 2.0
    ref = direct_sums(spectrum.x, spectrum.ln_g, np.array([0.0]), q)
    point = engine.report_for(spectrum, EnsembleSpec(fixed_intensive={"E": 0.0}), SqueezeFamily.tsallis(q)).point
    assert point.phi == pytest.approx(ref["phi"], rel=1e-15)  # direct sum -1.0
    assert point.observed["E"] == pytest.approx(ref["mean"][0], rel=1e-12)  # direct sum 17.0


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
    # the reversed names read the oracle's entries in reversed order
    _, H_rev = surface.curvature(env.values(), names[::-1])
    grad_rev = surface.gradient(env.values(), names[::-1])
    for i, n in enumerate(names):
        assert abs(grad_rev[n] - ref["mean"][i]) <= err * max(1.0, q) * ref["abs_mean"][i]
    assert np.all(np.abs(H_rev - ref["H"][::-1, ::-1]) <= err * (1.0 + 3.0 * q) * ref["scale"][::-1, ::-1])


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
    table = engine.report_for(spectrum, env, fam).table
    probs = engine.probabilities(table)
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
    assert abs(entropy_from_probabilities(table) - S) <= err * S_scale


def entropy_J_scale(ref, y, q):
    """The size against which J = y.<X> - phi is rounded: phi's and each y_i <X_i>'s."""
    return ref["T_u"] + abs(ref["phi"]) + max(1.0, q) * float(np.abs(y) @ ref["abs_mean"])


@settings(deadline=None, max_examples=150, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spectrum_states())
def test_boltzmann_factors_and_entropies_against_direct_sums(state):
    x, ln_g, q, y = state
    ref = direct_sums(x, ln_g, y, q)
    assume(ref is not None and ref["cond"] * EPS < 1e-8)
    names = ["A", "B"][: x.shape[1]]
    spectrum = DegeneracySpectrum(names, x, ln_g)
    env = EnsembleSpec(fixed_intensive=dict(zip(names, map(float, y))))
    fam = IDENT if q == 1.0 else SqueezeFamily.tsallis(q)
    report = engine.report_for(spectrum, env, fam)
    point, column = report.point, report.columns()["boltzmann_factor"]
    # a row class carries a relative error of about cond * eps (as above), and so does its
    # quotient by the count g; J = y.<X> - phi carries those of the means and of phi.
    # Over 600 drawn states the errors reached 21 (factors) and 17 (J, theta) cond * eps
    err, tiny = 64.0 * EPS * ref["cond"], np.finfo(float).tiny
    with mpmath.workdps(50):
        factors = [float(c / mpmath.mpf(float(g))) for c, g in zip(ref["c"], spectrum.g)]
    for got, f in zip(column, factors, strict=True):
        assert abs(got - f) <= err * f + tiny
    J = float(y @ ref["mean"]) - ref["phi"]
    assert abs(point.entropy_J - J) <= err * entropy_J_scale(ref, y, q)
    assert point.entropy_theta == -point.phi  # no pinned variable: theta is -phi
    assert abs(point.entropy_theta + ref["phi"]) <= err * (ref["T_u"] + abs(ref["phi"]))


@settings(deadline=None, max_examples=60, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spectrum_states(), spectrum_states())
def test_product_spectrum_against_direct_sums(a, b):
    # the first system's q; the second keeps its first 6 rows, so that the product has at most 180
    (xa, ln_ga, q, ya), (xb, ln_gb, _, yb) = a, (b[0][:6], b[1][:6], b[2], b[3])
    sa, sb = (DegeneracySpectrum(["A", "B"][: x.shape[1]], x, lg) for x, lg in ((xa, ln_ga), (xb, ln_gb)))
    ab = combine_independent(sa, sb)
    # every pair of rows once, x side by side, ln g the correctly rounded sum
    expected = {(*ra, *rb): float(fractions.Fraction(ga) + fractions.Fraction(gb))
                for ra, ga in zip(xa.tolist(), ln_ga.tolist()) for rb, gb in zip(xb.tolist(), ln_gb.tolist())}
    assert dict(zip(map(tuple, ab.x.tolist()), ab.ln_g.tolist())) == expected
    assert ab.n_rows == len(expected)
    y = np.concatenate([ya, yb])
    ref = direct_sums(ab.x, ab.ln_g, y, q)
    assume(ref is not None and ref["cond"] * EPS < 1e-8)
    env = EnsembleSpec(fixed_intensive=dict(zip(ab.variable_names, map(float, y))))
    point = engine.report_for(ab, env, IDENT if q == 1.0 else SqueezeFamily.tsallis(q)).point
    # over 200 drawn pairs the errors reached 8.2 cond * eps against the direct sums,
    # and 1.4 against the sums of the two systems
    err = 32.0 * EPS * ref["cond"]
    assert abs(point.phi - ref["phi"]) <= err * (ref["T_u"] + abs(ref["phi"]))
    means = np.array([point.observed[n] for n in ab.variable_names])
    assert np.all(np.abs(means - ref["mean"]) <= err * max(1.0, q) * ref["abs_mean"])
    assert abs(point.entropy_J - (float(y @ ref["mean"]) - ref["phi"])) <= err * entropy_J_scale(ref, y, q)
    if q == 1.0:  # independence: phi adds and each system keeps its own means
        parts, err = [direct_sums(xa, ln_ga, ya, 1.0), direct_sums(xb, ln_gb, yb, 1.0)], err / 4.0
        assert abs(point.phi - sum(r["phi"] for r in parts)) <= err * (2.0 + sum(abs(r["phi"]) for r in parts))
        part_mean = np.concatenate([r["mean"] for r in parts])
        assert np.all(np.abs(means - part_mean) <= err * np.concatenate([r["abs_mean"] for r in parts]))


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
# next to the cutoff: the curvature at q < 1/2, and excluded rows


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


def test_power_law_excluded_rows_read_minus_inf_and_zero():
    # ln u = E here, so at q = 1.5 the rows with E >= 2 are past the cutoff
    spectrum = DegeneracySpectrum(("E",), np.arange(6.0), np.zeros(6))
    env = EnsembleSpec(fixed_intensive={"E": -1.0})
    cols = engine.report_for(spectrum, env, SqueezeFamily.tsallis(1.5)).columns()
    assert cols["excluded"].tolist() == [False, False, True, True, True, True]
    for name in ("ln_class", "macro_prob", "config_prob", "boltzmann_factor"):
        assert cols[name][2:].tolist() == [-math.inf if name == "ln_class" else 0.0] * 4
        assert np.isfinite(cols[name][:2]).all()


def where_probabilities(table):
    """(macro, config, Boltzmann factor) per row as formed while excluded
    rows were set to 0 with np.where; the reference for the forms without it."""
    s, excluded = table.spectrum, table.excluded
    ln_macro = table.ln_row_class - table.ln_total
    macro = np.where(excluded, 0.0, np.exp(ln_macro))
    with np.errstate(invalid="ignore", over="ignore"):
        num = np.exp(table.ln_row_class)
        config, bf = np.exp(ln_macro - s.ln_g), np.exp(table.ln_row_class - s.ln_g)
    np.divide(macro, s.g, out=config, where=np.isfinite(macro) & s._g_divides)
    np.divide(num, s.g, out=bf, where=np.isfinite(num) & s._g_divides)
    return macro, np.where(excluded, 0.0, config), np.where(excluded, 0.0, bf)


WHERE_FAMILIES = (IDENT, *map(SqueezeFamily.tsallis, (0.2, 0.5, 1.5, 2.0)))


@settings(deadline=None, max_examples=200, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spectrum_states(), st.sampled_from(WHERE_FAMILIES))
def test_probabilities_keep_their_bits_without_where(state, fam):
    x, ln_g, _, y = state
    names = ["A", "B"][: x.shape[1]]
    spectrum = DegeneracySpectrum(names, x, ln_g)
    env = EnsembleSpec(fixed_intensive=dict(zip(names, map(float, y))))
    try:
        report = engine.report_for(spectrum, env, fam)
    except (engine.DegenerateEnsembleError, engine.SqueezeDomainError):
        assume(False)
    probs = engine.probabilities(report.table)
    got = (probs.macro_probs, probs.config_probs, report.columns()["boltzmann_factor"])
    for g, ref in zip(got, where_probabilities(report.table)):
        assert g.tobytes() == ref.tobytes()
