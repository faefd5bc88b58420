import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzstat import (
    DegeneracySpectrum,
    EnsembleSpec,
    SqueezeDomainError,
    SqueezeFamily,
    report_for,
)
from sqzstat.engine import model_from_json_dict, model_to_json_dict
from sqzstat.kinetics import _h
from sqzstat.models import two_level

from families import deformed_log

Q_GRID = [0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0]
ROUNDTRIP_Q = [0.05, 0.2, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.1, 1.5, 2.0, 3.0, 4.9, 7.0, 10.0]


# ---------------------------------------------------------------------------
# ln_squeeze, and the row class at x.y = 0 and beyond

def test_squeeze_identity_passthrough():
    fam = SqueezeFamily.identity()
    assert fam.ln_squeeze(0.7) == 0.7
    assert fam.ln_row_class(0.7, 0.0)[0] == 0.7


def test_squeeze_tsallis_q2_g2():
    # oracle: (2**(1-2) - 1)/(1-2) = 0.5
    fam = SqueezeFamily.tsallis(2.0)
    ln_2 = math.log(2.0)
    assert fam.ln_squeeze(ln_2) == pytest.approx(deformed_log(2.0, 2.0), abs=1e-14)
    assert fam.ln_squeeze(ln_2) == pytest.approx(0.5, abs=1e-14)
    assert fam.ln_row_class(ln_2, 0.0)[0] == ln_2
    # c = H(ln_q 2 - x.y) = 1/(1 - 0.5 + x.y) at x.y = 0.25
    assert fam.ln_row_class(ln_2, 0.25)[0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)


def test_squeeze_tsallis_q1_is_identity_branch():
    fam = SqueezeFamily.tsallis(1.0)
    assert fam.is_identity
    assert fam.ln_squeeze(math.log(5.0)) == math.log(5.0)
    assert fam.ln_row_class(math.log(5.0), 0.5)[0] == math.log(5.0) - 0.5


@pytest.mark.parametrize("kind, q, match", [
    ("Tsallis", 1.5, "unknown squeeze family 'Tsallis'"),
    ("custom", 1.0, "unknown squeeze family 'custom'"),
    ("tsallis", math.nan, "entropic index must be finite, got nan"),
    ("tsallis", -math.inf, "entropic index must be finite, got -inf"),
    ("direct", math.inf, "entropic index must be finite, got inf"),
])
def test_family_construction_rejects_what_it_cannot_compute(kind, q, match):
    # "tsallis" and "direct" build through tsallis(q) and SqueezeFamily(q); any other
    # kind is a family name, which only the model-file fragment can carry
    build = {"tsallis": SqueezeFamily.tsallis, "direct": SqueezeFamily}.get(
        kind, lambda q: _family_of({"family": kind, "q": q}))
    with pytest.raises(SqueezeDomainError, match=match):
        build(q)


def test_a_directly_built_family_computes_what_it_writes():
    fam = SqueezeFamily(1.5)
    assert fam == SqueezeFamily.tsallis(1.5) and fam.label() == "tsallis(q=1.5)"
    doc = report_for(two_level(1.0), EnsembleSpec(fixed_intensive={"E": 1.0}), fam).to_json_dict()
    assert doc["squeeze"] == {"family": "tsallis", "q": 1.5}
    assert doc["phi"] == pytest.approx(-0.33590, abs=1e-5)
    one = SqueezeFamily(1)  # q = 1 is the identity: equal to it, labelled and written as it
    assert one.is_identity and type(one.q) is float and one.label() == "identity"
    assert one == SqueezeFamily.identity() == SqueezeFamily.tsallis(1.0) == SqueezeFamily()
    assert hash(SqueezeFamily.tsallis(1.0)) == hash(SqueezeFamily.identity())
    report = report_for(two_level(1.0), EnsembleSpec(fixed_intensive={"E": 1.0}), SqueezeFamily.tsallis(1.0))
    assert report.to_json_dict()["squeeze"] == {"family": "identity"}


# ---------------------------------------------------------------------------
# ln_unsqueeze, and the row class at the cutoff

def test_unsqueeze_inverts_the_q2_example():
    fam = SqueezeFamily.tsallis(2.0)
    assert fam.ln_unsqueeze(0.5)[0] == pytest.approx(math.log(2.0), abs=1e-14)


def test_unsqueeze_identity_passthrough():
    fam = SqueezeFamily.identity()
    assert fam.ln_unsqueeze(-3.2)[0] == -3.2


def test_unsqueeze_cutoff_flags_excluded_state():
    # q = 0.5, ln_h = -2.5: 1 + 0.5*(-2.5) = -0.25 <= 0
    fam = SqueezeFamily.tsallis(0.5)
    ln_H, excluded = fam.ln_unsqueeze(-2.5)
    assert excluded and ln_H == -math.inf
    ln_c, excluded = fam.ln_row_class(0.0, 2.5)  # ln h(1) - x.y = -2.5
    assert excluded and ln_c == -math.inf


def test_unsqueeze_cutoff_above_one_for_q_greater_one():
    # q = 2: the inverse domain ends at ln_h = 1/(q-1); past it the
    # branch diverges and the value is reported as excluded
    fam = SqueezeFamily.tsallis(2.0)
    assert fam.ln_unsqueeze(np.array([0.99, 1.0, 1.2]))[1].tolist() == [False, True, True]
    # ln h(1) = 0, so ln h - x.y = 0.99, 1 and 1.2 at these x.y
    ln_c, excluded = fam.ln_row_class(0.0, np.array([-0.99, -1.0, -1.2]))
    assert excluded.tolist() == [False, True, True]
    assert ln_c[0] == pytest.approx(math.log(100.0), rel=1e-14)


# ---------------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("q", ROUNDTRIP_Q)
def test_roundtrip_invariant(q):
    # the row class at x.y = 0 is H(h(g)) = g: live, and ln g back to 1e-10
    fam = SqueezeFamily.tsallis(q)
    ln_g = np.concatenate([np.linspace(-700.0, 700.0, 1401), np.log(np.logspace(-6, 6, 100))])
    back, excluded = fam.ln_row_class(ln_g, 0.0)
    assert not excluded.any(), q
    assert np.abs(back - ln_g).max() < 1e-10, q


@pytest.mark.parametrize("q", Q_GRID)
def test_monotone_in_ln_g(q):
    fam = SqueezeFamily.tsallis(q)
    grid = np.log(np.logspace(-6, 6, 100))
    vals = fam.ln_squeeze(grid)
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("q", [1.0 - 1e-8, 1.0 + 1e-8])
def test_q_to_one_continuity(q):
    fam = SqueezeFamily.tsallis(q)
    for g in np.logspace(-3, 3, 60):
        ln_g = math.log(g)
        assert abs(fam.ln_squeeze(ln_g) - ln_g) < 1e-6


# ---------------------------------------------------------------------------
# one evaluation path: each kernel gives a float the bits it gives an array

FAMILIES = st.one_of(
    st.just(SqueezeFamily.identity()),
    st.floats(0.05, 4.0).map(SqueezeFamily.tsallis),
)
LN_G = st.one_of(st.floats(-700.0, 700.0), st.sampled_from([math.inf, -math.inf]))


def bits(v):
    return np.float64(v).view(np.uint64)


@settings(deadline=None, max_examples=300)
@given(fam=FAMILIES, values=st.lists(LN_G, min_size=1, max_size=40),
       xys=st.lists(st.floats(-5.0, 5.0), min_size=40, max_size=40))
def test_scalar_forms_equal_the_array_kernels_bitwise(fam, values, xys):
    arr = np.array(values)
    xy = np.array(xys[:len(values)])
    with np.errstate(all="ignore"):
        ln_h = fam.ln_squeeze(arr)
        ln_H, excluded = fam.ln_unsqueeze(arr)
        ln_c, excluded_c = fam.ln_row_class(arr, xy)
        for i, v in enumerate(values):
            assert bits(fam.ln_squeeze(v)) == bits(ln_h[i]), (fam.label(), v)
            ln_H_v, excluded_v = fam.ln_unsqueeze(v)
            assert bits(ln_H_v) == bits(ln_H[i]) and excluded_v == excluded[i], (fam.label(), v)
            ln_c_v, excluded_v = fam.ln_row_class(v, xys[i])
            assert bits(ln_c_v) == bits(ln_c[i]) and excluded_v == excluded_c[i], (fam.label(), v, xys[i])
    finite = np.isfinite(arr)
    assert np.array_equal(excluded[finite], ln_H[finite] == -math.inf)


@settings(deadline=None, max_examples=500)
@given(q=st.one_of(st.floats(0.05, 10.0), st.floats(1.0 - 1e-12, 1.0 + 1e-12)),
       ln_g=st.floats(-700.0, 700.0))
def test_roundtrip_property(q, ln_g):
    back, excluded = SqueezeFamily.tsallis(q).ln_row_class(ln_g, 0.0)
    assert not excluded and abs(back - ln_g) < 1e-10, (q, ln_g)


@pytest.mark.parametrize("n, q_range, ln_g_range, near_one", [
    (1000, (0.05, 10.0), (-700.0, 700.0), 100),
    (10000, (0.1, 5.0), (0.0, 60.0), 0),
], ids=["wide", "engine-range"])
def test_row_class_against_the_bracket_in_mpmath(n, q_range, ln_g_range, near_one):
    # the composed bracket 1 + u (ln_q g - x.y) cancels up to |u ln g| / ln 10
    # digits, so the oracle carries 40 more; the first ``near_one`` q lie
    # within 1e-12 of 1, and a third of the x.y are 0
    rng = np.random.default_rng(20260)
    qs = rng.uniform(*q_range, n)
    qs[:near_one] = 1.0 + rng.uniform(-1e-12, 1e-12, near_one)
    xys = np.where(rng.random(n) < 1.0 / 3.0, 0.0, rng.uniform(-5.0, 5.0, n))
    for q, ln_g, xy in zip(qs, rng.uniform(*ln_g_range, n), xys):
        ln_c, excluded = SqueezeFamily.tsallis(q).ln_row_class(ln_g, xy)
        with mpmath.workdps(40 + int(abs((1.0 - q) * ln_g) / math.log(10.0))):
            u = 1 - mpmath.mpf(float(q))
            bracket = 1 + u * (mpmath.expm1(u * float(ln_g)) / u - float(xy))
            assert bool(excluded) == (bracket <= 0), (q, ln_g, xy)
            if bracket > 0:
                ref = float(mpmath.log(bracket) / u)
                assert abs(ln_c - ref) <= 1e-12 * max(1.0, abs(ref)), (q, ln_g, xy)


# h of linear-domain populations is the kinetics' own, under the errstate of its callers

@pytest.mark.parametrize("q", Q_GRID)
def test_h_of_zero_is_the_limit_at_zero(q):
    with np.errstate(divide="ignore"):  # ln 0 = -inf
        h0 = _h(np.array([0.0, 1.0]), SqueezeFamily.tsallis(q))
    assert h0[1] == 1.0
    if q < 1.0:
        assert h0[0] == pytest.approx(math.exp(-1.0 / (1.0 - q)), rel=1e-15)
    else:
        assert h0[0] == 0.0


def test_h_of_zero_identity():
    F = np.array([0.0])
    assert _h(F, SqueezeFamily.identity()) is F  # the populations themselves: no copy, no log


def test_power_law_squeeze_beyond_the_float_range_names_the_input():
    # ln h = 2 (e^1000 - 1) leaves the float range: inf in the kernel, a
    # domain error naming ln g in the engine; the row class g stays finite
    fam = SqueezeFamily.tsallis(0.5)
    with np.errstate(over="ignore"):
        assert fam.ln_squeeze(2000.0) == math.inf
    assert fam.ln_row_class(2000.0, 0.0)[0] == 2000.0
    spectrum = DegeneracySpectrum(("E",), np.zeros((1, 1)), np.array([2000.0]))
    with pytest.raises(SqueezeDomainError, match="largest ln g = 2000"):
        report_for(spectrum, EnsembleSpec(fixed_intensive={"E": 0.5}), fam)


@pytest.mark.parametrize("q, ln_g", [(11.0, -71.0), (-9.0, 71.0)])
def test_power_law_squeeze_whose_exponent_overflows_names_the_input(q, ln_g):
    # |1 - q| = 10: (1 - q) ln g = 710 overflows e^710 itself, though 710 - ln 10 < 709
    fam = SqueezeFamily.tsallis(q)
    spectrum = DegeneracySpectrum(("E",), np.array([[0.0], [1.0]]), np.array([0.0, ln_g]))
    with pytest.raises(SqueezeDomainError, match="squeezed log-degeneracy exceeds the float range"):
        report_for(spectrum, EnsembleSpec(fixed_intensive={"E": 0.1}), fam)


# ---------------------------------------------------------------------------
# the squeeze fragment of a model document (read and written by the engine)

def _document(family: SqueezeFamily = SqueezeFamily.identity()) -> dict:
    return model_to_json_dict(two_level(), EnsembleSpec(fixed_intensive={"E": 1.0}), family)


def _family_of(fragment: dict) -> SqueezeFamily:
    return model_from_json_dict({**_document(), "squeeze": fragment})[2]


def test_config_roundtrip():
    fam = _family_of({"family": "tsallis", "q": 1.5})
    assert fam == SqueezeFamily.tsallis(1.5) and type(fam.q) is float
    assert model_from_json_dict(_document(fam))[2].q == 1.5
    assert _family_of({"family": "identity"}).is_identity
    assert model_from_json_dict(_document(SqueezeFamily.identity()))[2].is_identity


def test_non_finite_or_missing_q_is_a_domain_error():
    with pytest.raises(SqueezeDomainError, match="finite"):
        SqueezeFamily.tsallis(math.nan)
    with pytest.raises(SqueezeDomainError, match="requires 'q'"):
        _family_of({"family": "tsallis"})


def test_config_rejects_unknown_family():
    for name in ("exotic", "Tsallis", "custom"):
        with pytest.raises(SqueezeDomainError, match=f"unknown squeeze family '{name}'"):
            _family_of({"family": name, "q": 1.5})


@pytest.mark.parametrize("fragment", [{"q": 1.5}, {"family": "identity", "q": 2}, {"family": "identity", "q": 1.0}],
                         ids=["q-without-family", "identity-with-q", "identity-with-q-one"])
def test_config_takes_q_only_with_the_tsallis_family(fragment):
    with pytest.raises(SqueezeDomainError, match="'q' applies only to the tsallis squeeze family"):
        _family_of(fragment)
