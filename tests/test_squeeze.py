import math

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
    squeeze_log,
    unsqueeze_log,
)

from families import SQUARE_LAW_HOOKS, deformed_log, quadratic, square_law

Q_GRID = [0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0]


# ---------------------------------------------------------------------------
# squeeze_log

def test_squeeze_identity_passthrough():
    fam = SqueezeFamily.identity()
    assert squeeze_log(fam, 0.7).ln_x == 0.7


def test_squeeze_tsallis_q2_g2():
    # oracle: (2**(1-2) - 1)/(1-2) = 0.5
    fam = SqueezeFamily.tsallis(2.0)
    out = squeeze_log(fam, math.log(2.0))
    assert out.ln_x == pytest.approx(deformed_log(2.0, 2.0), abs=1e-14)
    assert out.ln_x == pytest.approx(0.5, abs=1e-14)


def test_squeeze_tsallis_q1_is_identity_branch():
    fam = SqueezeFamily.tsallis(1.0)
    assert fam.is_identity
    assert squeeze_log(fam, math.log(5.0)).ln_x == math.log(5.0)


def test_squeeze_rejects_nonfinite():
    fam = SqueezeFamily.tsallis(1.5)
    with pytest.raises(SqueezeDomainError):
        squeeze_log(fam, math.inf)
    with pytest.raises(SqueezeDomainError):
        squeeze_log(fam, math.nan)


# ---------------------------------------------------------------------------
# unsqueeze_log

def test_unsqueeze_inverts_the_q2_example():
    fam = SqueezeFamily.tsallis(2.0)
    out = unsqueeze_log(fam, 0.5)
    assert out.ln_x == pytest.approx(math.log(2.0), abs=1e-14)


def test_unsqueeze_identity_passthrough():
    fam = SqueezeFamily.identity()
    assert unsqueeze_log(fam, -3.2).ln_x == -3.2


def test_unsqueeze_cutoff_flags_excluded_state():
    # q = 0.5, ln_h = -2.5: 1 + 0.5*(-2.5) = -0.25 <= 0
    fam = SqueezeFamily.tsallis(0.5)
    out = unsqueeze_log(fam, -2.5)
    assert out.cutoff_flag
    assert out.value() == 0.0


def test_unsqueeze_cutoff_above_one_for_q_greater_one():
    # q = 2: the inverse domain ends at ln_h = 1/(q-1); past it the
    # branch diverges and the value is reported as excluded
    fam = SqueezeFamily.tsallis(2.0)
    assert not unsqueeze_log(fam, 0.99).cutoff_flag
    assert unsqueeze_log(fam, 1.0).cutoff_flag
    assert unsqueeze_log(fam, 1.2).cutoff_flag


def test_unsqueeze_rejects_excluded_input():
    fam = SqueezeFamily.tsallis(0.5)
    bad = unsqueeze_log(fam, -2.5)
    with pytest.raises(SqueezeDomainError):
        squeeze_log(fam, bad)


# ---------------------------------------------------------------------------
# slope dh/dx = exp(ln h + ln(f/h)), from the log-domain kernels


def slope(fam, ln_g):
    """dh/dx at g = exp(ln_g); inf when not representable."""
    with np.errstate(over="ignore"):
        return float(np.exp(fam.ln_squeeze(ln_g) + fam.ln_log_slope(ln_g)))


def fd_slope_oracle(fam, g, rel_step=1e-6):
    """Central finite difference of h at g (linear domain)."""
    d = rel_step * g
    hp = math.exp(fam.ln_squeeze(math.log(g + d)))
    hm = math.exp(fam.ln_squeeze(math.log(g - d)))
    return (hp - hm) / (2.0 * d)


def test_slope_tsallis_q2_g2():
    fam = SqueezeFamily.tsallis(2.0)
    # logarithmic slope d(ln h)/dg = g**-q = 0.25
    assert math.exp(fam.ln_log_slope(math.log(2.0))) == pytest.approx(0.25, rel=1e-12)
    # the derivative itself, against the finite-difference oracle
    assert slope(fam, math.log(2.0)) == pytest.approx(fd_slope_oracle(fam, 2.0), rel=1e-6)


def test_slope_identity_is_one():
    fam = SqueezeFamily.identity()
    for ln_g in (-3.0, 0.0, 4.2):
        assert slope(fam, ln_g) == 1.0
        assert math.exp(fam.ln_log_slope(ln_g)) == pytest.approx(math.exp(-ln_g), rel=1e-12)


def test_slope_tsallis_q1_identity_branch():
    # dedicated q = 1 branch: dh/dg = 1 exactly, log slope = 1/g
    fam = SqueezeFamily.tsallis(1.0)
    got = slope(fam, math.log(3.0))
    assert got == 1.0
    assert math.exp(fam.ln_log_slope(math.log(3.0))) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert got == pytest.approx(fd_slope_oracle(fam, 3.0), rel=1e-6)


# ---------------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("q", Q_GRID)
def test_roundtrip_invariant(q):
    fam = SqueezeFamily.tsallis(q)
    for g in np.logspace(-6, 6, 100):
        ln_g = math.log(g)
        back = unsqueeze_log(fam, squeeze_log(fam, ln_g))
        if back.cutoff_flag:
            continue
        assert abs(back.ln_x - ln_g) < 1e-10, (q, g)


@pytest.mark.parametrize("q", Q_GRID)
def test_monotone_in_ln_g(q):
    fam = SqueezeFamily.tsallis(q)
    grid = np.log(np.logspace(-6, 6, 100))
    vals = fam.ln_squeeze(grid)
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("q", Q_GRID)
def test_slope_matches_finite_difference(q):
    # restrict to where the finite-difference signal on h is resolvable:
    # relative FD error grows like (eps * g**(q-1))**(2/3)
    fam = SqueezeFamily.tsallis(q)
    if q <= 2.0:
        grid = np.logspace(-3, 3, 25)
    else:
        grid = np.logspace(-2, 2, 25)
    for g in grid:
        d = 1e-5 * g  # ~eps**(1/3)-scaled central step
        hp = math.exp(fam.ln_squeeze(math.log(g + d)))
        hm = math.exp(fam.ln_squeeze(math.log(g - d)))
        fd = (hp - hm) / (2.0 * d)
        got = slope(fam, math.log(g))
        assert got == pytest.approx(fd, rel=1e-5), (q, g)


@pytest.mark.parametrize("q", [1.0 - 1e-8, 1.0 + 1e-8])
def test_q_to_one_continuity(q):
    fam = SqueezeFamily.tsallis(q)
    for g in np.logspace(-3, 3, 60):
        ln_g = math.log(g)
        assert abs(fam.ln_squeeze(ln_g) - ln_g) < 1e-6


def test_q_one_neighborhood_matches_identity_slope():
    for q in (1.0 - 1e-8, 1.0 + 1e-8):
        fam = SqueezeFamily.tsallis(q)
        assert slope(fam, math.log(3.0)) == pytest.approx(1.0, abs=1e-6)


def test_slope_beyond_float_range_is_inf():
    # ln h overflows to inf; the log slope ln(f/h) stays finite
    fam = SqueezeFamily.tsallis(0.5)
    assert slope(fam, 1500.0) == math.inf
    assert fam.ln_log_slope(1500.0) == -750.0


def test_slope_with_finite_ln_h_beyond_float_range_is_inf():
    # ln h = 2 (e^6 - 1) ~ 805 is finite; only exp(ln h + ln f/h) overflows
    fam = SqueezeFamily.tsallis(0.5)
    assert slope(fam, 12.0) == math.inf
    assert fam.ln_log_slope(12.0) == -6.0


# ---------------------------------------------------------------------------
# one evaluation path: each kernel gives a float the bits it gives an array

FAMILIES = st.one_of(
    st.just(SqueezeFamily.identity()),
    st.floats(0.05, 4.0).map(SqueezeFamily.tsallis),
    st.just(square_law()),
)
LN_G = st.one_of(st.floats(-700.0, 700.0), st.sampled_from([math.inf, -math.inf]))


def bits(v):
    return np.float64(v).view(np.uint64)


@settings(deadline=None, max_examples=300)
@given(fam=FAMILIES, values=st.lists(LN_G, min_size=1, max_size=40))
def test_scalar_forms_equal_the_array_kernels_bitwise(fam, values):
    arr = np.array(values)
    with np.errstate(all="ignore"):
        ln_h = fam.ln_squeeze(arr)
        ln_H, excluded = fam.ln_unsqueeze(arr)
        ln_l = fam.ln_log_slope(arr)
        for i, v in enumerate(values):
            assert bits(fam.ln_squeeze(v)) == bits(ln_h[i]), (fam.label(), v)
            ln_H_v, excluded_v = fam.ln_unsqueeze(v)
            assert bits(ln_H_v) == bits(ln_H[i]) and excluded_v == excluded[i], (fam.label(), v)
            assert bits(fam.ln_log_slope(v)) == bits(ln_l[i]), (fam.label(), v)
    finite = np.isfinite(arr)
    assert np.array_equal(excluded[finite], ln_H[finite] == -math.inf)


@settings(deadline=None, max_examples=500)
@given(q=st.floats(0.05, 4.0), ln_g=st.floats(-13.8, 13.8))
def test_roundtrip_property(q, ln_g):
    fam = SqueezeFamily.tsallis(q)
    back = unsqueeze_log(fam, squeeze_log(fam, ln_g))
    if not back.cutoff_flag:
        assert abs(back.ln_x - ln_g) < 1e-10, (q, ln_g)


@pytest.mark.parametrize("q", Q_GRID)
def test_h_of_zero_is_the_limit_at_zero(q):
    h0 = SqueezeFamily.tsallis(q).h_of(np.array([0.0, 1.0]))
    assert h0[1] == 1.0
    if q < 1.0:
        assert h0[0] == pytest.approx(math.exp(-1.0 / (1.0 - q)), rel=1e-15)
    else:
        assert h0[0] == 0.0


def test_h_of_zero_identity_and_custom():
    assert SqueezeFamily.identity().h_of(np.array([0.0]))[0] == 0.0

    def finite_only(fn):
        def hook(v):
            if not math.isfinite(v):
                raise ValueError(f"hook called at {v!r}")
            return fn(v)
        return hook

    fam = SqueezeFamily.custom(*map(finite_only, SQUARE_LAW_HOOKS))
    np.testing.assert_allclose(fam.h_of(np.array([0.0, 3.0])), [0.0, 9.0], rtol=1e-14)


# ---------------------------------------------------------------------------
# custom families

def test_custom_family_square_law():
    # h(g) = g**2, H(x) = sqrt(x), dh/dx = 2 g
    fam = square_law()
    out = squeeze_log(fam, math.log(3.0))
    assert out.ln_x == pytest.approx(2.0 * math.log(3.0), rel=1e-12)
    back = unsqueeze_log(fam, out)
    assert back.ln_x == pytest.approx(math.log(3.0), rel=1e-12)
    assert slope(fam, math.log(3.0)) == pytest.approx(6.0, rel=1e-12)


def test_custom_family_rejects_bad_inverse():
    ln_h, _, ln_l = SQUARE_LAW_HOOKS
    with pytest.raises(SqueezeDomainError):
        SqueezeFamily.custom(ln_h, lambda ln_x: ln_x, ln_l)  # not the inverse


def test_custom_family_rejects_bad_slope():
    ln_h, ln_H, _ = SQUARE_LAW_HOOKS
    with pytest.raises(SqueezeDomainError):
        SqueezeFamily.custom(ln_h, ln_H, lambda ln_g: 1.0)  # inconsistent with h


def test_custom_family_rejects_the_linear_slope_contract():
    # dh/dx = 2 g returned where ln(d ln h/dx) = ln 2 - ln g is due
    ln_h, ln_H, _ = SQUARE_LAW_HOOKS
    with pytest.raises(SqueezeDomainError, match="inconsistent with d ln h/d ln g"):
        SqueezeFamily.custom(ln_h, ln_H, lambda ln_g: 2.0 * math.exp(ln_g))
    with pytest.raises(TypeError, match="slope"):
        SqueezeFamily.custom(ln_h=ln_h, ln_H=ln_H, slope=lambda ln_g: 2.0 * math.exp(ln_g))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("hook", range(3))
def test_custom_family_rejects_a_non_finite_hook_value(hook, bad):
    # one grid point, ln g = 0.5, reads ``bad`` from one hook; the rest is the square law
    hooks = list(SQUARE_LAW_HOOKS)
    ok = hooks[hook]
    at = 1.0 if hook == 1 else 0.5  # ln H is called at ln h = 2 ln g
    hooks[hook] = lambda v: bad if v == at else ok(v)
    with pytest.raises(SqueezeDomainError, match="non-finite value at ln_g=0.5"):
        SqueezeFamily.custom(*hooks)


def test_steep_custom_family_builds_and_gives_finite_results():
    # h = g**1000: ln h reaches 3000 on the probe grid, far beyond exp's range
    fam = SqueezeFamily.custom(lambda v: 1000.0 * v, lambda w: w / 1000.0,
                               lambda v: math.log(1000.0) - v)
    spectrum = DegeneracySpectrum(("E",), np.arange(4.0)[:, None], np.log([1.0, 3.0, 6.0, 10.0]))
    report = report_for(spectrum, EnsembleSpec(fixed_intensive={"E": 0.5}), fam)
    cols = report.columns()
    assert math.isfinite(report.point.phi) and math.isfinite(report.point.entropy_J)
    assert all(np.isfinite(cols[name]).all() for name in ("ln_class", "macro_prob", "boltzmann_factor"))
    assert 0.0 < report.point.observed["E"] < 3.0


def test_power_law_squeeze_beyond_the_float_range_names_the_input():
    # e**(u ln g) - 1 at u ln g = 1000 leaves the float range, where math.expm1 raises
    with pytest.raises(SqueezeDomainError, match=r"exp\(2000\)"):
        squeeze_log(SqueezeFamily.tsallis(0.5), 2000.0)


def test_a_custom_hook_math_error_is_a_domain_error_naming_the_input():
    # quadratic's ln h takes math.exp(ln g), which overflows at ln g = 800
    spectrum = DegeneracySpectrum(("E",), np.arange(3.0)[:, None], np.full(3, 800.0))
    with pytest.raises(SqueezeDomainError, match="fails at 800.0"):
        report_for(spectrum, EnsembleSpec(fixed_intensive={"E": 0.5}), quadratic())
    # the probe's first point, ln g = -3, is outside this ln h's domain
    ln_h, ln_H, ln_l = SQUARE_LAW_HOOKS
    with pytest.raises(SqueezeDomainError, match="fails at -3.0: math domain error"):
        SqueezeFamily.custom(lambda v: 2.0 * v if v > -3.0 else math.log(-1.0), ln_H, ln_l)


def test_custom_family_requires_all_hooks():
    with pytest.raises(SqueezeDomainError):
        SqueezeFamily.custom(ln_h=lambda v: v, ln_H=lambda v: v, ln_log_slope=None)


# ---------------------------------------------------------------------------
# config fragment

def test_config_roundtrip():
    fam = SqueezeFamily.from_config({"family": "tsallis", "q": 1.5})
    assert fam.kind == "tsallis" and fam.q == 1.5
    assert SqueezeFamily.from_config(fam.to_config()).q == 1.5
    assert SqueezeFamily.from_config({"family": "identity"}).is_identity


def test_non_finite_or_missing_q_is_a_domain_error():
    with pytest.raises(SqueezeDomainError, match="finite"):
        SqueezeFamily.tsallis(math.nan)
    with pytest.raises(SqueezeDomainError, match="requires 'q'"):
        SqueezeFamily.from_config({"family": "tsallis"})


def test_config_rejects_unknown_family():
    with pytest.raises(SqueezeDomainError):
        SqueezeFamily.from_config({"family": "exotic"})
