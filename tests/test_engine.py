import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from sqzstat import (
    DegenerateEnsembleError,
    DegeneracySpectrum,
    EnsembleSpec,
    EnvironmentSplit,
    ModelValidationError,
    SqueezeFamily,
    ThermoPoint,
    characteristic_class,
    observed_mean,
    phi_and_entropies,
    phi_surface_from_spectrum,
    probabilities,
)
from sqzstat.engine import _logsumexp, model_from_json_dict, model_to_json_dict, report_for
from sqzstat.fluctuation import moments
from sqzstat.inference import EquilibriumDataset
from sqzstat.kinetics import build_collision_network, make_lattice, random_state
from sqzstat.models import einstein_solid, lattice_gas, spin_half_paramagnet, two_level

from differencing import direct_sums, mp_derivative
from families import combine_independent, entropy_from_probabilities

BETA = math.log(2.0)
EPS = np.finfo(float).eps
IDENT = SqueezeFamily.identity()
Q2 = SqueezeFamily.tsallis(2.0)


def canonical_env(beta=BETA):
    return EnsembleSpec(fixed_intensive={"E": beta})


def direct_bg_oracle(E, ln_g, beta):
    """Direct weighted summation over the spectrum (no engine code)."""
    w = np.exp(np.asarray(ln_g) - beta * np.asarray(E))
    Z = w.sum()
    P = w / Z
    mean = float((P * E).sum())
    var = float((P * (np.asarray(E) - mean) ** 2).sum())
    return Z, P, mean, var


# ---------------------------------------------------------------------------
# spectrum container

def test_spectrum_validation():
    with pytest.raises(ModelValidationError):
        DegeneracySpectrum(("E",), np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ModelValidationError):
        DegeneracySpectrum(("E",), np.array([[0.0], [0.0]]), np.array([0.0, 0.0]))
    with pytest.raises(ModelValidationError):
        DegeneracySpectrum(("E",), np.array([[0.0]]), np.array([math.inf]))
    with pytest.raises(ModelValidationError, match=r"row values of shape \(2, 2\) for 1 variable names"):
        DegeneracySpectrum(("E",), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ModelValidationError, match="ln_g length"):
        DegeneracySpectrum(("E",), np.array([[0.0], [1.0]]), np.zeros(3))
    with pytest.raises(ModelValidationError, match="row values must be finite"):
        DegeneracySpectrum(("E",), np.array([[0.0], [math.nan]]), np.zeros(2))


def test_column_of_an_unknown_name_is_rejected():
    with pytest.raises(ModelValidationError, match="no variable 'V'"):
        two_level(1.0).column("V")


@pytest.mark.parametrize(
    "x",
    [
        [[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]],  # signed zeros are one value
        [[-0.0], [0.0]],
        # duplicates at the two ends of a longer 2-column table
        np.vstack([[7.0, -3.0], np.column_stack([np.arange(1000.0), np.arange(1000.0) % 7]), [7.0, -3.0]]),
    ],
)
def test_spectrum_rejects_duplicate_rows(x):
    x = np.asarray(x, dtype=float)
    with pytest.raises(ModelValidationError, match="distinct"):
        DegeneracySpectrum(tuple("EN"[: x.shape[1]]), x, np.zeros(x.shape[0]))


def test_spectrum_accepts_many_distinct_rows():
    k = np.arange(100_000.0)
    # distinct rows whose columns each repeat values
    spec = DegeneracySpectrum(("E", "N"), np.column_stack([k // 317, k % 317]), np.zeros(k.size))
    assert spec.n_rows == 100_000


def test_spectrum_rejects_duplicate_variable_names():
    # two columns named E: a Legendre sum over both would count E twice
    with pytest.raises(ModelValidationError, match=r"variable names must be distinct, got \('E', 'E'\)"):
        DegeneracySpectrum(("E", "E"), np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))


def test_restrict_drops_pinned_column():
    spec = lattice_gas(4)
    sub = spec.restrict({"N": 2.0})
    assert sub.variable_names == ("E",)
    assert sub.n_rows == 1
    assert sub.ln_g[0] == pytest.approx(math.log(6.0), abs=1e-12)


# ---------------------------------------------------------------------------
# characteristic_class

def test_two_level_identity_class():
    # Z = 1 + exp(-ln 2) = 1.5, phi = -ln 1.5
    table = characteristic_class(two_level(1.0), canonical_env(), IDENT)
    assert math.exp(table.ln_total) == pytest.approx(1.5, abs=1e-12)
    assert table.phi == pytest.approx(-math.log(1.5), abs=1e-12)
    Z, _, _, _ = direct_bg_oracle([0.0, 1.0], [0.0, 0.0], BETA)
    assert math.exp(table.ln_total) == pytest.approx(Z, abs=1e-12)
    # undeformed per-row class is exactly g * exp(-y X) (same arithmetic)
    assert np.array_equal(table.ln_row_class, table.spectrum.ln_g - BETA * table.spectrum.x[:, 0])


def test_single_row_spectrum_collapses_to_microcanonical():
    spec = DegeneracySpectrum(("E",), np.array([[2.0]]), np.array([math.log(4.0)]))
    env = EnsembleSpec(fixed_extensive={"E": 2.0})
    for fam in (IDENT, Q2, SqueezeFamily.tsallis(0.5)):
        table = characteristic_class(spec, env, fam)
        assert table.ln_total == pytest.approx(math.log(4.0), abs=1e-12)
        assert table.phi == pytest.approx(-fam.ln_squeeze(math.log(4.0)), abs=1e-12)


def test_two_level_tsallis_q2_class():
    # hand evaluation: rows H(h(1) e**0) = 1 and H(h(1) e**-ln2) = 1/(1+ln2)
    table = characteristic_class(two_level(1.0), canonical_env(), Q2)
    c = np.exp(table.ln_row_class)
    assert c[0] == pytest.approx(1.0, abs=1e-14)
    assert c[1] == pytest.approx(1.0 / (1.0 + math.log(2.0)), rel=1e-13)
    assert c[1] == pytest.approx(0.5906161091496412, rel=1e-12)
    assert math.exp(table.ln_total) == pytest.approx(1.5906161091496412, rel=1e-12)


def test_all_rows_excluded_raises():
    spec = DegeneracySpectrum(("E",), np.array([[50.0], [60.0]]), np.array([0.0, 0.0]))
    # q < 1 cutoff: 1 + (1-q)(ln h - yE) <= 0 for both rows
    with pytest.raises(DegenerateEnsembleError):
        characteristic_class(spec, EnsembleSpec(fixed_intensive={"E": 1.0}), SqueezeFamily.tsallis(0.5))


def test_partial_cutoff_drops_rows_from_total():
    spec = DegeneracySpectrum(("E",), np.array([[0.0], [50.0]]), np.array([0.0, 0.0]))
    fam = SqueezeFamily.tsallis(0.5)
    table = characteristic_class(spec, EnsembleSpec(fixed_intensive={"E": 1.0}), fam)
    assert table.excluded.tolist() == [False, True]
    assert table.ln_total == pytest.approx(table.ln_row_class[0], abs=1e-14)


def test_squeezed_count_overflow_is_a_domain_error():
    # q < 1 squeezing grows like a power of the count itself; a spectrum
    # with ln g ~ 3000 overflows the float range at q = 0.2
    from sqzstat import SqueezeDomainError

    spec = spin_half_paramagnet(5000)
    env = EnsembleSpec(fixed_intensive={"M": 0.1})
    with pytest.raises(SqueezeDomainError):
        characteristic_class(spec, env, SqueezeFamily.tsallis(0.2))


@pytest.mark.parametrize("n_rows, ln_g", [(8, 1418.1), (2, 1418.0)])
def test_squeezed_total_overflow_is_a_domain_error(n_rows, ln_g):
    # at q = 0.5 every row's ln h fits the float range but the total's does
    # not: an error, never an OverflowError or phi = -inf
    from sqzstat import SqueezeDomainError

    spec = DegeneracySpectrum(("E",), np.arange(float(n_rows)), np.full(n_rows, ln_g))
    fam = SqueezeFamily.tsallis(0.5)
    assert np.all(np.isfinite(fam.ln_squeeze(spec.ln_g)))
    with pytest.raises(SqueezeDomainError, match="class total"):
        characteristic_class(spec, EnsembleSpec(fixed_intensive={"E": 0.0}), fam)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_environment_values_are_rejected(value):
    with pytest.raises(ModelValidationError, match="not finite"):
        EnsembleSpec(fixed_intensive={"E": value})
    with pytest.raises(ModelValidationError, match="not finite"):
        EnsembleSpec(fixed_intensive={"E": 1.0}, fixed_extensive={"N": value})


def test_env_validation():
    with pytest.raises(ModelValidationError):
        characteristic_class(two_level(1.0), EnsembleSpec(), IDENT)
    with pytest.raises(ModelValidationError):
        characteristic_class(
            two_level(1.0), EnsembleSpec(fixed_intensive={"E": 1.0, "V": 2.0}), IDENT
        )
    with pytest.raises(ModelValidationError, match=r"both environment sets: \['E'\]"):
        EnsembleSpec(fixed_intensive={"E": 1.0}, fixed_extensive={"E": 1.0})


# ---------------------------------------------------------------------------
# phi_and_entropies

def test_isolated_identity_entropy():
    spec = DegeneracySpectrum(("E",), np.array([[1.0]]), np.array([math.log(4.0)]))
    table = characteristic_class(spec, EnsembleSpec(fixed_extensive={"E": 1.0}), IDENT)
    point = phi_and_entropies(table)
    assert point.entropy_J == pytest.approx(math.log(4.0), abs=1e-12)
    assert point.phi == pytest.approx(-point.entropy_J, abs=1e-14)
    assert point.entropy_theta is None  # pinned extensive variable


def test_isolated_tsallis_entropy():
    # deformed log of 2 at q=2: (1/2 - 1)/(-1) = 0.5
    spec = DegeneracySpectrum(("E",), np.array([[1.0]]), np.array([math.log(2.0)]))
    table = characteristic_class(spec, EnsembleSpec(fixed_extensive={"E": 1.0}), Q2)
    point = phi_and_entropies(table)
    assert point.entropy_J == pytest.approx(0.5, abs=1e-12)


def test_tsallis_phi_matches_deformed_closed_form():
    # phi = -(G**(1-q) - 1)/(1-q) with G the total characteristic class
    for q in (0.5, 1.5, 2.0):
        fam = SqueezeFamily.tsallis(q)
        table = characteristic_class(two_level(1.0), canonical_env(), fam)
        G = math.exp(table.ln_total)
        closed = -(G ** (1.0 - q) - 1.0) / (1.0 - q)
        assert table.phi == pytest.approx(closed, rel=1e-12)


def test_canonical_two_level_entropy_value():
    # oracle: J = beta <E> - phi = (ln 2)/3 + ln 1.5
    _, _, mean, _ = direct_bg_oracle([0.0, 1.0], [0.0, 0.0], BETA)
    expected = BETA * mean + math.log(1.5)
    table = characteristic_class(two_level(1.0), canonical_env(), IDENT)
    point = phi_and_entropies(table)
    assert point.entropy_J == pytest.approx(expected, abs=1e-12)
    assert point.entropy_J == pytest.approx(0.6365141682948128, abs=1e-12)
    # fully open in the modeled variables: theta = -phi exactly
    assert point.entropy_theta == pytest.approx(-point.phi, abs=0.0)
    # Legendre decomposition holds to 1e-10
    assert point.phi == pytest.approx(BETA * point.observed["E"] - point.entropy_J, abs=1e-10)


# ---------------------------------------------------------------------------
# probabilities

def test_microcanonical_uniform_probability_is_exact():
    spec = DegeneracySpectrum(("E",), np.array([[1.0]]), np.array([math.log(4.0)]))
    table = characteristic_class(spec, EnsembleSpec(fixed_extensive={"E": 1.0}), IDENT)
    probs = probabilities(table)
    assert probs.macro_probs[0] == 1.0
    assert probs.config_probs[0] == 1.0 / 4.0  # bit-identical division


def test_canonical_two_level_probabilities():
    _, P, _, _ = direct_bg_oracle([0.0, 1.0], [0.0, 0.0], BETA)
    table = characteristic_class(two_level(1.0), canonical_env(), IDENT)
    probs = probabilities(table)
    assert probs.macro_probs[0] == pytest.approx(P[0], abs=1e-14)
    assert probs.macro_probs[1] == pytest.approx(P[1], abs=1e-14)
    assert probs.macro_probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_canonical_two_level_tsallis_probabilities():
    table = characteristic_class(two_level(1.0), canonical_env(), Q2)
    probs = probabilities(table)
    assert probs.macro_probs[0] == pytest.approx(0.6286872075843679, rel=1e-12)
    assert probs.macro_probs[1] == pytest.approx(0.3713127924156322, rel=1e-12)
    assert probs.macro_probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_probability_normalization_across_fixtures_and_families():
    fams = [IDENT, SqueezeFamily.tsallis(0.5), SqueezeFamily.tsallis(1.5), Q2]
    fixtures = [
        (two_level(1.0), canonical_env()),
        (einstein_solid(2, 60), EnsembleSpec(fixed_intensive={"E": 1.0})),
        (spin_half_paramagnet(30), EnsembleSpec(fixed_intensive={"M": 0.3})),
        (lattice_gas(40), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})),
    ]
    for spec, env in fixtures:
        for fam in fams:
            probs = probabilities(characteristic_class(spec, env, fam))
            assert probs.macro_probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(probs.macro_probs >= 0.0) and np.all(probs.macro_probs <= 1.0)


def test_macro_prob_equals_config_prob_times_degeneracy_bg():
    spec = einstein_solid(2, 30)
    table = characteristic_class(spec, EnsembleSpec(fixed_intensive={"E": 1.0}), IDENT)
    probs = probabilities(table)
    g = np.round(np.exp(spec.ln_g))
    assert np.allclose(probs.macro_probs, probs.config_probs * g, rtol=1e-12, atol=0)


def _linear_count_reference(ln_g):
    g = float(np.exp(ln_g))
    if g < 2**53:
        near = round(g)
        if near > 0 and abs(g - near) <= 1e-9 * near:
            return float(near)
    return g


def test_per_configuration_columns_match_per_row_reference():
    # the scalar per-row loops that the vectorized columns replace; the
    # arithmetic is unchanged (np.exp on each row's log), so equality is bitwise
    fixtures = [
        (two_level(1.0), canonical_env()),
        (einstein_solid(2, 60), EnsembleSpec(fixed_intensive={"E": 1.0})),
        (einstein_solid(50, 300), EnsembleSpec(fixed_intensive={"E": 0.3})),
        (spin_half_paramagnet(30), EnsembleSpec(fixed_intensive={"M": 0.3})),
        (spin_half_paramagnet(10), EnsembleSpec(fixed_extensive={"M": 4.0})),
        (lattice_gas(37.5, 30), EnsembleSpec(fixed_intensive={"E": 0.7, "N": -0.2})),
    ]
    fams = [IDENT, SqueezeFamily.tsallis(0.5), SqueezeFamily.tsallis(1.5), Q2]
    for spec, env in fixtures:
        for fam in fams:
            report = report_for(spec, env, fam)  # alive, so each query below reads its table
            table = report.table
            probs = probabilities(table)
            bf = [row["boltzmann_factor"] for row in report.rows()]
            column = report.columns()["boltzmann_factor"]
            for r in range(table.n_rows):
                count = _linear_count_reference(table.spectrum.ln_g[r])
                if table.excluded[r]:
                    ref_config = ref_bf = 0.0
                else:
                    ref_config = probs.macro_probs[r] / count
                    ref_bf = float(np.exp(table.ln_row_class[r])) / count
                assert probs.config_probs[r] == ref_config
                assert bf[r] == ref_bf
                assert column[r] == ref_bf


@pytest.mark.parametrize("fam", [IDENT, SqueezeFamily.tsallis(1.5)])
def test_degeneracies_beyond_float_range_give_finite_rows(fam):
    # ln g reaches ~1900 here; exp(ln g) and exp(ln class) overflow
    spec = einstein_solid(1000, 2000)
    assert spec.ln_g.max() > 1000.0
    env = EnsembleSpec(fixed_intensive={"E": 1.0})
    report = report_for(spec, env, fam)
    probs = probabilities(report.table)
    assert np.all(np.isfinite(probs.config_probs))
    assert probs.macro_probs.sum() == pytest.approx(1.0, abs=1e-10)
    table = report.table
    live = ~table.excluded
    ln_config = table.ln_row_class[live] - table.ln_total - table.spectrum.ln_g[live]
    tiny = np.finfo(float).tiny  # subnormal results carry fewer bits
    np.testing.assert_allclose(probs.config_probs[live], np.exp(ln_config), rtol=1e-12, atol=tiny)
    rows = report.rows()
    bf = np.array([row["boltzmann_factor"] for row in rows])
    assert all(math.isfinite(v) for row in rows for v in row.values() if isinstance(v, float))
    ref = np.exp(report.table.ln_row_class - report.table.spectrum.ln_g)
    np.testing.assert_allclose(bf, ref, rtol=1e-12, atol=tiny)
    if fam.is_identity:
        np.testing.assert_allclose(bf, np.exp(-spec.x[:, 0]), rtol=1e-9, atol=tiny)


# ---------------------------------------------------------------------------
# generalized boltzmann factor

def boltzmann_factors(spec, env, fam):
    return report_for(spec, env, fam).columns()["boltzmann_factor"]


def test_boltzmann_factor_identity():
    spec = DegeneracySpectrum(("E",), np.array([[0.7]]), np.array([0.0]))
    env = EnsembleSpec(fixed_intensive={"E": 1.0})
    assert boltzmann_factors(spec, env, IDENT)[0] == pytest.approx(math.exp(-0.7), rel=1e-14)


def test_boltzmann_factor_tsallis_q2():
    b = boltzmann_factors(two_level(1.0), canonical_env(), Q2)[1]
    assert b == pytest.approx(1.0 / (1.0 + math.log(2.0)), rel=1e-12)


def test_boltzmann_factor_is_one_at_zero_exponent():
    spec = DegeneracySpectrum(("E",), np.array([[0.0]]), np.array([0.0]))
    env = EnsembleSpec(fixed_intensive={"E": 1.3})
    for fam in (IDENT, Q2, SqueezeFamily.tsallis(0.5)):
        assert boltzmann_factors(spec, env, fam)[0] == pytest.approx(1.0, abs=1e-14)


def test_boltzmann_factor_excluded_row_is_zero():
    spec = DegeneracySpectrum(("E",), np.array([[0.0], [50.0]]), np.array([0.0, 0.0]))
    env = EnsembleSpec(fixed_intensive={"E": 1.0})
    assert boltzmann_factors(spec, env, SqueezeFamily.tsallis(0.5))[1] == 0.0


# ---------------------------------------------------------------------------
# observed_mean

def test_observed_mean_bg_two_level():
    _, _, mean, _ = direct_bg_oracle([0.0, 1.0], [0.0, 0.0], BETA)
    got = observed_mean(two_level(1.0), canonical_env(), IDENT, "E")
    assert got == pytest.approx(mean, abs=1e-12)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_observed_mean_microcanonical_norm():
    spec = DegeneracySpectrum(("E",), np.array([[1.0]]), np.array([math.log(7.0)]))
    env = EnsembleSpec(fixed_extensive={"E": 1.0})
    for fam in (IDENT, Q2, SqueezeFamily.tsallis(0.5)):
        ones = np.array([1.0])
        assert observed_mean(spec, env, fam, ones) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observed_mean_rejects_a_non_finite_observable(bad):
    env = EnsembleSpec(fixed_intensive={"E": 0.5})
    with pytest.raises(ModelValidationError, match="observable values must be finite"):
        observed_mean(two_level(1.0), env, IDENT, [bad, 1.0])
    with pytest.raises(ModelValidationError, match="observable has"):
        observed_mean(two_level(1.0), env, IDENT, [1.0])


@pytest.mark.parametrize("cell", [1.7e308, -1.7e308])
def test_observed_mean_beyond_the_float_range_is_a_domain_error(cell):
    # sum P^q v over two equal cells at q = 0.2: the class pass's own check of a column's mean
    from sqzstat import SqueezeDomainError

    with pytest.raises(SqueezeDomainError, match=r"observed mean exceeds the float range at tsallis\(q=0.2\)"):
        observed_mean(two_level(1.0), EnsembleSpec({"E": 0.0}), SqueezeFamily.tsallis(0.2), [cell, cell])


def phi_derivative(spec, env, fam, name):
    """(d phi/dy_name of the 50-digit ``mp_phi``, the error bound of the engine's mean of
    that column: 64 eps cond max(1, q) times its mean over |X|, from ``direct_sums``)."""
    names = spec.variable_names
    y = [env.fixed_intensive[n] for n in names]
    ref = direct_sums(spec.x, spec.ln_g, np.array(y), fam.q)
    d = mp_derivative(spec.x, spec.ln_g, y, fam.q, [int(n == name) for n in names])
    return d, 64.0 * EPS * ref["cond"] * max(1.0, fam.q) * ref["abs_mean"][names.index(name)]


def test_observed_mean_matches_phi_derivative_tsallis():
    # the derivative route is the ground truth for the weight formula
    got = observed_mean(two_level(1.0), canonical_env(), Q2, "E")
    d, err = phi_derivative(two_level(1.0), canonical_env(), Q2, "E")
    assert abs(got - d) <= err
    assert got == pytest.approx(0.13787318981149438, rel=1e-10)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0])
def test_observed_mean_duality_on_fixtures(q):
    fam = SqueezeFamily.tsallis(q)
    fixtures = [
        (two_level(1.0), canonical_env()),
        (einstein_solid(2, 60), EnsembleSpec(fixed_intensive={"E": 1.0})),
        (spin_half_paramagnet(12), EnsembleSpec(fixed_intensive={"M": 0.3})),
        (lattice_gas(20), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})),
    ]
    for spec, env in fixtures:
        for name in env.fixed_intensive:
            got = observed_mean(spec, env, fam, name)
            d, err = phi_derivative(spec, env, fam, name)
            assert abs(got - d) <= err, (q, name)


# ---------------------------------------------------------------------------
# entropy from probabilities

def test_uniform_identity_entropy():
    spec = DegeneracySpectrum(("E",), np.array([[1.0]]), np.array([math.log(4.0)]))
    table = characteristic_class(spec, EnsembleSpec(fixed_extensive={"E": 1.0}), IDENT)
    s = entropy_from_probabilities(table)
    assert s == pytest.approx(math.log(4.0), abs=1e-12)


def test_uniform_tsallis_entropy():
    # two configs at p = 1/2, q = 2: (2/4 - 1)/(-1) = 0.5
    spec = DegeneracySpectrum(("E",), np.array([[1.0]]), np.array([math.log(2.0)]))
    table = characteristic_class(spec, EnsembleSpec(fixed_extensive={"E": 1.0}), Q2)
    s = entropy_from_probabilities(table)
    assert s == pytest.approx(0.5, abs=1e-12)


def test_entropy_equivalence_bg():
    table = characteristic_class(two_level(1.0), canonical_env(), IDENT)
    s = entropy_from_probabilities(table)
    point = phi_and_entropies(table)
    assert s == pytest.approx(point.entropy_J, abs=1e-8)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0])
def test_entropy_equivalence_tsallis(q):
    fam = SqueezeFamily.tsallis(q)
    table = characteristic_class(two_level(1.0), canonical_env(), fam)
    s = entropy_from_probabilities(table)
    point = phi_and_entropies(table)
    assert s == pytest.approx(point.entropy_J, abs=1e-8)


# ---------------------------------------------------------------------------
# composition / subdivision

def test_product_spectrum_total_class():
    a = spin_half_paramagnet(6)
    b = einstein_solid(2, 20)
    ab = combine_independent(a, b)
    assert _logsumexp(ab.ln_g) == pytest.approx(_logsumexp(a.ln_g) + _logsumexp(b.ln_g), abs=1e-10)


def test_subdivision_additivity_in_squeezed_representation():
    # isolated engine entropies of two independent systems and of their
    # product spectrum: the subdivision rule (actual composite class =
    # product of the squeezed parts) makes entropies add, while feeding
    # the bare product count through the squeeze instead gives the
    # deformed composition with the (1 - q) cross term
    a = spin_half_paramagnet(4)
    b = einstein_solid(2, 6)
    ab = combine_independent(a, b)

    def isolated_entropy(spec, fam):
        return fam.ln_squeeze(_logsumexp(spec.ln_g))

    for fam in (IDENT, Q2, SqueezeFamily.tsallis(0.5)):
        j_a = isolated_entropy(a, fam)
        j_b = isolated_entropy(b, fam)
        j_subdivision = j_a + j_b  # extensive (actual-class) representation
        j_bare_product = isolated_entropy(ab, fam)  # squeeze of g_A * g_B
        if fam.is_identity:
            assert j_bare_product == pytest.approx(j_subdivision, abs=1e-10)
        else:
            q = fam.q
            assert j_bare_product == pytest.approx(
                j_a + j_b + (1.0 - q) * j_a * j_b, abs=1e-10
            )
            assert abs(j_bare_product - j_subdivision) > 1e-3


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0])
def test_nonextensive_composition_identity(q):
    # independent route: J_AB = ln h(H(e**J_A) * H(e**J_B))
    fam = SqueezeFamily.tsallis(q)
    grid = np.linspace(0.0, 3.0, 25)
    checked = 0
    for ja in grid:
        for jb in grid:
            ln_ga = fam.ln_unsqueeze(ja)[0]
            ln_gb = fam.ln_unsqueeze(jb)[0]
            if not (math.isfinite(ln_ga) and math.isfinite(ln_gb)):
                continue  # no real count yields this entropy at this q
            j_ab = fam.ln_squeeze(ln_ga + ln_gb)
            expected = ja + jb + (1.0 - q) * ja * jb
            assert abs(j_ab - expected) < 1e-10, (q, ja, jb)
            checked += 1
    assert checked >= 49  # feasible subgrid only (q > 1 caps J at 1/(q-1))


# ---------------------------------------------------------------------------
# q -> 1 consistency on fixtures

@pytest.mark.parametrize("q", [1.0 - 1e-8, 1.0 + 1e-8])
def test_near_identity_outputs_match_identity(q):
    # true q-drift of phi scales like |q-1| (ln total)^2 / 2, so fixture
    # sizes are chosen with ln(total class) < 14 to sit inside the band
    fam = SqueezeFamily.tsallis(q)
    fixtures = [
        (two_level(1.0), canonical_env()),
        (einstein_solid(2, 60), EnsembleSpec(fixed_intensive={"E": 1.0})),
        (spin_half_paramagnet(8), EnsembleSpec(fixed_intensive={"M": 0.3})),
        (lattice_gas(12), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})),
    ]
    for spec, env in fixtures:
        t_q = characteristic_class(spec, env, fam)
        t_1 = characteristic_class(spec, env, IDENT)
        p_q = phi_and_entropies(t_q)
        p_1 = phi_and_entropies(t_1)
        assert p_q.phi == pytest.approx(p_1.phi, abs=1e-6)
        assert p_q.entropy_J == pytest.approx(p_1.entropy_J, abs=1e-6)
        for name in env.fixed_intensive:
            assert p_q.observed[name] == pytest.approx(p_1.observed[name], abs=1e-6)
        pr_q = probabilities(t_q)
        pr_1 = probabilities(t_1)
        assert np.max(np.abs(pr_q.macro_probs - pr_1.macro_probs)) < 1e-6


# ---------------------------------------------------------------------------
# closing the ensemble (BG consistency)

def test_closing_variable_reproduces_restricted_relations():
    # move N from the intensive to the extensive set at a support value and
    # check J_{X} = -phi_{X} + y X against the restricted evaluation
    spec = lattice_gas(10)
    nu = 0.4
    env_open = EnsembleSpec(fixed_intensive={"E": 0.7, "N": nu})
    env_closed = EnsembleSpec(fixed_intensive={"E": 0.7}, fixed_extensive={"N": 4.0})
    table = characteristic_class(spec, env_closed, IDENT)
    phi_closed = table.phi
    j_closed = phi_and_entropies(table).entropy_J
    # direct oracle: the restricted class is C(10,4) (all energies zero),
    # and the closed-system entropy is its plain log
    assert phi_closed == pytest.approx(-math.log(math.comb(10, 4)), abs=1e-10)
    assert j_closed == pytest.approx(math.log(math.comb(10, 4)), abs=1e-10)
    # open-ensemble consistency: the open potential shifted by nu X at the
    # specification value reproduces the closed relation to oracle accuracy
    phi_open_at_row = nu * 4.0 - math.log(math.comb(10, 4))
    assert -phi_open_at_row + nu * 4.0 == pytest.approx(j_closed, abs=1e-10)


# ---------------------------------------------------------------------------
# model JSON round trip

def test_model_json_roundtrip():
    spec = lattice_gas(6)
    env = EnsembleSpec(fixed_intensive={"E": 0.3, "N": 0.1})
    doc = model_to_json_dict(spec, env, Q2)
    spec2, env2, fam2 = model_from_json_dict(doc)
    assert spec2.variable_names == spec.variable_names
    assert np.array_equal(spec2.x, spec.x)
    assert np.array_equal(spec2.ln_g, spec.ln_g)
    assert env2.fixed_intensive == env.fixed_intensive
    assert fam2.q == 2.0
    r1 = report_for(spec, env, Q2)
    r2 = report_for(spec2, env2, fam2)
    assert r1.point.phi == r2.point.phi  # bit identical


def test_model_json_rejects_missing_environment():
    spec = two_level(1.0)
    doc = model_to_json_dict(spec, canonical_env(), IDENT)
    del doc["environment"]["y"]["E"]
    with pytest.raises(ModelValidationError):
        model_from_json_dict(doc)


def test_model_json_rejects_an_unknown_kind_and_a_fixed_variable_without_x():
    doc = model_to_json_dict(two_level(1.0), canonical_env(), IDENT)
    doc["variables"][0]["kind"] = "open"
    with pytest.raises(ModelValidationError, match="unknown kind 'open'"):
        model_from_json_dict(doc)
    doc["variables"][0]["kind"] = "fixed"
    with pytest.raises(ModelValidationError, match="fixed variable 'E' missing an X value"):
        model_from_json_dict(doc)


# ---------------------------------------------------------------------------
# log-sum-exp kernel

def _mp_logsumexp(a):
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(v))) for v in a)))


def _assert_same_as_scipy(a):
    with np.errstate(all="ignore"):
        ref = scipy_logsumexp(a)
    got = _logsumexp(np.asarray(a, dtype=float))
    assert type(got) is float
    assert got == ref or (math.isnan(got) and math.isnan(ref))


def test_logsumexp_random_arrays_against_mpmath_and_scipy():
    rng = np.random.default_rng(20210101)
    eps = np.finfo(float).eps
    for trial in range(200):
        n = int(rng.integers(1, 200))
        spread = 10.0 ** rng.uniform(-3.0, 3.0)
        a = rng.uniform(-spread, spread, n) + rng.uniform(-1e3, 1e3)
        if trial % 5 == 0:
            a = np.round(a)  # integer data: many exact ties
        got = _logsumexp(a)
        ref = _mp_logsumexp(a)
        top = float(a.max())
        # rounding of the final additions: a fraction of an ulp of their scale
        assert abs(got - ref) <= 2.0 * eps * (abs(top) + abs(ref - top))
        _assert_same_as_scipy(a)


def test_logsumexp_exact_ties_to_the_max():
    for a in ([3.0, 3.0, 3.0, 1.0], [0.5] * 7, [-2.0, 5.0, 5.0, -40.0, 5.0]):
        a = np.array(a)
        assert _logsumexp(a) == pytest.approx(_mp_logsumexp(a), rel=1e-15)
        _assert_same_as_scipy(a)
    assert _logsumexp(np.full(4, 2.0)) == 2.0 + math.log(4.0)


def test_logsumexp_single_element_is_exact():
    for v in (0.0, -745.5, 1e300, 12.25):
        assert _logsumexp(np.array([v])) == v


@pytest.mark.parametrize("a, expected", [
    ([1.0, math.inf], math.inf),
    ([math.inf, -math.inf], math.inf),
    ([-math.inf, -math.inf], -math.inf),
    ([-math.inf, 0.0], 0.0),
    ([1.0, math.nan], math.nan),
    ([math.nan, math.inf], math.nan),
    ([math.nan, -math.inf], math.nan),
])
def test_logsumexp_infinite_and_nan_entries(a, expected):
    got = _logsumexp(np.array(a))
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    _assert_same_as_scipy(a)


def test_logsumexp_empty_is_minus_infinity():
    assert _logsumexp(np.array([])) == -math.inf


# ---------------------------------------------------------------------------
# the report's per-row table

@pytest.mark.parametrize(
    "spec, env, fam",
    [
        (einstein_solid(2, 60), EnsembleSpec(fixed_intensive={"E": 1.0}), SqueezeFamily.tsallis(0.5)),
        (einstein_solid(1000, 2000), EnsembleSpec(fixed_intensive={"E": 1.0}), IDENT),
        (lattice_gas(37.5, 30), EnsembleSpec(fixed_intensive={"E": 0.7, "N": -0.2}), Q2),
        (spin_half_paramagnet(10), EnsembleSpec(fixed_extensive={"M": 4.0}), IDENT),
    ],
    ids=["excluded-rows", "ln-g-beyond-float-range", "two-columns", "pinned-X"],
)
def test_rows_are_the_columns_zipped(spec, env, fam):
    report = report_for(spec, env, fam)
    cols = report.columns()
    table = report.table
    names = [f"x_{n}" for n in table.spectrum.variable_names]
    assert list(cols) == names + ["ln_g", "ln_class", "macro_prob", "config_prob",
                                  "boltzmann_factor", "excluded"]
    assert all(len(c) == table.n_rows for c in cols.values())
    rows = report.rows()
    assert len(rows) == table.n_rows
    for r, row in enumerate(rows):
        assert list(row) == list(cols)
        for name, value in row.items():
            assert type(value) is (bool if name == "excluded" else float)
            assert value == cols[name][r]
    # the class table's own arrays, not copies
    assert cols["ln_g"] is table.spectrum.ln_g
    assert cols["excluded"] is table.excluded is probabilities(table).excluded


def test_report_json_takes_environment_and_squeeze_from_its_table():
    env = EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    doc = report_for(lattice_gas(10), env, SqueezeFamily.tsallis(1.5)).to_json_dict()
    assert doc["environment"] == {"E": 0.7, "N": 0.2}
    assert doc["squeeze"] == {"family": "tsallis", "q": 1.5}


# ---------------------------------------------------------------------------
# records that hold arrays compare and hash by identity, value records by value

def _paramagnet(k):
    return spin_half_paramagnet(4 + 2 * k)


def _table(k):
    return characteristic_class(_paramagnet(k), EnsembleSpec({"M": 0.5}), IDENT)


def _surface(k):
    return phi_surface_from_spectrum(_paramagnet(k), EnsembleSpec({"M": 0.5}), IDENT)


ARRAY_RECORDS = {
    "DegeneracySpectrum": _paramagnet,
    "ClassTable": _table,
    "ProbabilityTable": lambda k: probabilities(_table(k)),
    "ThermoReport": lambda k: report_for(_paramagnet(k), EnsembleSpec({"M": 0.5}), IDENT),
    "SpectrumSurface": _surface,
    "FluctuationReport": lambda k: moments(_surface(k), {"M": 0.5}, ["M"], IDENT),
    "VelocityLattice": lambda k: make_lattice(1 + k),
    "CollisionNetwork": lambda k: build_collision_network(make_lattice(1 + k)),
    "KineticState": lambda k: random_state(make_lattice(1), seed=k),
    "EquilibriumDataset": lambda k: EquilibriumDataset(ln_g=[0.0, 1.0, 2.0], ratio=[1.0, 0.5 + k, 0.25]),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_by_identity_and_value_records_by_value(build):
    # a generated __eq__/__hash__ over array fields raised ValueError or TypeError here
    a, b = build(0), build(1)
    assert a in [b, a]
    assert a != b
    assert len({a, b}) == 2
    assert EnsembleSpec({"E": 1.0}, {"N": 2.0}) == EnsembleSpec({"E": 1.0}, {"N": 2.0})
    assert EnvironmentSplit(("N",), ("E",)) == EnvironmentSplit(["N"], ["E"])
    assert ThermoPoint(0.5, 1.0, None, {"E": 2.0}) == ThermoPoint(0.5, 1.0, None, {"E": 2.0})
