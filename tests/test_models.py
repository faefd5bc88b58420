import math

import mpmath
import numpy as np
import pytest

from sqzstat import EnsembleSpec, ModelValidationError, SqueezeFamily, observed_mean, probabilities, characteristic_class
from sqzstat.engine import _logsumexp
from sqzstat.models import MODELS, _lgamma, _ln_choose, build_model, einstein_solid, lattice_gas, spin_half_paramagnet, two_level

IDENT = SqueezeFamily.identity()


def test_two_level_rows():
    spec = two_level(1.0)
    assert spec.variable_names == ("E",)
    assert spec.x[:, 0].tolist() == [0.0, 1.0]
    assert spec.ln_g.tolist() == [0.0, 0.0]


def test_two_level_partition_value():
    env = EnsembleSpec(fixed_intensive={"E": math.log(2.0)})
    table = characteristic_class(two_level(1.0), env, IDENT)
    assert math.exp(table.ln_total) == pytest.approx(1.5, abs=1e-12)


def test_two_level_ground_state_dominates_at_low_temperature():
    env = EnsembleSpec(fixed_intensive={"E": 60.0})
    probs = probabilities(characteristic_class(two_level(1.0), env, IDENT))
    assert probs.macro_probs[0] == pytest.approx(1.0, abs=1e-20)


def test_two_level_rejects_bad_epsilon():
    with pytest.raises(ModelValidationError):
        two_level(0.0)


def test_einstein_solid_rejects_a_negative_e_max():
    with pytest.raises(ModelValidationError, match="E_max must be >= 0, got -1"):
        einstein_solid(3, E_max=-1)


def test_paramagnet_small_counts():
    spec = spin_half_paramagnet(2)
    assert np.allclose(spec.ln_g, [0.0, math.log(2.0), 0.0], atol=1e-14)
    spec4 = spin_half_paramagnet(4)
    # k = 2 row (M = 0)
    idx = int(np.argmin(np.abs(spec4.column("M"))))
    assert spec4.ln_g[idx] == pytest.approx(math.log(6.0), abs=1e-12)


def test_paramagnet_total_class_matches_2_to_N():
    spec = spin_half_paramagnet(1000)
    assert _logsumexp(spec.ln_g) == pytest.approx(1000.0 * math.log(2.0), abs=1e-10)


def test_einstein_solid_counts():
    spec = einstein_solid(2, 5)
    # stars and bars: N = 2, m = 3 -> C(4, 3) = 4
    assert math.exp(spec.ln_g[3]) == pytest.approx(4.0, rel=1e-12)
    spec3 = einstein_solid(3, 2)
    assert math.exp(spec3.ln_g[0]) == pytest.approx(1.0, abs=1e-14)


def test_einstein_solid_canonical_mean_matches_closed_form():
    # direct-summation oracle and the geometric closed form 2/(e - 1)
    spec = einstein_solid(2, 200)
    m = spec.column("E")
    w = np.exp(spec.ln_g - m)
    oracle = float((w * m).sum() / w.sum())
    assert oracle == pytest.approx(2.0 / (math.e - 1.0), abs=1e-12)
    env = EnsembleSpec(fixed_intensive={"E": 1.0})
    assert observed_mean(spec, env, IDENT, "E") == pytest.approx(oracle, abs=1e-10)


def test_lattice_gas_counts():
    spec = lattice_gas(2)
    assert np.allclose(np.exp(spec.ln_g), [1.0, 2.0, 1.0], rtol=1e-13)
    assert spec.variable_names == ("E", "N")
    assert np.all(spec.column("E") == 0.0)


def test_lattice_gas_half_filling_mean():
    spec = lattice_gas(100)
    env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": 0.0})
    assert observed_mean(spec, env, IDENT, "N") == pytest.approx(50.0, abs=1e-9)


def test_lattice_gas_number_variance_is_binomial():
    # binomial-variance oracle: sites * p * (1 - p) with p from the engine
    spec = lattice_gas(100)
    env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": 0.0})
    probs = probabilities(characteristic_class(spec, env, IDENT))
    n = spec.column("N")
    mean = float((probs.macro_probs * n).sum())
    var = float((probs.macro_probs * (n - mean) ** 2).sum())
    p = mean / 100.0
    assert var == pytest.approx(100.0 * p * (1.0 - p), rel=1e-10)
    assert var == pytest.approx(25.0, rel=1e-10)


def test_generator_totals_match_combinatorial_closed_forms():
    assert _logsumexp(spin_half_paramagnet(300).ln_g) == pytest.approx(300 * math.log(2.0), abs=1e-10)
    assert _logsumexp(lattice_gas(250).ln_g) == pytest.approx(250 * math.log(2.0), abs=1e-10)
    # einstein solid total up to E_max: sum_m C(m+N-1, m) = C(E_max+N, E_max)
    N, E_max = 3, 40
    assert _logsumexp(einstein_solid(N, E_max).ln_g) == pytest.approx(
        math.log(math.comb(E_max + N, E_max)), abs=1e-10
    )


def test_lattice_gas_validation():
    with pytest.raises(ModelValidationError):
        lattice_gas(3, N_max=5)


def test_lattice_gas_beyond_float_range_is_a_model_error():
    with pytest.raises(ModelValidationError, match="float range"):
        lattice_gas(1e306, N_max=1)


def _assert_ln_choose_within_bounds(got, ref, n, k, summed):
    # lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) cancels: its error is a fraction of an ulp of the
    # largest term, not of the result, and every row keeps that bound; the rows read as running
    # sums of log1p (``summed``) must be within 32 eps of the result as well (26.5 measured)
    eps = np.finfo(float).eps
    err = np.abs(got - ref)
    terms = np.abs(_lgamma(n + 1.0)) + np.abs(_lgamma(k + 1.0)) + np.abs(_lgamma(n - k + 1.0))
    assert np.all(err <= 2.0 * eps * np.maximum(terms, 1.0)), np.max(err / np.maximum(terms, 1.0))
    rel = err[summed] / np.maximum(1.0, np.abs(ref[summed]))
    assert np.all(rel <= 32.0 * eps), np.max(rel) / eps


@pytest.mark.parametrize("n", [1, 10, 257, 1000, 12345, 100_000, 0.5, 37.5, 300.5, 1234.25, 99_999.5])
def test_ln_choose_against_mpmath(n):
    # over the builders' rows k = 0, 1, ..., floor(n), read at the first and last 13 rows and at
    # 60 drawn ones; past n = 256 the rows with k <= n/4 and those with n - k <= n/4 are
    # running sums
    rng = np.random.default_rng(int(n * 4))
    rows = np.arange(int(n) + 1, dtype=float)
    got = _ln_choose(float(n), rows)
    k = np.unique(np.concatenate([rows[:13], rows[-13:], rng.integers(0, int(n) + 1, 60)])).astype(int)
    with mpmath.workdps(50):
        mp_n = mpmath.mpf(n)
        ref = np.array([
            float(mpmath.loggamma(mp_n + 1) - mpmath.loggamma(kk + 1) - mpmath.loggamma(mp_n - kk + 1))
            for kk in k
        ])
    summed = (n > 256) & ((4 * k <= n) | (4 * (n - k) <= n))
    _assert_ln_choose_within_bounds(got[k], ref, n, k, summed)


@pytest.mark.parametrize("a", [0, 1, 49, 999])
def test_ln_choose_at_one_a_against_mpmath(a):
    # einstein_solid's ln C(m + a, m), a = N - 1, over every row m = 0, ..., 3a + 300: past
    # n = 256 the rows with m <= a/3 and those with m >= 3a are running sums
    m = np.arange(3 * a + 301)
    got = _ln_choose(m + float(a), m.astype(float))
    with mpmath.workdps(50):
        ln_a_fact = mpmath.loggamma(a + 1)
        ref = np.array([float(mpmath.loggamma(mm + a + 1) - mpmath.loggamma(mm + 1) - ln_a_fact) for mm in m])
    _assert_ln_choose_within_bounds(got, ref, m + a, m, (3 * m <= a) | (m >= 3 * a))


def _ln_binomials(n, ks):
    """ln C(n, k) for each k, from a 50-digit mpmath.binomial."""
    with mpmath.workdps(50):
        return np.array([float(mpmath.log(mpmath.binomial(n, k))) for k in ks])


def _assert_ln_g_within_eps(got, ref):
    assert np.all(np.abs(got - ref) <= 64.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))), (got, ref)


@pytest.mark.parametrize("sites", [1e13, 1e16, 1e20])
def test_lattice_gas_ln_g_at_large_sizes_against_mpmath(sites):
    # the log-gammas of s + 1 and s - k + 1 cancel for k << s: at s = 1e16 ln g reads
    # [0, 0, 0, 128] where it is [0, 36.84, 72.99, 108.73]
    _assert_ln_g_within_eps(lattice_gas(sites, 3).ln_g, _ln_binomials(mpmath.mpf(sites), range(4)))


def test_einstein_solid_ln_g_at_large_sizes_against_mpmath():
    # g = C(m + N - 1, m): at N = 1e20 ln g reads [0, 0, 0] where it is [0, 46.05, 91.41]
    N = 10**20
    ref = np.array([_ln_binomials(m + N - 1, [m])[0] for m in range(3)])
    _assert_ln_g_within_eps(einstein_solid(1e20, 2).ln_g, ref)


def test_registry_builds_models():
    spec = build_model("two_level", {"epsilon": 2.0})
    assert spec.x[1, 0] == 2.0
    spec = build_model("lattice_gas", {"sites": 10})
    assert spec.n_rows == 11
    with pytest.raises(ModelValidationError):
        build_model("nope", {})
    with pytest.raises(ModelValidationError):
        build_model("two_level", {"bogus": 1.0})
    with pytest.raises(ModelValidationError):
        build_model("spin_half_paramagnet", {})
    # a parameter is a number: neither a bool nor a numeric string, which float() would read
    for name, params in (("two_level", {"epsilon": True}), ("two_level", {"epsilon": "2"}),
                         ("spin_half_paramagnet", {"N": True}), ("lattice_gas", {"sites": 10, "N_max": "5"})):
        with pytest.raises(ModelValidationError, match="takes numbers"):
            build_model(name, params)
    assert build_model("lattice_gas", {"sites": 10, "N_max": None}).n_rows == 11
    assert set(MODELS) == {"two_level", "spin_half_paramagnet", "einstein_solid", "lattice_gas"}


def test_build_model_reads_defaults_from_the_builder_signature():
    # einstein_solid's E_max defaults to 100 and lattice_gas's N_max to int(sites)
    assert build_model("einstein_solid", {"N": 3.0}).n_rows == 101
    assert build_model("einstein_solid", {"N": 3.0, "E_max": 7.0}).n_rows == 8
    spec = build_model("lattice_gas", {"sites": 12.5})
    assert spec.n_rows == 13 and spec.column("N")[-1] == 12.0
    assert build_model("two_level", {}).x[:, 0].tolist() == [0.0, 1.0]
    with pytest.raises(ModelValidationError, match="does not take parameters"):
        build_model("einstein_solid", {"N": 3.0, "M": 1.0})
    with pytest.raises(ModelValidationError, match="missing parameters \\['N'\\]"):
        build_model("einstein_solid", {"E_max": 10.0})
    with pytest.raises(ModelValidationError, match="must be an integer"):
        build_model("einstein_solid", {"N": 2.5})


@pytest.mark.parametrize("build, match", [
    (lambda: two_level(True), "takes numbers"),
    (lambda: two_level("2"), "takes numbers"),
    (lambda: spin_half_paramagnet("3"), "takes numbers"),
    (lambda: spin_half_paramagnet(True), "takes numbers"),
    (lambda: spin_half_paramagnet(40.5), "parameter N=40.5 must be an integer"),
    (lambda: einstein_solid(True, E_max="4"), "takes numbers"),
    (lambda: einstein_solid(3, E_max="4"), "parameter E_max takes numbers"),
    (lambda: einstein_solid(3, E_max=4.5), "parameter E_max=4.5 must be an integer"),
    (lambda: lattice_gas("10"), "parameter sites takes numbers"),
    (lambda: lattice_gas(10, N_max=2.5), "parameter N_max=2.5 must be an integer"),
    (lambda: lattice_gas(math.inf), "parameter sites=inf must be finite"),
], ids=["two_level-bool", "two_level-str", "paramagnet-str", "paramagnet-bool", "paramagnet-40.5",
        "einstein-bool", "einstein-str", "einstein-4.5", "lattice_gas-str", "lattice_gas-2.5",
        "lattice_gas-inf"])
def test_builders_apply_the_number_rule(build, match):
    # called directly, a builder applies the number rule too: no bool, no str,
    # and a count (N, E_max, N_max) that is integer-like, never truncated
    with pytest.raises(ModelValidationError, match=match):
        build()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, key", [("spin_half_paramagnet", "N"), ("lattice_gas", "sites")])
def test_build_model_rejects_non_finite_parameters(name, key, value):
    with pytest.raises(ModelValidationError, match="must be finite"):
        build_model(name, {key: value})
