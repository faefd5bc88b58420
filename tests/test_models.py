import math

import mpmath
import numpy as np
import pytest

from sqzstat import EnsembleSpec, ModelValidationError, SqueezeFamily, observed_mean, probabilities, characteristic_class
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


def test_paramagnet_small_counts():
    spec = spin_half_paramagnet(2)
    assert np.allclose(spec.ln_g, [0.0, math.log(2.0), 0.0], atol=1e-14)
    spec4 = spin_half_paramagnet(4)
    # k = 2 row (M = 0)
    idx = int(np.argmin(np.abs(spec4.column("M"))))
    assert spec4.ln_g[idx] == pytest.approx(math.log(6.0), abs=1e-12)


def test_paramagnet_total_class_matches_2_to_N():
    spec = spin_half_paramagnet(1000)
    assert spec.ln_total_class() == pytest.approx(1000.0 * math.log(2.0), abs=1e-10)


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
    assert spin_half_paramagnet(300).ln_total_class() == pytest.approx(
        300 * math.log(2.0), abs=1e-10
    )
    assert lattice_gas(250).ln_total_class() == pytest.approx(250 * math.log(2.0), abs=1e-10)
    # einstein solid total up to E_max: sum_m C(m+N-1, m) = C(E_max+N, E_max)
    N, E_max = 3, 40
    assert einstein_solid(N, E_max).ln_total_class() == pytest.approx(
        math.log(math.comb(E_max + N, E_max)), abs=1e-10
    )


def test_lattice_gas_validation():
    with pytest.raises(ModelValidationError):
        lattice_gas(3, N_max=5)


def test_lattice_gas_beyond_float_range_is_a_model_error():
    with pytest.raises(ModelValidationError, match="float range"):
        lattice_gas(1e306, N_max=1)


@pytest.mark.parametrize("n", [1, 10, 257, 1000, 12345, 100_000, 0.5, 37.5, 1234.25, 99_999.5])
def test_ln_choose_against_mpmath(n):
    # lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) cancels: its error is a
    # fraction of an ulp of the largest term, not of the result
    rng = np.random.default_rng(int(n * 4))
    k = np.unique(np.concatenate([np.arange(min(int(n), 12) + 1), rng.integers(0, int(n) + 1, 60)]))
    k = k.astype(float)
    got = _ln_choose(float(n), k)
    with mpmath.workdps(50):
        mp_n = mpmath.mpf(n)
        ref = np.array([
            float(mpmath.loggamma(mp_n + 1) - mpmath.loggamma(kk + 1) - mpmath.loggamma(mp_n - kk + 1))
            for kk in k
        ])
    scale = np.abs(_lgamma(n + 1.0)) + np.abs(_lgamma(k + 1.0)) + np.abs(_lgamma(n - k + 1.0))
    assert np.all(np.abs(got - ref) <= 2.0 * np.finfo(float).eps * np.maximum(scale, 1.0))


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, key", [("spin_half_paramagnet", "N"), ("lattice_gas", "sites")])
def test_build_model_rejects_non_finite_parameters(name, key, value):
    with pytest.raises(ModelValidationError, match="must be finite"):
        build_model(name, {key: value})
