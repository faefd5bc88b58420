import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from sqzstat import DatasetError, DegeneracySpectrum, EnsembleSpec, SqueezeFamily, report_for
from sqzstat.inference import (
    EquilibriumDataset,
    estimate_q,
    reconstruct_squeeze,
    superstatistics_forward,
)

from families import deformed_log, ratio_dataset


# ---------------------------------------------------------------------------
# dataset validation

def test_dataset_requires_increasing_ln_g():
    with pytest.raises(DatasetError):
        EquilibriumDataset(ln_g=np.array([0.0, 0.5, 0.5]), ratio=np.ones(3))


def test_dataset_requires_positive_ratios():
    with pytest.raises(DatasetError):
        EquilibriumDataset(ln_g=np.array([0.0, 0.5, 1.0]), ratio=np.array([1.0, -0.1, 1.0]))


def test_dataset_requires_matching_1d_arrays():
    with pytest.raises(DatasetError, match="matching 1-D"):
        EquilibriumDataset(ln_g=np.array([0.0, 0.5, 1.0]), ratio=np.ones(4))


def test_dataset_requires_three_samples():
    # the one owner of the minimum: estimate_q and reconstruct_squeeze both need 3
    with pytest.raises(DatasetError, match="^need at least 3 samples, got 2$"):
        EquilibriumDataset(ln_g=np.array([0.0, 1.0]), ratio=np.array([1.0, 1.0]))


def test_dataset_rejects_subunit_counts():
    with pytest.raises(DatasetError):
        EquilibriumDataset(ln_g=np.array([-0.5, 0.5, 1.0]), ratio=np.ones(3))


# ---------------------------------------------------------------------------
# reconstruct_squeeze

def test_unit_ratio_reconstructs_undeformed_log():
    x = np.linspace(0.0, 4.0, 100)
    data = EquilibriumDataset(ln_g=x, ratio=np.ones_like(x))
    grid, ln_h = reconstruct_squeeze(data)
    assert np.allclose(ln_h, grid, atol=1e-14)


def test_synthetic_power_law_reconstruction():
    # ratio = g**(1-q) integrates to the deformed log; dense-grid check
    q = 1.5
    grid, ln_h = reconstruct_squeeze(ratio_dataset(q, ln_g_max=5.0, n=2001))
    expected = np.array([deformed_log(math.exp(v), q) for v in grid])
    assert np.max(np.abs(ln_h - expected)) < 1e-4


def test_two_interval_trapezoid_is_exact_for_constant_ratio():
    data = EquilibriumDataset(ln_g=np.array([0.0, 1.0, 2.0]), ratio=np.array([2.0, 2.0, 2.0]))
    grid, ln_h = reconstruct_squeeze(data)
    assert ln_h[-1] == pytest.approx(4.0, abs=1e-14)


def test_reconstruction_needs_three_samples():
    # a 2-sample table never reaches reconstruct_squeeze: the dataset refuses it
    with pytest.raises(DatasetError, match="at least 3 samples"):
        reconstruct_squeeze(EquilibriumDataset(ln_g=np.array([0.0, 1.0]), ratio=np.array([1.0, 1.0])))


def test_leading_gap_is_bridged_from_the_anchor():
    data = EquilibriumDataset(ln_g=np.array([0.5, 1.0, 1.5]), ratio=np.ones(3))
    grid, ln_h = reconstruct_squeeze(data)
    assert grid[0] == 0.5
    assert ln_h[0] == pytest.approx(0.5, abs=1e-14)  # constant-ratio bridge


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0])
def test_closed_loop_error_contracts_like_grid_squared(q):
    def sup_err(n):
        data = ratio_dataset(q, ln_g_max=4.0, n=n)
        grid, ln_h = reconstruct_squeeze(data)
        exact = np.array([deformed_log(math.exp(v), q) for v in grid])
        return float(np.max(np.abs(ln_h - exact)))

    e_coarse, e_fine = sup_err(101), sup_err(201)
    assert e_fine > 0.0
    assert 3.0 < e_coarse / e_fine < 5.0  # second-order quadrature


# ---------------------------------------------------------------------------
# estimate_q

@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0])
def test_planted_index_recovered(q):
    est = estimate_q(ratio_dataset(q, ln_g_max=5.0, n=101))
    assert est.q == pytest.approx(q, abs=1e-3)
    assert est.power_law
    assert est.residual < 1e-6


def test_non_power_law_sets_the_flag():
    x = np.linspace(0.0, 3.0, 50)
    data = EquilibriumDataset(ln_g=x, ratio=np.exp(x**2))
    est = estimate_q(data)
    assert not est.power_law
    assert est.residual > 1e-3


def test_scale_invariance_of_the_index():
    base = ratio_dataset(1.5, ln_g_max=4.0, n=80)
    scaled = EquilibriumDataset(ln_g=base.ln_g, ratio=7.3 * base.ratio)
    assert estimate_q(scaled).q == pytest.approx(estimate_q(base).q, abs=1e-12)


def test_estimate_needs_spread():
    with pytest.raises(DatasetError):
        estimate_q(EquilibriumDataset(ln_g=np.array([0.0, 1.0]), ratio=np.array([1.0, 1.0])))
    # distinct ln g whose squared deviations underflow: the variance is 0
    with pytest.raises(DatasetError, match="zero variance"):
        estimate_q(EquilibriumDataset(ln_g=np.array([0.0, 1e-200, 2e-200]), ratio=np.ones(3)))


# ---------------------------------------------------------------------------
# superstatistics_forward

def test_zero_energy_gives_exactly_one():
    b = np.linspace(0.01, 5.0, 400)
    f = np.exp(-b)
    f = f / np.trapezoid(f, b)
    assert superstatistics_forward(b, f, 0.0) == 1.0


def test_narrow_spike_recovers_plain_boltzmann_factor():
    beta0, width = 1.3, 1e-3
    b = np.linspace(beta0 - 5 * width, beta0 + 5 * width, 2001)
    f = np.exp(-0.5 * ((b - beta0) / width) ** 2)
    f = f / np.trapezoid(f, b)
    for energy in (0.5, 1.0, 2.0):
        got = superstatistics_forward(b, f, energy)
        assert abs(got - math.exp(-beta0 * energy)) < 1e-4


def test_gamma_density_matches_adaptive_quadrature_oracle():
    shape, scale = 3.0, 0.4
    b = np.linspace(1e-9, 12.0, 40001)
    f = gamma_dist.pdf(b, a=shape, scale=scale)
    f = f / np.trapezoid(f, b)
    energy = 0.8
    oracle, err = quad(
        lambda x: gamma_dist.pdf(x, a=shape, scale=scale) * math.exp(-x * energy),
        0.0,
        60.0,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    got = superstatistics_forward(b, f, energy)
    assert abs(got - oracle) / oracle < 1e-6
    # closed form of the mixing transform for a gamma density
    assert oracle == pytest.approx((1.0 + scale * energy) ** (-shape), rel=1e-9)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(q=st.floats(1.05, 1.95))
@example(q=1.05)
@example(q=1.95)
def test_gamma_mixture_is_the_engine_power_law_boltzmann_factor(q):
    # Beck-Cohen: a Gamma density of beta with shape k = 1/(q - 1) and mean
    # beta0 mixes exp(-beta E) into (1 + (q - 1) beta0 E)**(-k), which is the
    # engine's power-law Boltzmann factor of a one-microstate row (g = 1) at
    # y = beta0.  The geometric grid resolves the density's singular slope
    # at beta = 0 and reaches low enough that the mass below it is ~1e-31.
    beta0, k = 1.3, 1.0 / (q - 1.0)
    theta = beta0 / k
    energies = np.array([0.3, 1.0, 2.5])
    b = beta0 * np.geomspace(1e-30, 200.0, 20_001)
    f = np.exp((k - 1.0) * np.log(b) - b / theta - math.lgamma(k) - k * math.log(theta))
    f = f / np.trapezoid(f, b)
    mixed = np.array([superstatistics_forward(b, f, e) for e in energies])
    spectrum = DegeneracySpectrum(("E",), energies[:, None], np.zeros(3))
    env = EnsembleSpec(fixed_intensive={"E": beta0})
    engine = report_for(spectrum, env, SqueezeFamily.tsallis(q)).columns()["boltzmann_factor"]
    closed = (1.0 + (q - 1.0) * beta0 * energies) ** -k
    # each rounding in 1 + (q - 1) beta0 E is raised to the power k: over 2,000
    # q the three pairs agreed to within 1.65 (1 + k) eps relative
    bound = 2.0 * (1.0 + k) * np.finfo(float).eps
    for got, ref in ((mixed, closed), (engine, closed), (mixed, engine)):
        assert np.all(np.abs(got / ref - 1.0) <= bound), (q, got, ref)


def test_unnormalized_density_is_rejected_reporting_integral():
    b = np.linspace(0.0, 1.0, 100)
    f = np.ones_like(b) * 2.0
    with pytest.raises(DatasetError, match="2.0"):
        superstatistics_forward(b, f, 1.0)


def test_negative_density_rejected():
    b = np.linspace(0.0, 1.0, 50)
    f = np.linspace(-0.1, 2.1, 50)
    with pytest.raises(DatasetError):
        superstatistics_forward(b, f, 1.0)
