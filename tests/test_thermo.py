import math

import numpy as np
import pytest

from sqzstat import (
    EnsembleSpec,
    EnvironmentSplit,
    SqueezeFamily,
    ThermoPoint,
    characteristic_class,
    conjugates_from_phi,
    euler_residual,
    gibbs_duhem_residual,
    phi_and_entropies,
    phi_surface_from_spectrum,
)
from sqzstat.models import lattice_gas, two_level

from differencing import central_derivative, conjugates

IDENT = SqueezeFamily.identity()


def two_level_surface():
    env = EnsembleSpec(fixed_intensive={"E": math.log(2.0)})
    return phi_surface_from_spectrum(two_level(1.0), env, IDENT)


# ---------------------------------------------------------------------------
# conjugates_from_phi

def test_canonical_two_level_mean_energy():
    # oracle: sum E exp(-beta E)/Z = 1/3 at beta = ln 2
    surface = two_level_surface()
    split = EnvironmentSplit(fixed_intensive=("E",))
    out = conjugates_from_phi(surface, split, {"E": math.log(2.0)})
    assert out["E"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_macroscopic_lattice_gas_phi_is_minus_mean_number():
    # dilute regime: phi = -sites ln(1 + e**-nu) ~ -<N> (ideal-gas equation
    # of state; exact only as e**-nu -> 0)
    sites, nu = 10_000.0, 5.0

    def surface(vals):
        spec = lattice_gas(vals["sites"], N_max=100)
        env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": vals["N"]})
        return characteristic_class(spec, env, IDENT).phi

    split = EnvironmentSplit(fixed_extensive=("sites",), fixed_intensive=("E", "N"))
    point = {"sites": sites, "E": 1.0, "N": nu}
    phi = surface(point)
    out = conjugates(surface, split, point)
    mean_n = out["N"]
    assert abs(phi + mean_n) / mean_n < 0.01


def test_pinned_extensive_pair_is_named_in_the_error():
    # the class table differentiates in exchanged variables only
    env = EnsembleSpec({"E": 0.7}, {"N": 3.0})
    surface = phi_surface_from_spectrum(lattice_gas(30), env, IDENT)
    with pytest.raises(ValueError, match=r"pinned extensively: \['N'\]"):
        conjugates_from_phi(surface, env.split, env.values())
    split = EnvironmentSplit(fixed_extensive=("sites", "N"), fixed_intensive=("E",))
    with pytest.raises(ValueError, match=r"\['sites', 'N'\]"):
        conjugates_from_phi(surface, split, {"sites": 30.0, "N": 3.0, "E": 0.7})


def test_central_derivative_richardson_accuracy():
    # the test-side differencer is itself an oracle: it keeps its own check
    assert central_derivative(math.exp, 1.0) == pytest.approx(math.e, rel=1e-10)
    assert central_derivative(lambda x: x**3, 2.0) == pytest.approx(12.0, rel=1e-10)


# ---------------------------------------------------------------------------
# euler_residual

def test_macroscopic_lattice_gas_theta_vanishes():
    # first-order homogeneity: theta/sites -> 0 as the system grows
    def make_surface(n_max):
        def surface(vals):
            spec = lattice_gas(vals["sites"], N_max=n_max)
            env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": vals["N"]})
            return characteristic_class(spec, env, IDENT).phi

        return surface

    split = EnvironmentSplit(fixed_extensive=("sites",), fixed_intensive=("E", "N"))
    ratios = []
    for sites in (100, 1000):
        # N_max below sites leaves room for the derivative stencil; the
        # dropped near-full rows carry negligible weight at this nu
        surface = make_surface(sites - 2)
        point = {"sites": float(sites), "E": 1.0, "N": 0.4}
        observed = conjugates(surface, split, point)
        tp = ThermoPoint(phi=surface(point), entropy_J=0.0, entropy_theta=None, observed=observed)
        theta = euler_residual(tp, split, point)
        ratios.append(abs(theta) / sites)
    # exactly first-order homogeneous model: theta is zero up to
    # finite-difference noise at every size
    assert ratios[0] < 1e-9
    assert ratios[1] < 1e-9


def test_single_two_level_system_has_nonzero_theta_via_engine():
    # fully open in the modeled variable: theta = -phi != 0
    env = EnsembleSpec(fixed_intensive={"E": math.log(2.0)})
    point = phi_and_entropies(characteristic_class(two_level(1.0), env, IDENT))
    theta = euler_residual(point, EnvironmentSplit(fixed_intensive=("E",)), {"E": math.log(2.0)})
    assert theta == pytest.approx(-point.phi, abs=0.0)
    assert abs(theta) > 0.1
    assert point.entropy_theta == pytest.approx(theta, abs=1e-14)


def test_isolated_definition_chase():
    # all pairs pinned extensively: theta = -phi - sum y_obs X
    split = EnvironmentSplit(fixed_extensive=("E",))
    tp = ThermoPoint(phi=-math.log(4.0), entropy_J=math.log(4.0), entropy_theta=None, observed={"E": 0.8})
    theta = euler_residual(tp, split, {"E": 2.0})
    assert theta == pytest.approx(math.log(4.0) - 0.8 * 2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# gibbs_duhem_residual

def path_points(betas):
    """Canonical two-level trajectory with analytic theta = -phi."""
    out = []
    for b in betas:
        env = EnsembleSpec(fixed_intensive={"E": float(b)})
        point = phi_and_entropies(characteristic_class(two_level(1.0), env, IDENT))
        out.append((point, {"E": float(b)}))
    return out


def test_gibbs_duhem_small_system_residual():
    # d(theta) + X dy integrates to ~0 along any path (small-system form)
    betas = np.linspace(0.2, 1.4, 1000)
    traj = path_points(betas)
    split = EnvironmentSplit(fixed_intensive=("E",))
    residual = gibbs_duhem_residual(traj, split)
    # dense-trapezoid oracle on the analytic theta(beta) = ln(1 + e**-beta)
    dense = np.linspace(0.2, 1.4, 4000)
    theta = np.log1p(np.exp(-dense))
    mean_e = np.exp(-dense) / (1.0 + np.exp(-dense))
    oracle = (theta[-1] - theta[0]) + np.trapezoid(mean_e, dense)
    assert abs(residual) < 1e-6
    assert residual == pytest.approx(oracle, abs=1e-6)


def test_gibbs_duhem_constant_path_is_exactly_zero():
    traj = path_points([0.7, 0.7, 0.7])
    split = EnvironmentSplit(fixed_intensive=("E",))
    assert gibbs_duhem_residual(traj, split) == 0.0


def test_gibbs_duhem_needs_three_points():
    with pytest.raises(ValueError):
        gibbs_duhem_residual(path_points([0.2, 0.3]), EnvironmentSplit(fixed_intensive=("E",)))


def test_macroscopic_sum_x_dy_shrinks_with_size():
    # bare sum X dy (macroscopic Gibbs-Duhem) per site decreases with N
    split = EnvironmentSplit(fixed_intensive=("E", "N"))
    per_site = []
    for sites in (10, 1000):
        traj = []
        for nu in np.linspace(0.1, 0.9, 50):
            env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": float(nu)})
            point = phi_and_entropies(characteristic_class(lattice_gas(sites), env, IDENT))
            traj.append((point, {"E": 1.0, "N": float(nu)}))
        res = gibbs_duhem_residual(traj, split, include_theta=False)
        per_site.append(abs(res) / sites)
    # integral of <N> dnu is extensive; per-site value converges, and the
    # full Hill-form residual stays ~0 at both sizes
    assert per_site[1] == pytest.approx(per_site[0], rel=5e-3)


def test_hill_form_zero_for_macroscopic_path():
    split = EnvironmentSplit(fixed_intensive=("E", "N"))
    sites = 1000
    traj = []
    for nu in np.linspace(0.1, 0.9, 400):
        env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": float(nu)})
        point = phi_and_entropies(characteristic_class(lattice_gas(sites), env, IDENT))
        traj.append((point, {"E": 1.0, "N": float(nu)}))
    res = gibbs_duhem_residual(traj, split, include_theta=True)
    assert abs(res) / sites < 1e-7


# ---------------------------------------------------------------------------
# point invariants

def test_legendre_decompositions_agree():
    env = EnsembleSpec(fixed_intensive={"E": 0.9})
    for fam in (IDENT, SqueezeFamily.tsallis(1.5)):
        point = phi_and_entropies(characteristic_class(two_level(1.0), env, fam))
        lhs = 0.9 * point.observed["E"] - point.entropy_J
        assert point.phi == pytest.approx(lhs, abs=1e-10)
        rhs = -point.entropy_theta  # no pinned extensive pairs
        assert point.phi == pytest.approx(rhs, abs=1e-10)


def test_split_validation():
    with pytest.raises(ValueError):
        EnvironmentSplit(fixed_extensive=("E",), fixed_intensive=("E",))


def test_first_order_homogeneity_of_macroscopic_phi():
    # doubling / quadrupling the extensive size rescales phi linearly
    def phi_for(sites):
        env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": 0.4})
        return phi_and_entropies(characteristic_class(lattice_gas(sites), env, IDENT)).phi

    base_sites = 1000
    base = phi_for(base_sites)
    for lam in (2, 4):
        scaled = phi_for(lam * base_sites)
        assert abs(scaled - lam * base) / abs(lam * base) < 0.01
