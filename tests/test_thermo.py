import dataclasses
import math

import mpmath
import numpy as np
import pytest

from sqzstat import (
    EnsembleSpec,
    EnvironmentSplit,
    SqueezeFamily,
    characteristic_class,
    conjugates_from_phi,
    phi_and_entropies,
    phi_surface_from_spectrum,
)
from sqzstat.models import lattice_gas, two_level

from differencing import direct_sums

IDENT = SqueezeFamily.identity()
EPS = np.finfo(float).eps


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


def mp_lattice_gas_phi(n_max):
    """phi(sites, nu) of ``lattice_gas(sites, N_max=n_max)`` at the identity, in mpmath (E is 0 on
    every row): -ln sum_N C(sites, N) e^(-nu N), the binomial continued through mpmath.loggamma."""
    def phi(sites, nu):
        lg = mpmath.loggamma
        return -mpmath.log(mpmath.fsum(mpmath.exp(lg(sites + 1) - lg(n + 1) - lg(sites - n + 1) - nu * n)
                                       for n in range(n_max + 1)))
    return phi


def test_macroscopic_lattice_gas_phi_is_minus_mean_number():
    # dilute regime: phi = -sites ln(1 + e**-nu) ~ -<N> (ideal-gas equation
    # of state; exact only as e**-nu -> 0)
    sites, nu = 10_000.0, 5.0
    spec = lattice_gas(sites, N_max=100)
    env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": nu})
    phi = characteristic_class(spec, env, IDENT).phi
    with mpmath.workdps(50):  # <N> = dphi/dnu of the 50-digit phi
        mean_n = float(mpmath.diff(lambda v: mp_lattice_gas_phi(100)(sites, v), nu))
    assert abs(phi + mean_n) / mean_n < 0.01
    # the package's conjugate is that derivative, within 64 eps cond times the mean of |N|
    # (the oracle sums the spectrum's own ln g, so lgamma's rounding is common to both)
    ref = direct_sums(spec.x, spec.ln_g, np.array([1.0, nu]), 1.0)
    out = conjugates_from_phi(phi_surface_from_spectrum(spec, env, IDENT), env.split, env.values())
    assert abs(out["N"] - ref["mean"][1]) <= 64.0 * EPS * ref["cond"] * ref["abs_mean"][1]
    assert abs(ref["mean"][1] - mean_n) <= 1e-12 * mean_n  # lgamma's rounding of ln g


def test_pinned_extensive_pair_is_named_in_the_error():
    # the class table differentiates in exchanged variables only
    env = EnsembleSpec({"E": 0.7}, {"N": 3.0})
    surface = phi_surface_from_spectrum(lattice_gas(30), env, IDENT)
    with pytest.raises(ValueError, match=r"pinned extensively: \['N'\]"):
        conjugates_from_phi(surface, env.split, env.values())
    split = EnvironmentSplit(fixed_extensive=("sites", "N"), fixed_intensive=("E",))
    with pytest.raises(ValueError, match=r"\['sites', 'N'\]"):
        conjugates_from_phi(surface, split, {"sites": 30.0, "N": 3.0, "E": 0.7})


# ---------------------------------------------------------------------------
# the subdivision entropy theta = -phi - sum_j y_j,obs X_j over the pinned-extensive pairs

def test_macroscopic_lattice_gas_theta_vanishes():
    # first-order homogeneity: theta/sites -> 0 as the system grows; the
    # engine's phi, and its site-count conjugate -dphi/dsites by mpmath.diff of
    # the 50-digit phi
    ratios = []
    for sites in (100, 1000):
        # N_max below sites leaves room for the derivative stencil; the
        # dropped near-full rows carry negligible weight at this nu
        n_max = sites - 2
        env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": 0.4})
        phi = characteristic_class(lattice_gas(float(sites), N_max=n_max), env, IDENT).phi
        with mpmath.workdps(50):
            dphi_dsites = float(mpmath.diff(lambda s: mp_lattice_gas_phi(n_max)(s, 0.4), sites))
        y_sites = -dphi_dsites  # the observed conjugate of the pinned site count
        theta = -phi - y_sites * sites
        ratios.append(abs(theta) / sites)
    # exactly first-order homogeneous model: theta is zero up to the
    # rounding of the engine's phi at every size
    assert ratios[0] < 1e-9
    assert ratios[1] < 1e-9


def test_single_two_level_system_has_nonzero_theta_via_engine():
    # fully open in the modeled variable: theta = -phi != 0
    env = EnsembleSpec(fixed_intensive={"E": math.log(2.0)})
    point = phi_and_entropies(characteristic_class(two_level(1.0), env, IDENT))
    theta = -point.phi  # no pinned-extensive pair
    assert abs(theta) > 0.1
    assert point.entropy_theta == pytest.approx(theta, abs=1e-14)


# ---------------------------------------------------------------------------
# the Gibbs-Duhem relation d(theta) + sum_l X_l dy_l = 0 along a path

def gibbs_duhem_residual(trajectory, include_theta=True):
    """Trapezoid integral of d(theta) + sum_l X_l dy_l along a path of
    (point, {name: y}) pairs, X_l the point's observed mean of each pinned
    intensive y_l: ~0 with theta (the small-system identity); without it the
    bare sum-X-dy integral, ~0 only for first-order homogeneous models."""
    residual = 0.0
    for (p0, y0), (p1, y1) in zip(trajectory[:-1], trajectory[1:]):
        seg = p1.entropy_theta - p0.entropy_theta if include_theta else 0.0
        for name in y0:
            seg += 0.5 * (p0.observed[name] + p1.observed[name]) * (y1[name] - y0[name])
        residual += seg
    return residual


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
    residual = gibbs_duhem_residual(path_points(betas))
    # dense-trapezoid oracle on the analytic theta(beta) = ln(1 + e**-beta)
    dense = np.linspace(0.2, 1.4, 4000)
    theta = np.log1p(np.exp(-dense))
    mean_e = np.exp(-dense) / (1.0 + np.exp(-dense))
    oracle = (theta[-1] - theta[0]) + np.trapezoid(mean_e, dense)
    assert abs(residual) < 1e-6
    assert residual == pytest.approx(oracle, abs=1e-6)


def test_gibbs_duhem_constant_path_is_exactly_zero():
    assert gibbs_duhem_residual(path_points([0.7, 0.7, 0.7])) == 0.0


def test_gibbs_duhem_needs_theta_on_every_point():
    traj = path_points([0.2, 0.3, 0.4])
    traj[1] = (dataclasses.replace(traj[1][0], entropy_theta=None), traj[1][1])
    # only the full identity reads theta; the bare sum X dy goes through a point without it
    assert math.isfinite(gibbs_duhem_residual(traj, include_theta=False))


def test_macroscopic_sum_x_dy_shrinks_with_size():
    # bare sum X dy (macroscopic Gibbs-Duhem) per site decreases with N
    per_site = []
    for sites in (10, 1000):
        traj = []
        for nu in np.linspace(0.1, 0.9, 50):
            env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": float(nu)})
            point = phi_and_entropies(characteristic_class(lattice_gas(sites), env, IDENT))
            traj.append((point, {"E": 1.0, "N": float(nu)}))
        res = gibbs_duhem_residual(traj, include_theta=False)
        per_site.append(abs(res) / sites)
    # integral of <N> dnu is extensive; per-site value converges, and the
    # full Hill-form residual stays ~0 at both sizes
    assert per_site[1] == pytest.approx(per_site[0], rel=5e-3)


def test_hill_form_zero_for_macroscopic_path():
    sites = 1000
    traj = []
    for nu in np.linspace(0.1, 0.9, 400):
        env = EnsembleSpec(fixed_intensive={"E": 1.0, "N": float(nu)})
        point = phi_and_entropies(characteristic_class(lattice_gas(sites), env, IDENT))
        traj.append((point, {"E": 1.0, "N": float(nu)}))
    res = gibbs_duhem_residual(traj)
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
    assert EnvironmentSplit(fixed_extensive=("sites",), fixed_intensive=("E", "N")).all_names == ("sites", "E", "N")


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
