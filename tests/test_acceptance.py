"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion as it completes."""

import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np

from sqzstat import (
    EnsembleSpec,
    SqueezeFamily,
    characteristic_class,
    entropy_from_probabilities,
    observed_mean,
    phi_and_entropies,
    phi_surface_from_spectrum,
    probabilities,
    squeeze_log,
    unsqueeze_log,
)
from sqzstat.fluctuation import moments
from sqzstat.inference import (
    estimate_q,
    reconstruct_squeeze,
    superstatistics_forward,
    synthetic_ratio_dataset,
)
from sqzstat.kinetics import (
    build_collision_network,
    collision_rhs,
    detailed_balance_residual,
    entropy_functional,
    make_lattice,
    random_state,
    run_to_stationarity,
    stability_dt,
    step,
    xi_soft,
)
from sqzstat.models import einstein_solid, lattice_gas, spin_half_paramagnet, two_level

from differencing import central_derivative, mp_phi

IDENT = SqueezeFamily.identity()
BETA = math.log(2.0)
Q_SET = (0.5, 1.5, 2.0)

# fixture set used wherever a criterion says "every fixture": sizes keep
# |phi| moderate so finite differencing resolves 1e-6 absolute bands
FIXTURES = [
    ("two_level", two_level(1.0), EnsembleSpec(fixed_intensive={"E": BETA})),
    ("einstein_solid", einstein_solid(2, 60), EnsembleSpec(fixed_intensive={"E": 1.0})),
    ("paramagnet", spin_half_paramagnet(12), EnsembleSpec(fixed_intensive={"M": 0.3})),
    ("lattice_gas", lattice_gas(20), EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})),
]


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL — {label}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS — {label}")


def test_criterion_01_bg_two_level_exactness():
    with criterion(1, "BG two-level canonical matches the direct-summation oracle to 1e-10"):
        t0 = time.perf_counter()
        E = np.array([0.0, 1.0])
        w = np.exp(-BETA * E)  # ln g = 0
        Z_oracle = float(w.sum())
        P_oracle = w / Z_oracle
        mean_oracle = float((P_oracle * E).sum())
        var_oracle = float((P_oracle * (E - mean_oracle) ** 2).sum())

        env = EnsembleSpec(fixed_intensive={"E": BETA})
        table = characteristic_class(two_level(1.0), env, IDENT)
        probs = probabilities(table)
        point = phi_and_entropies(table)
        Z = math.exp(table.ln_total)
        mean = point.observed["E"]
        var = float((probs.macro_probs * (E - mean) ** 2).sum())

        assert abs(Z - Z_oracle) < 1e-10 and abs(Z - 1.5) < 1e-10
        assert abs(point.phi - (-math.log(1.5))) < 1e-10
        assert abs(mean - mean_oracle) < 1e-10 and abs(mean - 1.0 / 3.0) < 1e-10
        assert abs(var - var_oracle) < 1e-10 and abs(var - 2.0 / 9.0) < 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_microcanonical_uniformity():
    with criterion(2, "microcanonical p = 1/Omega bit-identical on the N=10 paramagnet"):
        spec = spin_half_paramagnet(10)
        for k in range(11):
            m_val = 2.0 * k - 10.0
            env = EnsembleSpec(fixed_extensive={"M": m_val})
            probs = probabilities(characteristic_class(spec, env, IDENT))
            omega = math.comb(10, k)
            assert probs.config_probs[0] == 1.0 / omega  # bit-identical division
            assert probs.macro_probs[0] == 1.0


def test_criterion_03_derivative_average_duality():
    with criterion(3, "mean equals d(phi)/dy within 1e-6 on all fixtures and families"):
        t0 = time.perf_counter()
        families = [IDENT] + [SqueezeFamily.tsallis(q) for q in Q_SET]
        for _, spectrum, env in FIXTURES:
            for fam in families:
                # phi by direct summation, differentiated by mpmath at 50 digits
                names = spectrum.variable_names
                phi = mp_phi(spectrum.x, spectrum.ln_g, fam.q)
                with mpmath.workdps(50):
                    y = [mpmath.mpf(env.fixed_intensive[n]) for n in names]
                    for i, name in enumerate(names):
                        mean = observed_mean(spectrum, env, fam, name)
                        deriv = float(mpmath.diff(phi, y, tuple(int(j == i) for j in range(len(names)))))
                        assert abs(deriv - mean) < 1e-6, (fam.label(), name)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_roundtrip_and_continuity():
    with criterion(4, "squeeze roundtrip < 1e-10 and q->1 continuity < 1e-6"):
        for q in (0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
            fam = SqueezeFamily.tsallis(q)
            for g in np.logspace(-6, 6, 100):
                ln_g = math.log(g)
                back = unsqueeze_log(fam, squeeze_log(fam, ln_g))
                if not back.cutoff_flag:
                    assert abs(back.ln_x - ln_g) < 1e-10, (q, g)
        for q in (1.0 - 1e-8, 1.0 + 1e-8):
            fam = SqueezeFamily.tsallis(q)
            for g in np.logspace(-3, 3, 100):
                ln_g = math.log(g)
                assert abs(fam.ln_squeeze(ln_g) - ln_g) < 1e-6


def test_criterion_05_composition_law():
    with criterion(5, "deformed-entropy composition law to 1e-10 via the inverse route"):
        grid = np.linspace(0.0, 3.0, 13)
        for q in Q_SET:
            fam = SqueezeFamily.tsallis(q)
            checked = 0
            for ja in grid:
                for jb in grid:
                    ln_ga = fam.ln_unsqueeze(ja)
                    ln_gb = fam.ln_unsqueeze(jb)
                    if not (math.isfinite(ln_ga) and math.isfinite(ln_gb)):
                        continue  # entropy out of range for this q: no real count
                    j_ab = fam.ln_squeeze(ln_ga + ln_gb)
                    expected = ja + jb + (1.0 - q) * ja * jb
                    assert abs(j_ab - expected) < 1e-10, (q, ja, jb)
                    checked += 1
            assert checked >= 16


def test_criterion_06_entropy_equivalence():
    with criterion(6, "probability-space deformed entropy equals engine J to 1e-8"):
        env = EnsembleSpec(fixed_intensive={"E": BETA})
        for q in Q_SET:
            fam = SqueezeFamily.tsallis(q)
            table = characteristic_class(two_level(1.0), env, fam)
            probs = probabilities(table)
            s_probs = entropy_from_probabilities(probs, fam)
            j_engine = phi_and_entropies(table).entropy_J
            assert abs(s_probs - j_engine) < 1e-8, q


def test_criterion_07_fluctuation_identity():
    with criterion(7, "uncertainty product: 1 (BG, 1e-8) and scale**2 (deformed, 1e-6)"):
        env = EnsembleSpec(fixed_intensive={"E": BETA})
        surface = phi_surface_from_spectrum(two_level(1.0), env, IDENT)
        rep = moments(surface, env.values(), ["E"], IDENT)
        assert abs(rep.variances["E"] * rep.intensive_variances["E"] - 1.0) < 1e-8
        for q in Q_SET:
            fam = SqueezeFamily.tsallis(q)
            surface = phi_surface_from_spectrum(two_level(1.0), env, fam)
            phi0 = characteristic_class(two_level(1.0), env, fam).phi
            rep = moments(surface, env.values(), ["E"], fam)
            product = rep.variances["E"] * rep.intensive_variances["E"]
            assert abs(product - (1.0 + (q - 1.0) * phi0) ** 2) < 1e-6, q


def test_criterion_08_grand_canonical_covariance():
    with criterion(8, "lattice-gas <dE dN> = -dN/dbeta = -dE/dnu within 1e-6"):
        import warnings as _warnings

        from sqzstat.fluctuation import StabilityWarning

        spec = lattice_gas(100)
        env = EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
        surface = phi_surface_from_spectrum(spec, env, IDENT)
        with _warnings.catch_warnings():
            # the fixture's energy column is identically zero, so that
            # covariance direction is genuinely flat
            _warnings.simplefilter("ignore", StabilityWarning)
            rep = moments(surface, env.values(), ["E", "N"], IDENT)
        assert rep.singular
        cov = rep.covariances[("E", "N")]

        def mean_of(name, beta, nu):
            e = EnsembleSpec(fixed_intensive={"E": beta, "N": nu})
            return observed_mean(spec, e, IDENT, name)

        # d<N>/dbeta = d2 phi/dbeta dnu of the 50-digit direct sum; d<E>/dnu by
        # differencing the engine's mean, so the two sides share no code
        assert spec.variable_names == ("E", "N")
        with mpmath.workdps(50):
            dN_dbeta = float(mpmath.diff(mp_phi(spec.x, spec.ln_g, 1.0), (0.7, 0.2), (1, 1)))
        dE_dnu = central_derivative(lambda v: mean_of("E", 0.7, v), 0.2)
        assert abs(cov - (-dN_dbeta)) < 1e-6
        assert abs(cov - (-dE_dnu)) < 1e-6
        assert abs(-dN_dbeta - (-dE_dnu)) < 1e-6


def test_criterion_09_h_theorem():
    with criterion(9, "H-theorem, conservation and detailed balance over 10 seeds x 2 families"):
        t0 = time.perf_counter()
        lattice = make_lattice(2)
        net = build_collision_network(lattice)
        for fam in (IDENT, SqueezeFamily.tsallis(1.5)):
            for seed in range(10):
                state = random_state(lattice, seed=seed)
                dt = stability_dt(state, net, fam)
                n0, e0 = state.number(), state.energy(lattice)
                s_prev = entropy_functional(state, fam)
                s = state
                for _ in range(10_000):
                    s = step(s, net, fam, dt, enforce_bound=False)
                    s_now = entropy_functional(s, fam)
                    assert s_now - s_prev >= -1e-12, (fam.label(), seed)
                    s_prev = s_now
                assert abs(s.number() - n0) / n0 < 1e-9
                assert abs(s.energy(lattice) - e0) / e0 < 1e-9
                assert float(np.max(np.abs(collision_rhs(s, net, fam)))) < 1e-12
                assert detailed_balance_residual(s, net, fam) < 1e-10
        assert time.perf_counter() - t0 < 60.0


def test_criterion_10_maxwell_boltzmann_and_xi_independence():
    with criterion(10, "undeformed stationary state is log-affine; xi choice immaterial"):
        lattice = make_lattice(2)
        net = build_collision_network(lattice)
        state = random_state(lattice, seed=123)
        dt = stability_dt(state, net, IDENT)
        a = run_to_stationarity(state, net, IDENT, dt, tol=1e-13)
        V = lattice.velocities
        X = np.column_stack([np.ones(lattice.n), V[:, 0], V[:, 1], lattice.speed_squared])
        coef, *_ = np.linalg.lstsq(X, np.log(a.F), rcond=None)
        assert float(np.max(np.abs(X @ coef - np.log(a.F)))) < 1e-8
        b = run_to_stationarity(state, net.with_xi(xi_soft), IDENT, dt, tol=1e-13)
        assert float(np.max(np.abs(a.F - b.F))) < 1e-8


def test_criterion_11_zeroth_law_inference():
    with criterion(11, "planted index recovered to 1e-3; reconstruction error contracts ~4x"):
        for q in (0.5, 1.0, 1.5, 2.0):
            fam = SqueezeFamily.tsallis(q)
            est = estimate_q(synthetic_ratio_dataset(fam, ln_g_max=5.0, n=201))
            assert abs(est.q - q) < 1e-3, q

        def sup_err(q, n):
            fam = SqueezeFamily.tsallis(q)
            grid, ln_h = reconstruct_squeeze(synthetic_ratio_dataset(fam, ln_g_max=4.0, n=n))
            exact = (np.exp((1.0 - q) * grid) - 1.0) / (1.0 - q)
            return float(np.max(np.abs(ln_h - exact)))

        for q in (0.5, 1.5, 2.0):
            ratio = sup_err(q, 101) / sup_err(q, 201)
            assert 3.0 < ratio < 5.0, q
        # exactly flat integrand at q = 1: trapezoid is exact at any grid
        fam = SqueezeFamily.tsallis(1.0)
        grid, ln_h = reconstruct_squeeze(synthetic_ratio_dataset(fam, ln_g_max=4.0, n=101))
        assert float(np.max(np.abs(ln_h - grid))) < 1e-12


def test_criterion_12_superstatistics_forward():
    with criterion(12, "mixing spike reproduces exp(-beta E) to 1e-4; unit value at E = 0"):
        beta0, width = 1.3, 1e-3
        b = np.linspace(beta0 - 6 * width, beta0 + 6 * width, 4001)
        f = np.exp(-0.5 * ((b - beta0) / width) ** 2)
        f = f / np.trapezoid(f, b)
        for energy in (0.3, 1.0, 2.5):
            got = superstatistics_forward(b, f, energy)
            assert abs(got - math.exp(-beta0 * energy)) < 1e-4, energy
        assert superstatistics_forward(b, f, 0.0) == 1.0
