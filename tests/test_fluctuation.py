import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqzstat import (
    DegeneracySpectrum,
    EnsembleSpec,
    SqueezeFamily,
    characteristic_class,
    phi_surface_from_spectrum,
    probabilities,
)
from sqzstat.errors import SqueezeDomainError
from sqzstat.fluctuation import StabilityWarning, moments
from sqzstat.models import einstein_solid, lattice_gas, spin_half_paramagnet, two_level

from differencing import direct_sums, mp_derivative

IDENT = SqueezeFamily.identity()
BETA = math.log(2.0)
EPS = np.finfo(float).eps


def two_level_surface():
    env = EnsembleSpec(fixed_intensive={"E": BETA})
    return phi_surface_from_spectrum(two_level(1.0), env, IDENT), env


def distribution_variance(spec, env, fam, name):
    """Oracle: variance of a column under the exact macro distribution."""
    table = characteristic_class(spec, env, fam)
    probs = probabilities(table)
    x = spec.restrict(env.fixed_extensive).column(name) if env.fixed_extensive else spec.column(name)
    mean = float((probs.macro_probs * x).sum())
    return float((probs.macro_probs * (x - mean) ** 2).sum())


# ---------------------------------------------------------------------------
# the Hessian H = -C: the curvature as moments symmetrizes it, or as the surface gives it

def test_two_level_curvature_is_minus_energy_variance():
    surface, env = two_level_surface()
    H = -moments(surface, {"E": BETA}, ["E"], IDENT).G_inv
    var = distribution_variance(two_level(1.0), env, IDENT, "E")
    assert var == pytest.approx(2.0 / 9.0, abs=1e-12)  # direct-oracle check
    assert H[0, 0] == pytest.approx(-var, abs=1e-9)


def test_flat_direction_gives_zero_row_and_column():
    # two exchanged variables, E identical on every row: no E fluctuation
    spec = DegeneracySpectrum(
        ("E", "M"), np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0])
    )
    env = EnsembleSpec(fixed_intensive={"E": 0.4, "M": 0.3})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    H = surface.curvature(env.values(), ["E", "M"])[1]
    assert abs(H[0, 0]) < 1e-8
    assert abs(H[0, 1]) < 1e-8
    assert H[1, 1] == pytest.approx(-distribution_variance(spec, env, IDENT, "M"), abs=1e-8)


def test_indefinite_hessian_warns():
    with pytest.warns(StabilityWarning, match="indefinite"):
        moments(FixedCurvature(np.diag([2.0, -2.0])), {"a": 0.0, "b": 0.0}, ["a", "b"], IDENT)


def correlated_spectrum():
    """Joint (E, N) table with genuinely coupled fluctuations."""
    rows = []
    for n in range(7):
        rows.append((0.6 * n, float(n)))
        rows.append((0.6 * n + 1.0, float(n)))
    x = np.array(rows)
    ln_g = np.zeros(len(rows))
    return DegeneracySpectrum(("E", "N"), x, ln_g)


def correlated_curvature_oracle(y):
    """The correlated spectrum's d<N>/dbeta by mpmath.diff of the 50-digit phi, its d<E>/dnu
    from the closed-form sums, and the error bound of an engine curvature entry: 64 eps cond
    (1 + 3q) times the entry's scale, q = 1 (as in tests/test_derivatives.py)."""
    spec = correlated_spectrum()
    ref = direct_sums(spec.x, spec.ln_g, np.array(y), 1.0)
    dN_dbeta = mp_derivative(spec.x, spec.ln_g, y, 1.0, (1, 1))
    return dN_dbeta, ref["H"][0, 1], 64.0 * EPS * ref["cond"] * 4.0 * ref["scale"][0, 1]


def test_grand_canonical_cross_entry_matches_minus_dN_dbeta():
    spec = correlated_spectrum()
    env = EnsembleSpec(fixed_intensive={"E": 0.5, "N": 0.3})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    H = -moments(surface, env.values(), ["E", "N"], IDENT).G_inv
    cov_EN = -H[0, 1]
    dN_dbeta, _, err = correlated_curvature_oracle([0.5, 0.3])
    assert abs(cov_EN + dN_dbeta) <= err
    # oracle: direct covariance from the exact distribution
    probs = probabilities(characteristic_class(spec, env, IDENT))
    E, Ncol = spec.column("E"), spec.column("N")
    me = float((probs.macro_probs * E).sum())
    mn = float((probs.macro_probs * Ncol).sum())
    direct = float((probs.macro_probs * (E - me) * (Ncol - mn)).sum())
    assert cov_EN == pytest.approx(direct, abs=1e-7)


def test_mixed_covariance_symmetry():
    # -dN/dbeta == -dE/dnu: the curvature's two mixed entries, as the surface forms them
    # before moments symmetrizes, against two 50-digit routes that share no code
    spec = correlated_spectrum()
    env = EnsembleSpec(fixed_intensive={"E": 0.5, "N": 0.3})
    H = phi_surface_from_spectrum(spec, env, IDENT).curvature(env.values(), ["E", "N"])[1]
    dN_dbeta, dE_dnu, err = correlated_curvature_oracle([0.5, 0.3])
    assert abs(H[1, 0] - dN_dbeta) <= err
    assert abs(H[0, 1] - dE_dnu) <= err
    assert abs(dN_dbeta - dE_dnu) <= EPS * abs(dE_dnu)


# ---------------------------------------------------------------------------
# moments

def test_bg_uncertainty_product_is_one():
    surface, _ = two_level_surface()
    rep = moments(surface, {"E": BETA}, ["E"], IDENT)
    product = rep.variances["E"] * rep.intensive_variances["E"]
    assert product == pytest.approx(1.0, abs=1e-8)
    assert rep.tsallis_scale == 1.0


def test_tsallis_scaled_product():
    fam = SqueezeFamily.tsallis(2.0)
    env = EnsembleSpec(fixed_intensive={"E": BETA})
    surface = phi_surface_from_spectrum(two_level(1.0), env, fam)
    phi0 = characteristic_class(two_level(1.0), env, fam).phi
    rep = moments(surface, {"E": BETA}, ["E"], fam)
    assert rep.phi0 == pytest.approx(phi0, abs=1e-12)
    expected = (1.0 + (2.0 - 1.0) * phi0) ** 2
    product = rep.variances["E"] * rep.intensive_variances["E"]
    assert product == pytest.approx(expected, abs=1e-6)
    assert rep.tsallis_scale == pytest.approx(1.0 + phi0, abs=1e-12)


def test_q_one_scale_is_exactly_one():
    fam = SqueezeFamily.tsallis(1.0)
    env = EnsembleSpec(fixed_intensive={"E": BETA})
    surface = phi_surface_from_spectrum(two_level(1.0), env, fam)
    rep = moments(surface, {"E": BETA}, ["E"], fam)
    assert rep.tsallis_scale == 1.0


def test_moments_of_an_identity_surface_take_tsallis_q_one():
    env = EnsembleSpec(fixed_intensive={"E": 1.0})
    surface = phi_surface_from_spectrum(two_level(1.0), env, IDENT)
    rep = moments(surface, env.values(), ["E"], SqueezeFamily.tsallis(1.0))  # an equal family
    ref = moments(surface, env.values(), ["E"], IDENT)
    assert rep.tsallis_scale == 1.0
    assert rep.variances == ref.variances and rep.intensive_variances == ref.intensive_variances


def test_moments_reject_a_family_other_than_the_surfaces():
    # the family sets the scale: the identity read 1.0 here, and a variance of 0.15130
    env = EnsembleSpec(fixed_intensive={"E": 0.7})
    surface = phi_surface_from_spectrum(two_level(1.0), env, SqueezeFamily.tsallis(1.5))
    with pytest.raises(ValueError, match=r"tsallis\(q=1\.5\) surface asked for identity"):
        moments(surface, env.values(), ["E"], IDENT)
    rep = moments(surface, env.values(), ["E"], SqueezeFamily.tsallis(1.5))  # an equal family
    assert rep.tsallis_scale == pytest.approx(0.8036, abs=1e-4)
    assert rep.variances["E"] == pytest.approx(0.12158, abs=1e-5)


@pytest.mark.parametrize("names", [["E", "E"], ["E", "N", "E"]])
def test_moments_reject_repeated_names(names):
    # the reports' dicts would collapse the repeats: variances={'E': ...}
    env = EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    surface = phi_surface_from_spectrum(lattice_gas(20), env, IDENT)
    with pytest.raises(ValueError, match="repeated variables"):
        moments(surface, env.values(), names, IDENT)


def test_moments_reject_an_empty_variable_list():
    # it raised "max() arg is an empty sequence", after the curvature read
    env = EnsembleSpec(fixed_intensive={"E": 0.7})
    surface = phi_surface_from_spectrum(two_level(1.0), env, IDENT)
    unread = FixedCurvature(None)  # reading its curvature raises AttributeError: the check comes first
    for s in (surface, unread):
        with pytest.raises(ValueError, match="no variables"):
            moments(s, env.values(), [], IDENT)


def test_moment_matrices_are_construction_level_inverses():
    spec = correlated_spectrum()
    env = EnsembleSpec(fixed_intensive={"E": 0.5, "N": 0.3})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    rep = moments(surface, env.values(), ["E", "N"], IDENT)
    assert np.allclose(rep.G @ rep.G_inv, np.eye(2), atol=1e-8)
    assert np.allclose(rep.G, rep.G.T, atol=1e-10)
    # scalar uncertainty products per variable pair hold to 1e-8
    for i, name in enumerate(rep.variable_names):
        prod = rep.variances[name] * rep.intensive_variances[name]
        expected = rep.G_inv[i, i] * rep.G[i, i]
        assert prod == pytest.approx(expected, rel=1e-10)


def test_singular_direction_flagged_with_infinite_intensive_variance():
    spec = DegeneracySpectrum(
        ("E", "M"), np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0])
    )
    env = EnsembleSpec(fixed_intensive={"E": 0.4, "M": 0.3})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        rep = moments(surface, env.values(), ["E", "M"], IDENT)
    assert rep.singular
    assert rep.variances["E"] == pytest.approx(0.0, abs=1e-8)
    assert math.isinf(rep.intensive_variances["E"])
    assert math.isfinite(rep.intensive_variances["M"])


def pair_surface(x):
    """The identity surface of two rows E = +-x with g = 1, at y = 0: C = x * x, G = 1/C."""
    env = EnsembleSpec(fixed_intensive={"E": 0.0})
    return phi_surface_from_spectrum(DegeneracySpectrum(("E",), np.array([[x], [-x]]), np.zeros(2)), env, IDENT)


def test_a_covariance_past_half_the_float_range_is_read():
    # C = 1.69e308 is finite but C + C' is not: a second symmetrization read inf, warned twice
    # and called the direction singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = moments(pair_surface(1.3e154), {"E": 0.0}, ["E"], IDENT)
    C = 1.3e154 * 1.3e154
    assert rep.variances["E"] == rep.G_inv[0, 0] == C
    assert rep.G[0, 0] == rep.intensive_variances["E"] == 1.0 / C
    assert rep.condition_number == 1.0 and not rep.singular


def test_a_subnormal_covariance_is_a_domain_error():
    # C = 1e-320 is a finite nonzero variance whose G = 1/C is beyond the float range
    with pytest.raises(SqueezeDomainError, match="fluctuation moments exceed the float range"):
        moments(pair_surface(1e-160), {"E": 0.0}, ["E"], IDENT)


def test_grand_canonical_covariance_report():
    spec = correlated_spectrum()
    env = EnsembleSpec(fixed_intensive={"E": 0.5, "N": 0.3})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    rep = moments(surface, env.values(), ["E", "N"], IDENT)
    probs = probabilities(characteristic_class(spec, env, IDENT))
    E, Ncol = spec.column("E"), spec.column("N")
    me = float((probs.macro_probs * E).sum())
    mn = float((probs.macro_probs * Ncol).sum())
    direct = float((probs.macro_probs * (E - me) * (Ncol - mn)).sum())
    assert rep.covariances[("E", "N")] == pytest.approx(direct, abs=1e-7)


# ---------------------------------------------------------------------------
# the Einstein density exp(-alpha (G / scale) alpha / 2) of a deviation alpha

def test_gaussian_ratio_matches_exact_ratio_near_peak():
    # N-site two-level (paramagnet) fixture: the stated |delta| <= sigma/2
    # window actually contains states (single two-level spacing exceeds it)
    N = 100
    spec = spin_half_paramagnet(N)
    env = EnsembleSpec(fixed_intensive={"M": 0.05})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    rep = moments(surface, env.values(), ["M"], IDENT)
    probs = probabilities(characteristic_class(spec, env, IDENT))
    m = spec.column("M")
    i0 = int(np.argmax(probs.macro_probs))
    sigma = math.sqrt(rep.variances["M"])
    checked = 0
    for i in range(spec.n_rows):
        delta = m[i] - m[i0]
        if i == i0 or abs(delta) > 0.5 * sigma:
            continue
        exact_ratio = probs.macro_probs[i] / probs.macro_probs[i0]
        gauss_ratio = math.exp(-0.5 * delta * (rep.G[0, 0] / rep.tsallis_scale) * delta)
        assert abs(gauss_ratio / exact_ratio - 1.0) < 0.10, (m[i], gauss_ratio, exact_ratio)
        checked += 1
    assert checked >= 2


def test_empirical_ladder_variance_matches_curvature():
    # 50-level uniform ladder: sample the exact macro distribution and
    # compare the empirical variance with the curvature prediction
    spec = einstein_solid(1, 49)
    env = EnsembleSpec(fixed_intensive={"E": 0.5})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    rep = moments(surface, env.values(), ["E"], IDENT)
    probs = probabilities(characteristic_class(spec, env, IDENT))
    rng = np.random.default_rng(20240817)
    draws = rng.choice(spec.column("E"), size=100_000, p=probs.macro_probs)
    emp_var = float(np.var(draws))
    assert abs(emp_var / rep.variances["E"] - 1.0) < 0.02


# ---------------------------------------------------------------------------
# one eigendecomposition against the separate numpy calls it replaces


class FixedCurvature:
    """A surface whose curvature is a given matrix, at a given phi (0 by default), of a family."""

    def __init__(self, H, phi=0.0, family=IDENT):
        self.H, self.phi, self.family = H, phi, family

    def __call__(self, values):
        return self.phi

    def curvature(self, point, names):
        return self.phi, self.H.copy()


def rotation(n, angles):
    """An orthogonal n x n matrix from up to three plane rotations."""
    Q = np.eye(n)
    for (i, j), a in zip([(0, 1), (1, 2), (0, 2)], angles):
        if j < n:
            R = np.eye(n)
            R[i, i] = R[j, j] = math.cos(a)
            R[i, j], R[j, i] = -math.sin(a), math.sin(a)
            Q = Q @ R
    return Q


@st.composite
def covariance_matrices(draw):
    """(kind, C): symmetric 1-3 variable covariance matrices that are
    positive definite, indefinite, rank-deficient (one zero eigenvalue up
    to rounding) or with an exactly zero row and column."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["spd", "indefinite", "rank_deficient", "zero_row"]))
    lam = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    Q = rotation(n, draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3)))
    if kind == "indefinite":
        lam[0] = -lam[0]
    if kind == "rank_deficient":
        lam[0] = 0.0
    C = (Q * lam) @ Q.T
    if kind == "zero_row":
        i = draw(st.integers(0, n - 1))
        C[i, :] = C[:, i] = 0.0
    C = 0.5 * (C + C.T) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return kind, C


# a flat middle row: eigh of the whole 3 x 3 leaves ~1e-17 on G's flat row and column and moves
# the last bits of the live block; the live 2 x 2 block alone gives exact zeros there
THREE_WITH_A_FLAT_MIDDLE = np.array([[4.747905347160151, 0.0, 1.2614185700438512],
                                     [0.0, 0.0, 0.0],
                                     [1.2614185700438512, 0.0, 8.184387712126425]])


def reference_moments(C):
    """The separate numpy calls: eigvalsh for the indefinite check, cond,
    then pinv when singular, 1/C for one variable and inv otherwise."""
    n = C.shape[0]
    eig = np.linalg.eigvalsh(-C)
    scale = max(1.0, float(np.max(np.abs(eig))))
    messages = set()
    if np.any(eig > 1e-8 * scale) and np.any(eig < -1e-8 * scale):
        messages.add("indefinite curvature: state is not a one-sided extremum")
    cond = float(np.linalg.cond(C))
    singular = not math.isfinite(cond) or cond > 1e8
    if singular:
        messages.add("covariance matrix is numerically singular")
        G = np.linalg.pinv(C)
    else:
        G = np.array([[1.0 / C[0, 0]]]) if n == 1 else np.linalg.inv(C)
    flat = max(1.0, float(np.max(np.abs(C))))
    intensive = [math.inf if singular and abs(C[i, i]) <= 1e-8 * flat else float(G[i, i])
                 for i in range(n)]
    return G, cond, singular, intensive, messages


def moments_of(C):
    names = [f"x{i}" for i in range(C.shape[0])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = moments(FixedCurvature(-C), dict.fromkeys(names, 0.0), names, IDENT)
    return rep, {str(w.message) for w in caught}


@settings(deadline=None, max_examples=300, derandomize=True)
@given(covariance_matrices())
# eigh leaves the zero eigenvalue at 8e-145, below pinv's cutoff; np.linalg.cond is inf
@example(("rank_deficient", np.array([[1.19291165e-136, -1.10070473e-70], [-1.10070473e-70, 1.015625e-4]])))
@example(("zero_row", THREE_WITH_A_FLAT_MIDDLE))
def test_eigendecomposition_matches_inv_pinv_and_cond(case):
    kind, C = case
    G_ref, cond_ref, singular_ref, intensive_ref, messages_ref = reference_moments(C)
    assume(not 1e6 <= cond_ref <= 1e10)  # away from the 1e8 singularity boundary
    rep, messages = moments_of(C)
    np.testing.assert_allclose(rep.G, G_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(G_ref)))
    if math.isinf(cond_ref):
        assert math.isinf(rep.condition_number)
    elif cond_ref < 1e6:
        assert rep.condition_number == pytest.approx(cond_ref, rel=1e-12)
    else:  # a rounding-level eigenvalue: both far beyond the boundary
        assert rep.condition_number > 1e10
    assert rep.singular == singular_ref
    intensive = [rep.intensive_variances[n] for n in rep.variable_names]
    assert intensive == pytest.approx(intensive_ref, rel=1e-12)
    assert messages == messages_ref
    if kind == "zero_row":
        assert rep.singular and math.isinf(rep.condition_number)
        flat = ~C.any(axis=1)
        assert not rep.G[flat].any() and not rep.G[:, flat].any()  # exact zeros, as pinv's limit


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.floats(-1e6, 1e6).filter(lambda c: c != 0.0))
@example(5e-324)
@example(-1e-310)
def test_one_variable_stability_is_exactly_the_reciprocal(c):
    if math.isinf(1.0 / c):  # a subnormal c: G is beyond the float range
        with pytest.raises(SqueezeDomainError, match="exceed the float range"):
            moments_of(np.array([[c]]))
        return
    rep, _ = moments_of(np.array([[c]]))
    assert rep.G[0, 0].hex() == (1.0 / c).hex()
    assert rep.condition_number == 1.0
    assert not rep.singular


# ---------------------------------------------------------------------------
# the float bookkeeping of moments against the ndarray bookkeeping it replaces


def ndarray_moments(H, phi0, family):
    """moments' n x n bookkeeping on ndarrays, after its one eigh of the rows and
    columns of C that are not exactly zero (a zero row is a flat direction, an
    eigenvalue 0, and G is zero on it), as numpy calls on the eigenvalues and
    on C: (report fields, warning messages); the fields are None where one of them is beyond
    the float range, but for the inf intensive variance of a singular direction."""
    messages = set()
    n = H.shape[0]
    live = np.flatnonzero(H.any(axis=1))
    eig, vec = np.linalg.eigh(H[np.ix_(live, live)])
    eig = np.concatenate([eig, np.zeros(n - live.size)])
    scale = max(1.0, float(np.max(np.abs(eig))))
    if np.any(eig > 1e-8 * scale) and np.any(eig < -1e-8 * scale):
        messages.add("indefinite curvature: state is not a one-sided extremum")
    C, eig = -H, -eig
    scale = 1.0 + (family.q - 1.0) * phi0
    size = np.abs(eig)
    flat = size.min() <= 1e-15 * size.max() or not C.any(axis=1).all()
    with np.errstate(over="ignore", invalid="ignore"):
        cond = math.inf if flat else float(size.max() / size.min())
        singular = not math.isfinite(cond) or cond > 1e8
        if singular:
            messages.add("covariance matrix is numerically singular")
            eig = np.where(size > 1e-15 * size.max(), eig, math.inf)
        G = np.zeros((n, n))
        G[np.ix_(live, live)] = (vec / eig[:live.size]) @ vec.T
    G = np.where(np.tri(n, k=-1, dtype=bool), G.T, G)  # the upper triangle mirrored
    variances = [scale * float(C[i, i]) for i in range(n)]
    flat_scale = max(1.0, float(np.max(np.abs(C))))
    drop = [singular and abs(C[i, i]) <= 1e-8 * flat_scale for i in range(n)]
    intensive = [math.inf if drop[i] else scale * float(G[i, i]) for i in range(n)]
    covariances = [scale * float(C[i, j]) for i in range(n) for j in range(i + 1, n)]
    reported = [scale, *C.flat, *G.flat, *variances, *covariances, *(v for v, d in zip(intensive, drop) if not d)]
    if not np.isfinite(reported).all():
        return None, messages
    return (G, C, variances, intensive, covariances, cond, singular), messages


@st.composite
def subnormal_covariances(draw):
    """("subnormal", C): a diagonal C with one subnormal (or underflowing) eigenvalue."""
    n = draw(st.integers(1, 3))
    lam = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    lam[draw(st.integers(0, n - 1))] = draw(st.sampled_from([5e-324, 1e-320, 1e-310, 2e-308]))
    return "subnormal", np.diag(lam) * draw(st.sampled_from([1e-3, 1.0, 1e3]))


def bits(v):
    if isinstance(v, np.ndarray):
        return v.shape, v.tobytes()
    return struct.pack("d", v) if isinstance(v, float) else v


@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.one_of(covariance_matrices(), subnormal_covariances()),
       st.sampled_from([(0.0, IDENT), (0.7, SqueezeFamily.tsallis(1.5)), (-2.5, SqueezeFamily.tsallis(0.4))]))
@example(("zero_row", THREE_WITH_A_FLAT_MIDDLE), (0.7, SqueezeFamily.tsallis(1.5)))
def test_float_bookkeeping_is_bit_identical_to_ndarray_bookkeeping(case, at):
    _, C = case
    phi0, family = at
    names = [f"x{i}" for i in range(C.shape[0])]
    expected, messages_ref = ndarray_moments(-C, phi0, family)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = moments(FixedCurvature(-C, phi0, family), dict.fromkeys(names, 0.0), names, family)
        except SqueezeDomainError:  # a subnormal eigenvalue of a non-singular C: 1/lambda is inf
            rep = None
    assert {str(w.message) for w in caught} == messages_ref
    assert (rep is None) == (expected is None)
    if rep is None:
        return
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    got = (rep.G, rep.G_inv, [rep.variances[n] for n in names],
           [rep.intensive_variances[n] for n in names], [rep.covariances[p] for p in pairs],
           rep.condition_number, rep.singular)
    for g, e in zip(got, expected):
        if isinstance(g, list):
            assert [bits(v) for v in g] == [bits(v) for v in e]
        else:
            assert bits(g) == bits(e)
    assert bits(rep.G) == bits(rep.G.T.copy())  # G is symmetric to the bit


# ---------------------------------------------------------------------------
# a 1 x 1 curvature is its own eigendecomposition: no eigh call


def eigh_route_moments(H, phi0, family):
    """moments as formed while every H, 1 x 1 included, went through np.linalg.eigh; a value
    beyond the float range, but for a singular direction's intensive variance, raises."""
    eig, vec = np.linalg.eigh(H)
    lam = eig.tolist()
    scale = max(1.0, *map(abs, lam))
    if any(v > 1e-8 * scale for v in lam) and any(v < -1e-8 * scale for v in lam):
        warnings.warn("indefinite curvature: state is not a one-sided extremum", StabilityWarning)
    C, eig = -H, -eig
    ts = 1.0 + (family.q - 1.0) * phi0
    lam, c = eig.tolist(), C.tolist()
    size = [abs(v) for v in lam]
    top, bottom = max(size), min(size)
    cond = math.inf if bottom <= 1e-15 * top or not all(map(any, c)) else top / bottom
    singular = not math.isfinite(cond) or cond > 1e8
    if singular:
        warnings.warn("covariance matrix is numerically singular", StabilityWarning)
        eig = [v if s > 1e-15 * top else math.inf for v, s in zip(lam, size)]
    with np.errstate(over="ignore", invalid="ignore"):
        G = (vec / eig) @ vec.T
    zero = 1e-8 * max(1.0, float(np.max(np.abs(C)))) if singular else -math.inf
    drop = abs(c[0][0]) <= zero
    intensive = math.inf if drop else ts * G.tolist()[0][0]
    if not np.isfinite([ts, c[0][0], *G.flat, ts * c[0][0], *([] if drop else [intensive])]).all():
        raise SqueezeDomainError("fluctuation moments exceed the float range")
    return G, C, [ts * c[0][0]], [intensive], [], cond, singular


ONE_BY_ONE_SPECIALS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                       -2.2e-308, 1e308, -1e308, 1.7976931348623157e308, 1.0, -1.0, 1e-9, -3.5e7]


@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.one_of(st.sampled_from(ONE_BY_ONE_SPECIALS), st.floats(allow_nan=True, allow_infinity=True)),
       st.sampled_from([(0.0, IDENT), (0.7, SqueezeFamily.tsallis(1.5)), (-2.5, SqueezeFamily.tsallis(0.4))]))
def test_one_variable_moments_are_bit_identical_to_the_eigh_route(h, at):
    phi0, family = at
    H = np.array([[h]])

    def record(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = run()
            except SqueezeDomainError as exc:
                out = str(exc)
        return out, {(w.category, str(w.message)) for w in caught}

    expected, warned_ref = record(lambda: eigh_route_moments(H.copy(), phi0, family))
    rep, warned = record(lambda: moments(FixedCurvature(H, phi0, family), {"x": 0.0}, ["x"], family))
    assert warned == warned_ref
    if isinstance(expected, str) or isinstance(rep, str):
        assert rep == expected
        return
    got = (rep.G, rep.G_inv, [rep.variances["x"]], [rep.intensive_variances["x"]],
           list(rep.covariances.values()), rep.condition_number, rep.singular)
    for g, e in zip(got, expected):
        if isinstance(g, list):
            assert [bits(v) for v in g] == [bits(v) for v in e]
        else:
            assert bits(g) == bits(e)
    assert bits(rep.G) == bits(rep.G.T.copy())  # G is symmetric to the bit


def test_one_variable_moments_make_no_eigh_call(monkeypatch):
    def no_eigh(H):
        raise AssertionError("eigh called for one live direction")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    surface, env = two_level_surface()
    rep = moments(surface, env.values(), ["E"], IDENT)
    assert rep.variances["E"] == pytest.approx(2.0 / 9.0, abs=1e-12)
    # E is identically 0 on the lattice gas: a flat direction, and one live one
    env = EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    surface = phi_surface_from_spectrum(lattice_gas(30), env, IDENT)
    with pytest.warns(StabilityWarning, match="singular"):
        rep = moments(surface, env.values(), ["E", "N"], IDENT)
    p = 1.0 / (1.0 + math.exp(0.2))  # each site occupied independently
    assert rep.variances == pytest.approx({"E": 0.0, "N": 30 * p * (1.0 - p)}, rel=1e-12)
    assert rep.G[0].tolist() == rep.G[:, 0].tolist() == [0.0, 0.0]
    assert rep.G[1, 1] == 1.0 / rep.G_inv[1, 1] and rep.intensive_variances["E"] == math.inf
    with pytest.raises(AssertionError, match="eigh called"):
        moments(FixedCurvature(np.eye(2)), {"a": 0.0, "b": 0.0}, ["a", "b"], IDENT)
