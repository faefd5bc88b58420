import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqzstat import (
    DegeneracySpectrum,
    EnsembleSpec,
    SqueezeFamily,
    characteristic_class,
    phi_and_entropies,
    phi_surface_from_spectrum,
    probabilities,
)
from sqzstat.fluctuation import (
    StabilityWarning,
    einstein_log_probability,
    moments,
    stability_matrix,
)
from sqzstat.models import einstein_solid, spin_half_paramagnet, two_level

from differencing import central_derivative

IDENT = SqueezeFamily.identity()
BETA = math.log(2.0)


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
# stability_matrix

def test_two_level_curvature_is_minus_energy_variance():
    surface, env = two_level_surface()
    H = stability_matrix(surface, {"E": BETA}, ["E"])
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
    H = stability_matrix(surface, env.values(), ["E", "M"])
    assert abs(H[0, 0]) < 1e-8
    assert abs(H[0, 1]) < 1e-8
    assert H[1, 1] == pytest.approx(-distribution_variance(spec, env, IDENT, "M"), abs=1e-8)


def test_indefinite_hessian_warns():
    with pytest.warns(StabilityWarning, match="indefinite"):
        stability_matrix(FixedCurvature(np.diag([2.0, -2.0])), {"a": 0.0, "b": 0.0}, ["a", "b"])


def correlated_spectrum():
    """Joint (E, N) table with genuinely coupled fluctuations."""
    rows = []
    for n in range(7):
        rows.append((0.6 * n, float(n)))
        rows.append((0.6 * n + 1.0, float(n)))
    x = np.array(rows)
    ln_g = np.zeros(len(rows))
    return DegeneracySpectrum(("E", "N"), x, ln_g)


def test_grand_canonical_cross_entry_matches_minus_dN_dbeta():
    spec = correlated_spectrum()
    env = EnsembleSpec(fixed_intensive={"E": 0.5, "N": 0.3})
    surface = phi_surface_from_spectrum(spec, env, IDENT)
    H = stability_matrix(surface, env.values(), ["E", "N"])
    cov_EN = -H[0, 1]

    def mean_n(beta):
        e = EnsembleSpec(fixed_intensive={"E": beta, "N": 0.3})
        return phi_and_entropies(characteristic_class(spec, e, IDENT)).observed["N"]

    dN_dbeta = central_derivative(mean_n, 0.5)
    assert cov_EN == pytest.approx(-dN_dbeta, abs=1e-7)
    # oracle: direct covariance from the exact distribution
    probs = probabilities(characteristic_class(spec, env, IDENT))
    E, Ncol = spec.column("E"), spec.column("N")
    me = float((probs.macro_probs * E).sum())
    mn = float((probs.macro_probs * Ncol).sum())
    direct = float((probs.macro_probs * (E - me) * (Ncol - mn)).sum())
    assert cov_EN == pytest.approx(direct, abs=1e-7)


def test_mixed_covariance_symmetry():
    # -dN/dbeta == -dE/dnu
    spec = correlated_spectrum()

    def mean_of(name, beta, nu):
        e = EnsembleSpec(fixed_intensive={"E": beta, "N": nu})
        return phi_and_entropies(characteristic_class(spec, e, IDENT)).observed[name]

    dN_dbeta = central_derivative(lambda b: mean_of("N", b, 0.3), 0.5)
    dE_dnu = central_derivative(lambda v: mean_of("E", 0.5, v), 0.3)
    assert -dN_dbeta == pytest.approx(-dE_dnu, abs=1e-6)


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
    surface, _ = two_level_surface()
    rep = moments(surface, {"E": BETA}, ["E"], fam)
    assert rep.tsallis_scale == 1.0


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
# einstein_log_probability

def test_most_probable_state_has_zero_log_density():
    assert einstein_log_probability([0.0], np.array([[4.5]])) == 0.0


def test_one_dimensional_quadratic_form():
    assert einstein_log_probability([1.0], np.array([[4.5]])) == pytest.approx(-2.25, abs=1e-14)
    assert einstein_log_probability([1.0], np.array([[4.5]]), tsallis_scale=1.5) == pytest.approx(
        -1.5, abs=1e-14
    )


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
        gauss_ratio = math.exp(einstein_log_probability([delta], rep.G, rep.tsallis_scale))
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
    """A surface whose curvature is a given matrix, at a given phi (0 by default)."""

    def __init__(self, H, phi=0.0):
        self.H, self.phi = H, phi

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


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.floats(-1e6, 1e6).filter(lambda c: c != 0.0))
def test_one_variable_stability_is_exactly_the_reciprocal(c):
    rep, _ = moments_of(np.array([[c]]))
    assert rep.G[0, 0].hex() == (1.0 / c).hex()
    assert rep.condition_number == 1.0
    assert not rep.singular


# ---------------------------------------------------------------------------
# the float bookkeeping of moments against the ndarray bookkeeping it replaces


def ndarray_moments(H, phi0, family):
    """moments' n x n bookkeeping on ndarrays, after its one eigh, as numpy
    calls on the eigenvalues and on C: (report fields, warning messages)."""
    messages = set()
    H = 0.5 * (H + H.T)
    eig, vec = np.linalg.eigh(H)
    scale = max(1.0, float(np.max(np.abs(eig))))
    if np.any(eig > 1e-8 * scale) and np.any(eig < -1e-8 * scale):
        messages.add("indefinite curvature: state is not a one-sided extremum")
    C, eig = -H, -eig
    scale = 1.0 + (family.q - 1.0) * phi0 if family.kind == "tsallis" and not family.is_identity else 1.0
    size = np.abs(eig)
    flat = size.min() == 0.0 or not C.any(axis=1).all()
    with np.errstate(over="ignore", invalid="ignore"):
        cond = math.inf if flat else float(size.max() / size.min())
        singular = not math.isfinite(cond) or cond > 1e8
        if singular:
            messages.add("covariance matrix is numerically singular")
            eig = np.where(size > 1e-15 * size.max(), eig, math.inf)
        G = (vec / eig) @ vec.T
    n = H.shape[0]
    variances = [scale * float(C[i, i]) for i in range(n)]
    flat_scale = max(1.0, float(np.max(np.abs(C))))
    intensive = [math.inf if singular and abs(C[i, i]) <= 1e-8 * flat_scale
                 else scale * float(G[i, i]) for i in range(n)]
    covariances = [scale * float(C[i, j]) for i in range(n) for j in range(i + 1, n)]
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
def test_float_bookkeeping_is_bit_identical_to_ndarray_bookkeeping(case, at):
    _, C = case
    phi0, family = at
    names = [f"x{i}" for i in range(C.shape[0])]
    expected, messages_ref = ndarray_moments(-C, phi0, family)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = moments(FixedCurvature(-C, phi0), dict.fromkeys(names, 0.0), names, family)
    assert {str(w.message) for w in caught} == messages_ref
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    got = (rep.G, rep.G_inv, [rep.variances[n] for n in names],
           [rep.intensive_variances[n] for n in names], [rep.covariances[p] for p in pairs],
           rep.condition_number, rep.singular)
    for g, e in zip(got, expected):
        if isinstance(g, list):
            assert [bits(v) for v in g] == [bits(v) for v in e]
        else:
            assert bits(g) == bits(e)


# ---------------------------------------------------------------------------
# a 1 x 1 curvature is its own eigendecomposition: no eigh call


def eigh_route_moments(H, phi0, family):
    """moments as formed while every H, 1 x 1 included, went through np.linalg.eigh."""
    H = 0.5 * (H + H.T)
    eig, vec = np.linalg.eigh(H)
    lam = eig.tolist()
    scale = max(1.0, *map(abs, lam))
    if any(v > 1e-8 * scale for v in lam) and any(v < -1e-8 * scale for v in lam):
        warnings.warn("indefinite curvature: state is not a one-sided extremum", StabilityWarning)
    C, eig = -H, -eig
    ts = 1.0 + (family.q - 1.0) * phi0 if family.kind == "tsallis" and not family.is_identity else 1.0
    lam, c = eig.tolist(), C.tolist()
    size = [abs(v) for v in lam]
    top, bottom = max(size), min(size)
    cond = math.inf if bottom == 0.0 or not all(map(any, c)) else top / bottom
    singular = not math.isfinite(cond) or cond > 1e8
    if singular:
        warnings.warn("covariance matrix is numerically singular", StabilityWarning)
        eig = [v if s > 1e-15 * top else math.inf for v, s in zip(lam, size)]
    with np.errstate(over="ignore", invalid="ignore"):
        G = (vec / eig) @ vec.T
    zero = 1e-8 * max(1.0, float(np.max(np.abs(C)))) if singular else -math.inf
    intensive = math.inf if abs(c[0][0]) <= zero else ts * G.tolist()[0][0]
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
            out = run()
        return out, {(w.category, str(w.message)) for w in caught}

    expected, warned_ref = record(lambda: eigh_route_moments(H.copy(), phi0, family))
    rep, warned = record(lambda: moments(FixedCurvature(H, phi0), {"x": 0.0}, ["x"], family))
    assert warned == warned_ref
    got = (rep.G, rep.G_inv, [rep.variances["x"]], [rep.intensive_variances["x"]],
           list(rep.covariances.values()), rep.condition_number, rep.singular)
    for g, e in zip(got, expected):
        if isinstance(g, list):
            assert [bits(v) for v in g] == [bits(v) for v in e]
        else:
            assert bits(g) == bits(e)


def test_one_variable_moments_make_no_eigh_call(monkeypatch):
    def no_eigh(H):
        raise AssertionError("eigh called for a 1 x 1 curvature")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    surface, env = two_level_surface()
    rep = moments(surface, env.values(), ["E"], IDENT)
    assert rep.variances["E"] == pytest.approx(2.0 / 9.0, abs=1e-12)
    with pytest.raises(AssertionError, match="eigh called"):
        stability_matrix(FixedCurvature(np.eye(2)), {"a": 0.0, "b": 0.0}, ["a", "b"])
