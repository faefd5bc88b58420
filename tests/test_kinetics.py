import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from sqzstat import ModelValidationError, SqueezeDomainError, SqueezeFamily, StepSizeError
from sqzstat.kinetics import (
    CollisionNetwork,
    KineticState,
    build_collision_network,
    collision_rhs,
    detailed_balance_residual,
    entropy_functional,
    make_lattice,
    random_state,
    run_to_stationarity,
    run_trace,
    stability_dt,
    step,
    xi_soft,
)

IDENT = SqueezeFamily.identity()


def reenumerate_quadruples(radius):
    """Independent brute-force oracle over ordered velocity triples; the
    fourth velocity is fixed by momentum, then energy is checked."""
    r2 = radius * radius
    vs = sorted(
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if x * x + y * y <= r2
    )
    on_lattice = set(vs)
    found = set()
    for vi in vs:
        for vj in vs:
            for vk in vs:
                vl = (vi[0] + vj[0] - vk[0], vi[1] + vj[1] - vk[1])
                if vl not in on_lattice:
                    continue
                if vi[0] ** 2 + vi[1] ** 2 + vj[0] ** 2 + vj[1] ** 2 != (
                    vk[0] ** 2 + vk[1] ** 2 + vl[0] ** 2 + vl[1] ** 2
                ):
                    continue
                a, b = tuple(sorted((vi, vj))), tuple(sorted((vk, vl)))
                if a == b:
                    continue
                found.add(frozenset((a, b)))
    return found


def network_as_velocity_sets(lat, net):
    vel = [tuple(int(c) for c in v) for v in lat.velocities]
    return {
        frozenset((tuple(sorted((vel[a], vel[b]))), tuple(sorted((vel[c], vel[d])))))
        for a, b, c, d in net.quadruples
    }


def loop_rhs(F, net, family):
    """Python-loop oracle: gain +rate on (i, j), loss -rate on (k, l)."""
    h = family.h_of(F)
    out = np.zeros(F.size)
    for (i, j, k, l), T in zip(net.quadruples, net.T):
        rate = T * (h[k] * h[l] - h[i] * h[j])
        if net.xi is not None:
            rate *= net.xi(F[k], F[i]) * net.xi(F[l], F[j])
        out[i] += rate
        out[j] += rate
        out[k] -= rate
        out[l] -= rate
    return out


# ---------------------------------------------------------------------------
# lattice and network construction

def test_lattice_r1_contents():
    lat = make_lattice(1)
    got = {tuple(v) for v in lat.velocities}
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    # closed under v -> -v
    for v in lat.velocities:
        assert tuple(-v) in got


def test_lattice_r2_size():
    assert make_lattice(2).n == 13


def test_r1_network_is_the_single_swap_quadruple():
    lat = make_lattice(1)
    net = build_collision_network(lat)
    assert net.n_quadruples == 1
    idx = {tuple(v): i for i, v in enumerate(lat.velocities)}
    i, j, k, l = net.quadruples[0]
    sides = {frozenset((int(i), int(j))), frozenset((int(k), int(l)))}
    assert sides == {
        frozenset((idx[(1, 0)], idx[(-1, 0)])),
        frozenset((idx[(0, 1)], idx[(0, -1)])),
    }


def test_r1_has_no_rest_particle_quadruple():
    # (0,0) + unit speed cannot scatter into two unit speeds: energy 1 != 2
    lat = make_lattice(1)
    net = build_collision_network(lat)
    rest = lat.index_of((0, 0))
    assert not np.any(net.quadruples == rest)


def test_r2_count_matches_independent_reenumeration():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    oracle = reenumerate_quadruples(2)
    assert net.n_quadruples == len(oracle) == 19
    assert network_as_velocity_sets(lat, net) == oracle


@pytest.mark.parametrize("radius", [1, 3, 4])
def test_network_matches_independent_reenumeration(radius):
    lat = make_lattice(radius)
    net = build_collision_network(lat)
    oracle = reenumerate_quadruples(radius)
    assert net.n_quadruples == len(oracle)
    assert network_as_velocity_sets(lat, net) == oracle


def test_quadruples_are_canonical_and_unique():
    q = build_collision_network(make_lattice(4)).quadruples
    assert np.all(q[:, 0] <= q[:, 1]) and np.all(q[:, 2] <= q[:, 3])
    assert np.all((q[:, 0] < q[:, 2]) | ((q[:, 0] == q[:, 2]) & (q[:, 1] < q[:, 3])))
    assert len({tuple(row) for row in q}) == q.shape[0]


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_degree_matches_a_direct_count(radius):
    net = build_collision_network(make_lattice(radius))
    counts = [0] * net.lattice.n
    for quad in net.quadruples:
        for v in quad:
            counts[v] += 1
    assert net.degree == max(counts)


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
def test_kernel_weight_must_be_positive_and_finite(T):
    with pytest.raises(ModelValidationError, match="kernel weight"):
        build_collision_network(make_lattice(1), T=T)


def test_network_memory_stays_linear_in_quadruples():
    # a dense velocities x quadruples matrix alone would be 111 MB here
    lat = make_lattice(10)
    tracemalloc.start()
    try:
        net = build_collision_network(lat)
        state = random_state(lat, seed=0)
        step(state, net, IDENT, stability_dt(state, net, IDENT))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.n_quadruples == 43_667
    assert peak < 16e6


def test_every_quadruple_conserves_exactly():
    lat = make_lattice(3)
    net = build_collision_network(lat)
    v = lat.velocities
    e = lat.speed_squared
    for i, j, k, l in net.quadruples:
        assert np.array_equal(v[i] + v[j], v[k] + v[l])
        assert e[i] + e[j] == e[k] + e[l]
        assert {int(i), int(j)} != {int(k), int(l)}


def test_network_ordering_is_deterministic():
    a = build_collision_network(make_lattice(2)).quadruples
    b = build_collision_network(make_lattice(2)).quadruples
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# collision_rhs

def test_uniform_state_is_stationary():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = KineticState(F=np.full(lat.n, 0.8))
    for fam in (IDENT, SqueezeFamily.tsallis(1.5)):
        rhs = collision_rhs(state, net, fam)
        assert np.max(np.abs(rhs)) == 0.0


def test_detailed_balance_state_is_stationary():
    # discrete Maxwell-Boltzmann profile: brackets vanish identically
    lat = make_lattice(2)
    net = build_collision_network(lat)
    F = np.exp(0.3 - 0.5 * lat.speed_squared + 0.1 * lat.velocities[:, 0])
    rhs = collision_rhs(KineticState(F=F), net, IDENT)
    assert np.max(np.abs(rhs)) < 1e-14


def test_single_quadruple_hand_oracle():
    # F = (2, 1, 1, 1) on (i, j, k, l): bracket = 1*1 - 2*1 = -1, the
    # (i, j) side changes by +bracket and the (k, l) side by -bracket
    lat = make_lattice(1)
    net = build_collision_network(lat)
    i, j, k, l = (int(x) for x in net.quadruples[0])
    F = np.zeros(lat.n)
    F[[i, j, k, l]] = [2.0, 1.0, 1.0, 1.0]
    rhs = collision_rhs(KineticState(F=F), net, IDENT)
    assert rhs[i] == -1.0 and rhs[j] == -1.0
    assert rhs[k] == 1.0 and rhs[l] == 1.0
    rest = lat.index_of((0, 0))
    assert rhs[rest] == 0.0


@pytest.mark.parametrize(
    "family, xi",
    [
        (IDENT, None),
        (SqueezeFamily.tsallis(0.5), None),
        (SqueezeFamily.tsallis(1.5), None),
        (SqueezeFamily.tsallis(2.0), None),
        (IDENT, xi_soft),
        (SqueezeFamily.tsallis(1.5), xi_soft),
    ],
)
def test_rhs_matches_the_loop_oracle(family, xi):
    for radius in (1, 2, 3, 4):
        lat = make_lattice(radius)
        net = build_collision_network(lat, T=0.7, xi=xi)
        F = random_state(lat, seed=radius).F
        ref = loop_rhs(F, net, family)
        got = collision_rhs(KineticState(F=F), net, family)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), radius


def test_empty_network_has_zero_rhs():
    lat = make_lattice(1)
    net = CollisionNetwork(lat, np.zeros((0, 4), dtype=int), np.zeros(0))
    state = random_state(lat)
    rhs = collision_rhs(state, net, IDENT)
    assert rhs.dtype == float and not rhs.any()
    assert net.degree == 0
    assert np.array_equal(step(state, net, IDENT, 0.1).F, state.F)


def test_rhs_rejects_negative_population():
    lat = make_lattice(1)
    net = build_collision_network(lat)
    with pytest.raises(ModelValidationError):
        collision_rhs(KineticState(F=np.array([-0.1, 1, 1, 1, 1.0])), net, IDENT)


# ---------------------------------------------------------------------------
# stepping

def test_stationary_state_unchanged_by_step():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = KineticState(F=np.full(lat.n, 1.1))
    out = step(state, net, IDENT, 1e-3)
    assert np.array_equal(out.F, state.F)
    assert out.t == pytest.approx(1e-3)


def test_step_conserves_number_and_energy():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = random_state(lat, seed=11)
    dt = stability_dt(state, net, IDENT)
    n0, e0 = state.number(), state.energy(lat)
    p0 = state.momentum(lat)
    s = state
    for _ in range(10_000):
        s = step(s, net, IDENT, dt, enforce_bound=False)
    assert abs(s.number() - n0) / n0 < 1e-10
    assert abs(s.energy(lat) - e0) / e0 < 1e-10
    assert np.max(np.abs(s.momentum(lat) - p0)) < 1e-10


def test_step_rejects_dt_above_bound():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = random_state(lat, seed=1)
    bound = stability_dt(state, net, IDENT)
    with pytest.raises(StepSizeError):
        step(state, net, IDENT, 10.0 * bound)


def test_step_rejects_nonpositive_dt():
    lat = make_lattice(1)
    net = build_collision_network(lat)
    with pytest.raises(StepSizeError):
        step(KineticState(F=np.ones(lat.n)), net, IDENT, 0.0)


def test_step_rejects_nan_dt_before_stepping():
    lat = make_lattice(1)
    net = build_collision_network(lat)
    with pytest.raises(StepSizeError, match="dt must be positive"):
        step(KineticState(F=np.ones(lat.n)), net, IDENT, float("nan"))


# ---------------------------------------------------------------------------
# each rule raised by its one owner

def test_negative_population_is_rejected_at_construction():
    with pytest.raises(ModelValidationError, match="negative population"):
        KineticState(F=np.array([1.0, -5e-324, 0.5]))
    assert KineticState(F=np.array([0.0, -0.0, 1.0])).number() == 1.0


def _above_the_bound():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = random_state(lat, seed=1)
    bound = stability_dt(state, net, IDENT)
    return state, net, 10.0 * bound, bound


@pytest.mark.parametrize("run", [
    lambda state, net, dt: step(state, net, IDENT, dt),
    lambda state, net, dt: list(run_trace(state, net, IDENT, dt, 3)),
    lambda state, net, dt: run_to_stationarity(state, net, IDENT, dt),
], ids=["step", "run_trace", "run_to_stationarity"])
def test_one_step_bound_message_names_dt_and_the_bound(run):
    state, net, dt, bound = _above_the_bound()
    with pytest.raises(StepSizeError) as raised:
        run(state, net, dt)
    assert str(raised.value) == f"dt={dt:g} above the stability bound {bound:g}"


def test_run_to_stationarity_raises_when_max_steps_run_out():
    state, net, _, bound = _above_the_bound()
    with pytest.raises(StepSizeError, match="no stationary state within 3 steps"):
        run_to_stationarity(state, net, IDENT, bound, max_steps=3)


@pytest.mark.parametrize("factor", [1e3, 1e10, 1e100, 1e300])
def test_unchecked_step_far_above_the_bound_raises_without_warning(factor):
    state, net, _, bound = _above_the_bound()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError, match="went negative|non-finite"):
            step(state, net, IDENT, factor * bound, enforce_bound=False)


@pytest.mark.parametrize("q, F0, bound", [(10.0, 1e-40, 0.1), (0.5, 1e300, 0.0)])
def test_h_beyond_the_float_range_takes_its_limit_without_warning(q, F0, bound):
    # ln h overflows to -inf (h = 0) for q > 1 near F = 0, to +inf (h = inf) for q < 1
    lat = make_lattice(1)
    net = build_collision_network(lat)
    state = KineticState(F=np.array([F0, 1.0, 1.0, 1.0, 1.0]))
    family = SqueezeFamily.tsallis(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stability_dt(state, net, family) == bound
        assert detailed_balance_residual(state, net, family) == 0.0


def test_bound_of_a_subnormal_kernel_weight_is_inf():
    # T * max h * degree underflows to 0: the bound was a ZeroDivisionError
    lat = make_lattice(1)
    net = build_collision_network(lat, T=5e-324)
    assert stability_dt(KineticState(F=np.full(lat.n, 1e-3)), net, IDENT) == math.inf


# ---------------------------------------------------------------------------
# entropy functional

def test_identity_closed_form():
    state = KineticState(F=np.array([1.0, 1.0]), t=0.0)
    assert entropy_functional(state, IDENT) == pytest.approx(2.0, abs=1e-14)


def test_zero_population_has_zero_entropy():
    state = KineticState(F=np.zeros(5))
    for fam in (IDENT, SqueezeFamily.tsallis(1.5), SqueezeFamily.tsallis(2.0)):
        assert entropy_functional(state, fam) == 0.0


@pytest.mark.parametrize("q, F", [(10.0, 1e-40), (0.5, 1e300), (1.0, 1e307)])
def test_entropy_beyond_the_float_range_is_a_domain_error(q, F):
    # F**(2 - q) (or F ln F) overflows: an error naming q, not -inf and a RuntimeWarning
    state = KineticState(F=np.array([1.0, F, 0.5, 1.5, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SqueezeDomainError, match=f"q={q:g}"):
            entropy_functional(state, SqueezeFamily.tsallis(q))


def test_tsallis_closed_form_matches_quadrature():
    fam = SqueezeFamily.tsallis(1.5)
    state = KineticState(F=np.array([0.7, 1.9]))
    got = entropy_functional(state, fam)

    def integrand(x):
        return (x ** (1.0 - 1.5) - 1.0) / (1.0 - 1.5)

    oracle = -sum(quad(integrand, 0.0, f, limit=200)[0] for f in state.F)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_q2_quadrature_against_high_resolution_oracle():
    # q = 2 integrand ~ -1/F at 0 is non-integrable; both the
    # implementation and the oracle use the documented 1e-12 floor
    fam = SqueezeFamily.tsallis(2.0)
    state = KineticState(F=np.array([1.0, 1.0]))
    got = entropy_functional(state, fam)

    def integrand(x):
        return 1.0 - 1.0 / x

    oracle = -sum(
        quad(integrand, 1e-12, f, limit=500, epsabs=1e-12, epsrel=1e-12)[0] for f in state.F
    )
    assert got == pytest.approx(oracle, rel=1e-8)


def test_q2_closed_form_matches_quadrature():
    # ln h(F) = 1 - 1/F for q = 2, integrated up from the 1e-12 floor
    fam = SqueezeFamily.tsallis(2.0)
    F = np.array([0.0, 3e-6, 0.05, 0.7, 1.0, 1.9, 12.0])
    got = entropy_functional(KineticState(F=F), fam)
    a = 1e-12
    oracle = 0.0
    for f in F[F > 0.0]:
        # split at 1e-6 so the 1/x wall near the floor is resolved
        for lo, hi in ((a, min(f, 1e-6)), (min(f, 1e-6), f)):
            oracle -= quad(lambda x: 1.0 - 1.0 / x, lo, hi, limit=500, epsabs=0.0, epsrel=1e-13)[0]
    assert got == pytest.approx(oracle, rel=1e-12)


def test_entropy_nondecreasing_along_trajectory():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    for fam in (IDENT, SqueezeFamily.tsallis(1.5)):
        state = random_state(lat, seed=5)
        dt = stability_dt(state, net, fam)
        s_prev = entropy_functional(state, fam)
        for _ in range(500):
            state = step(state, net, fam, dt, enforce_bound=False)
            s_now = entropy_functional(state, fam)
            assert s_now - s_prev >= -1e-12
            s_prev = s_now


# ---------------------------------------------------------------------------
# stationarity

def test_relaxation_reaches_detailed_balance():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    for fam in (IDENT, SqueezeFamily.tsallis(1.5)):
        state = random_state(lat, seed=2)
        dt = stability_dt(state, net, fam)
        final = run_to_stationarity(state, net, fam, dt, tol=1e-12)
        assert detailed_balance_residual(final, net, fam) < 1e-10


def test_xi_choice_does_not_move_the_stationary_state():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = random_state(lat, seed=7)
    dt = stability_dt(state, net, IDENT)
    a = run_to_stationarity(state, net, IDENT, dt, tol=1e-13)
    b = run_to_stationarity(state, net.with_xi(xi_soft), IDENT, dt, tol=1e-13)
    assert np.max(np.abs(a.F - b.F)) < 1e-8


def test_identity_stationary_state_is_log_affine():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = random_state(lat, seed=9)
    dt = stability_dt(state, net, IDENT)
    final = run_to_stationarity(state, net, IDENT, dt, tol=1e-13)
    V = lat.velocities
    X = np.column_stack([np.ones(lat.n), V[:, 0], V[:, 1], lat.speed_squared])
    coef, *_ = np.linalg.lstsq(X, np.log(final.F), rcond=None)
    assert np.max(np.abs(X @ coef - np.log(final.F))) < 1e-8


# ---------------------------------------------------------------------------
# tracing

def test_trace_rows():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = random_state(lat, seed=4)
    dt = stability_dt(state, net, IDENT)
    rows = [row for _, _, row in run_trace(state, net, IDENT, dt, steps=10, trace_every=5) if row]
    assert len(rows) == 3  # t = 0, step 5, step 10
    t, S, num, en, max_rhs = rows[0]
    assert t == 0.0 and num == pytest.approx(state.number())
    assert rows[-1][0] == pytest.approx(10 * dt)


def test_trace_steps_zero_reports_initial_state_only():
    lat = make_lattice(2)
    net = build_collision_network(lat)
    state = random_state(lat, seed=4)
    rows = [row for _, _, row in run_trace(state, net, IDENT, 1e-3, steps=0, trace_every=5) if row]
    assert len(rows) == 1
    assert rows[0][0] == 0.0
