"""Spatially homogeneous deformed kinetic integrator on a 2-D lattice.

Binary collisions on an integer velocity lattice, with the two-particle
product deformed through the squeezing function: each conserving
quadruple (i, j | k, l) contributes

    T * xi(F_k, F_i) * xi(F_l, F_j) * [h(F_k) h(F_l) - h(F_i) h(F_j)]

as gain for (i, j) and loss for (k, l).  With the identity family and
xi = 1 this is the classical bilinear collision operator.  Stationarity
is the deformed detailed balance h(F_i) h(F_j) = h(F_k) h(F_l) on every
quadruple, and the configurational entropy

    S = -sum_i  integral_0^{F_i} ln h(F) dF

is nondecreasing whenever dh/dx >= 0.  Number, momentum and kinetic
energy are conserved identically by the quadruple structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ModelValidationError, SqueezeDomainError, StepSizeError
from .squeeze import SqueezeFamily

__all__ = [
    "VelocityLattice",
    "CollisionNetwork",
    "KineticState",
    "make_lattice",
    "build_collision_network",
    "collision_rhs",
    "step",
    "run_trace",
    "run_to_stationarity",
    "entropy_functional",
    "detailed_balance_residual",
    "stability_dt",
    "random_state",
    "TRACE_COLUMNS",
    "XI_CHOICES",
    "xi_soft",
]

_NEG_CLAMP = 1e-14
_QUAD_FLOOR = 1e-12  # lower limit of entropy integrals divergent at 0 (q = 2, custom)
TRACE_COLUMNS = ("t", "S", "sum_F", "sum_Fv2", "max_rhs")  # the fields of a run_trace row


@dataclass(frozen=True)
class VelocityLattice:
    """Integer 2-D velocities inside the cutoff radius, with index map."""

    radius: int
    velocities: np.ndarray  # (n, 2) int

    @property
    def n(self) -> int:
        return self.velocities.shape[0]

    @property
    def speed_squared(self) -> np.ndarray:
        return (self.velocities**2).sum(axis=1)

    def index_of(self, v: tuple[int, int]) -> int:
        matches = np.flatnonzero((self.velocities == np.asarray(v)).all(axis=1))
        if matches.size != 1:
            raise ModelValidationError(f"velocity {v} not on the lattice")
        return int(matches[0])


def make_lattice(radius: int) -> VelocityLattice:
    if radius < 1:
        raise ModelValidationError(f"lattice radius must be >= 1, got {radius}")
    r2 = radius * radius
    vs = [
        (vx, vy)
        for vx in range(-radius, radius + 1)
        for vy in range(-radius, radius + 1)
        if vx * vx + vy * vy <= r2
    ]
    vs.sort(key=lambda v: (v[0] * v[0] + v[1] * v[1], v[0], v[1]))
    return VelocityLattice(radius=radius, velocities=np.array(vs, dtype=int))


@dataclass(frozen=True)
class CollisionNetwork:
    """Conserving quadruples (i, j | k, l) with kernel weight T and an
    optional symmetric xi factor.

    The (m, 4) quadruple table is the whole network.  Each unordered
    collision is stored once in canonical order (i <= j, k <= l,
    (i, j) < (k, l)); the rate expression is already symmetric under
    exchanging the two sides.  The RHS gathers populations through the
    flat index ``quadruples.T.ravel()`` (all i, then j, k, l) and
    scatters +T * bracket onto i and j and -T * bracket onto k and l
    through the same index with one ``np.bincount``; memory stays O(m)."""

    lattice: VelocityLattice
    quadruples: np.ndarray  # (m, 4) int
    T: np.ndarray  # (m,) positive weights
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @property
    def n_quadruples(self) -> int:
        return self.quadruples.shape[0]

    @cached_property
    def degree(self) -> int:
        """Largest number of quadruples any one velocity participates in."""
        return int(np.bincount(self.quadruples.ravel(), minlength=self.lattice.n).max())

    @cached_property
    def _flat_index(self) -> np.ndarray:
        return self.quadruples.T.ravel()

    @cached_property
    def _signed_T(self) -> np.ndarray:
        """(4, m): +T on the i and j rows of the flat index, -T on k and l."""
        return np.array([[1.0], [1.0], [-1.0], [-1.0]]) * self.T

    def with_xi(self, xi) -> "CollisionNetwork":
        return replace(self, xi=xi)


def build_collision_network(
    lattice: VelocityLattice,
    T: float = 1.0,
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> CollisionNetwork:
    """Enumerate all momentum- and energy-conserving quadruples.

    Pairs i <= j are grouped by their exact integer (momentum, energy)
    key; all distinct unordered pairs of pairs within one group collide.
    Groups come in ascending key order, pairs within a group in (i, j)
    order, so the output ordering is deterministic."""
    if not 0.0 < T < math.inf:
        raise ModelValidationError(f"kernel weight must be positive and finite, got {T!r}")
    v, e = lattice.velocities, lattice.speed_squared
    i, j = np.triu_indices(lattice.n)
    keys = np.column_stack((v[i] + v[j], e[i] + e[j]))  # (px, py, E) per pair
    order = np.lexsort(keys.T[::-1])  # stable: (i, j) order within a key
    i, j, keys = i[order], j[order], keys[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    sizes = np.diff(np.r_[starts, i.size])
    # pair a collides with each later pair b of its own group
    partners = np.repeat(starts + sizes, sizes) - np.arange(i.size) - 1
    a = np.repeat(np.arange(i.size), partners)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(partners) - partners, partners)
    quads = np.column_stack((i[a], j[a], i[b], j[b]))
    return CollisionNetwork(
        lattice=lattice,
        quadruples=quads,
        T=np.full(quads.shape[0], float(T)),
        xi=xi,
    )


@dataclass(frozen=True)
class KineticState:
    """One-body populations on the lattice at time t; a negative entry is
    rejected here, so every function taking a state may assume F >= 0."""

    F: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "F", np.asarray(self.F, dtype=float))
        if np.any(self.F < 0.0):
            raise ModelValidationError("negative population in kinetic state")

    def number(self) -> float:
        return float(self.F.sum())

    def momentum(self, lattice: VelocityLattice) -> np.ndarray:
        return self.F @ lattice.velocities

    def energy(self, lattice: VelocityLattice) -> float:
        return float(self.F @ lattice.speed_squared)


def random_state(lattice: VelocityLattice, seed: int = 0) -> KineticState:
    rng = np.random.default_rng(seed)
    return KineticState(F=rng.uniform(0.2, 1.8, size=lattice.n), t=0.0)


def _rhs_from_F(F: np.ndarray, net: CollisionNetwork, family: SqueezeFamily) -> np.ndarray:
    idx = net._flat_index
    if idx.size == 0:
        return np.zeros_like(F)  # np.bincount would return integer zeros
    h = family.h_of(F)[idx].reshape(4, -1)
    bracket = h[2] * h[3] - h[0] * h[1]
    if net.xi is not None:
        Fq = F[idx].reshape(4, -1)
        bracket = bracket * net.xi(Fq[2], Fq[0]) * net.xi(Fq[3], Fq[1])
    return np.bincount(idx, weights=(net._signed_T * bracket).ravel(), minlength=F.size)


def collision_rhs(state: KineticState, net: CollisionNetwork, family: SqueezeFamily) -> np.ndarray:
    """Time derivative of the populations; a rate beyond the float range raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        rhs = _rhs_from_F(state.F, net, family)
    if not np.isfinite(rhs).all():
        raise StepSizeError(f"collision rate beyond the float range at t={state.t:g}")
    return rhs


def stability_dt(state: KineticState, net: CollisionNetwork, family: SqueezeFamily) -> float:
    """Step bound 0.1 / (max T * max h(F) * quadruple degree)."""
    if net.n_quadruples == 0:
        return math.inf
    with np.errstate(over="ignore"):  # an h beyond the float range gives the bound 0
        h_max = float(np.max(family.h_of(state.F)))
    denom = float(np.max(net.T)) * max(h_max, 1e-30) * max(net.degree, 1)
    return 0.1 / denom if denom > 0.0 else math.inf  # a subnormal T may underflow


def _check_bound(state: KineticState, net: CollisionNetwork, family: SqueezeFamily, dt: float) -> None:
    bound = stability_dt(state, net, family)
    if dt > bound:
        raise StepSizeError(f"dt={dt:g} above the stability bound {bound:g}")


def step(
    state: KineticState,
    net: CollisionNetwork,
    family: SqueezeFamily,
    dt: float,
    enforce_bound: bool = True,
) -> KineticState:
    """One classical RK4 step.

    Tiny negative excursions (|F| < 1e-14) are clamped to zero; larger
    negativity or non-finite values raise naming the offending dt."""
    if not dt > 0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    if enforce_bound:
        _check_bound(state, net, family, dt)
    F = state.F
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        k1 = _rhs_from_F(F, net, family)
        k2 = _rhs_from_F(np.maximum(F + 0.5 * dt * k1, 0.0), net, family)
        k3 = _rhs_from_F(np.maximum(F + 0.5 * dt * k2, 0.0), net, family)
        k4 = _rhs_from_F(np.maximum(F + dt * k3, 0.0), net, family)
        new_F = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(new_F)):
        raise StepSizeError(f"non-finite population after a step with dt={dt:g}")
    low = new_F.min()
    if low < -_NEG_CLAMP:
        raise StepSizeError(f"population went negative ({low:g}) with dt={dt:g}")
    if low < 0.0:
        new_F = np.maximum(new_F, 0.0)
    return KineticState(F=new_F, t=state.t + dt)


def entropy_functional(state: KineticState, family: SqueezeFamily) -> float:
    """Configurational entropy -sum_i integral_0^F_i ln h(F) dF.

    Closed forms for the identity and power-law families; adaptive
    quadrature for custom families.  For q = 2 (ln h(F) = 1 - 1/F,
    non-integrable at 0) and in the quadrature the lower limit is
    floored at 1e-12, an additive constant per live component that is
    irrelevant to monotonicity.  Components at F = 0 contribute nothing.
    A closed form beyond the float range raises SqueezeDomainError."""
    F, q = state.F, family.q
    if family.is_identity or family.kind == "tsallis":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # non-finite raises below
            if family.is_identity:
                term = F * np.log(F) - F
            elif q == 2.0:
                term = (F - _QUAD_FLOOR) - np.log(F / _QUAD_FLOOR)
            else:
                term = (np.power(F, 2.0 - q) / (2.0 - q) - F) / (1.0 - q)
            total = -np.where(F > 0.0, term, 0.0).sum()
        if not math.isfinite(total):
            raise SqueezeDomainError(f"entropy functional beyond the float range at q={q:g}")
        return float(total)

    from scipy.integrate import quad  # custom families only: keeps scipy off the import path

    def integrand(x: float) -> float:
        return float(family.ln_h_of_linear(np.array([x]))[0])

    total = 0.0
    for f in F:
        if f <= 0.0:
            continue
        val, _ = quad(integrand, _QUAD_FLOOR, float(f), limit=200)
        total -= val
    return total


def detailed_balance_residual(
    state: KineticState, net: CollisionNetwork, family: SqueezeFamily
) -> float:
    """max over quadruples of |ln h(F_i) + ln h(F_j) - ln h(F_k) - ln h(F_l)|."""
    if net.n_quadruples == 0:
        return 0.0
    ln_h = family.ln_h_of_linear(state.F)
    q = net.quadruples
    res = ln_h[q[:, 0]] + ln_h[q[:, 1]] - ln_h[q[:, 2]] - ln_h[q[:, 3]]
    return float(np.max(np.abs(res)))


def run_trace(
    state: KineticState,
    net: CollisionNetwork,
    family: SqueezeFamily,
    dt: float,
    steps: int,
    trace_every: int = 100,
):
    """Advance `steps` RK4 steps, yielding (k, state, row or None) after
    k = 0..steps steps.

    Rows are (t, S, sum F, sum F|v|^2, max|rhs|), the TRACE_COLUMNS, given
    at k = 0, at every trace_every-th step and at the final step; other
    steps yield None.  The step bound is validated once against the
    initial state; later steps run unchecked (populations only relax, and
    negativity still raises)."""
    if steps > 0:
        _check_bound(state, net, family, dt)
    lattice = net.lattice

    def row(s: KineticState):
        rhs = collision_rhs(s, net, family)
        return (
            s.t,
            entropy_functional(s, family),
            s.number(),
            s.energy(lattice),
            float(np.max(np.abs(rhs))) if rhs.size else 0.0,
        )

    yield 0, state, row(state)
    for k in range(1, steps + 1):
        state = step(state, net, family, dt, enforce_bound=False)
        traced = (trace_every and k % trace_every == 0) or k == steps
        yield k, state, row(state) if traced else None


def run_to_stationarity(
    state: KineticState,
    net: CollisionNetwork,
    family: SqueezeFamily,
    dt: float,
    tol: float = 1e-13,
    max_steps: int = 200_000,
) -> KineticState:
    """Step until the collision rate drops below tol in the sup norm.

    The step bound is validated once against the initial state."""
    _check_bound(state, net, family, dt)
    for _ in range(max_steps):
        if float(np.max(np.abs(collision_rhs(state, net, family)))) < tol:
            return state
        state = step(state, net, family, dt, enforce_bound=False)
    raise StepSizeError(f"no stationary state within {max_steps} steps at dt={dt:g}")


def xi_soft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bounded symmetric collision factor 1/(1 + a b)."""
    return 1.0 / (1.0 + a * b)


XI_CHOICES: dict[str, Callable | None] = {"one": None, "soft": xi_soft}
