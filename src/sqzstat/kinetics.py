"""Spatially homogeneous deformed kinetic integrator on a 2-D lattice.

Binary collisions on an integer velocity lattice, with the two-particle
product deformed through the squeezing function: each conserving
quadruple (i, j | k, l) contributes

    xi(F_k, F_i) * xi(F_l, F_j) * [h(F_k) h(F_l) - h(F_i) h(F_j)]

as gain for (i, j) and loss for (k, l), with no kernel weight: a
constant one would only set the unit of time.  With the identity family
and xi = 1 this is the classical bilinear collision operator.
Stationarity is the deformed detailed balance h(F_i) h(F_j) =
h(F_k) h(F_l) on every quadruple, and the configurational entropy

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
    "stability_dt",
    "random_state",
    "TRACE_COLUMNS",
    "XI_CHOICES",
    "xi_soft",
]

_NEG_CLAMP = 1e-14
_GAIN_LOSS = np.array([[1.0], [1.0], [-1.0], [-1.0]])  # the sign of a rate on i, j, k, l
_Q2_ENTROPY_LOWER_LIMIT = 1e-12  # ln h(F) = 1 - 1/F is not integrable at F = 0
TRACE_COLUMNS = ("t", "S", "sum_F", "sum_Fv2", "max_rhs")  # the fields of a run_trace row


@dataclass(frozen=True, eq=False)
class VelocityLattice:
    """Integer 2-D velocities inside the cutoff radius."""

    radius: int
    velocities: np.ndarray  # (n, 2) int

    @property
    def n(self) -> int:
        return self.velocities.shape[0]

    @property
    def speed_squared(self) -> np.ndarray:
        return (self.velocities**2).sum(axis=1)


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


@dataclass(frozen=True, eq=False)
class CollisionNetwork:
    """Conserving quadruples (i, j | k, l) with an optional symmetric xi factor.

    The (m, 4) quadruple table is the whole network.  Each unordered
    collision is stored once in canonical order (i <= j, k <= l,
    (i, j) < (k, l)); the rate expression is already symmetric under
    exchanging the two sides.  The RHS gathers populations through the
    flat index ``quadruples.T.ravel()`` (all i, then j, k, l) and
    scatters +bracket onto i and j and -bracket onto k and l
    through the same index with one ``np.bincount``; memory stays O(m)."""

    lattice: VelocityLattice
    quadruples: np.ndarray  # (m, 4) int
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

    def with_xi(self, xi) -> "CollisionNetwork":
        return replace(self, xi=xi)


def build_collision_network(lattice: VelocityLattice) -> CollisionNetwork:
    """Enumerate all momentum- and energy-conserving quadruples.

    Pairs i <= j are grouped by their exact integer (momentum, energy)
    key; all distinct unordered pairs of pairs within one group collide.
    Groups come in ascending key order, pairs within a group in (i, j)
    order, so the output ordering is deterministic."""
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
    return CollisionNetwork(lattice=lattice, quadruples=quads)


@dataclass(frozen=True, eq=False)
class KineticState:
    """One-body populations on the lattice at time t; a negative or non-finite entry
    is rejected here, so every function taking a state may assume finite F >= 0."""

    F: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "F", np.asarray(self.F, dtype=float))
        if not np.isfinite(self.F).all():
            raise ModelValidationError("non-finite population in kinetic state")
        if np.any(self.F < 0.0):
            raise ModelValidationError("negative population in kinetic state")

    def number(self) -> float:
        return self._finite("sum F", np.add.reduce, self.F)

    def energy(self, lattice: VelocityLattice) -> float:
        return self._finite("sum F|v|^2", np.matmul, self.F, lattice.speed_squared)

    def _finite(self, label: str, reduce, *args) -> float:
        """float(reduce(*args)), a sum over the populations; one beyond the float range raises."""
        with np.errstate(over="ignore"):
            total = float(reduce(*args))
        if not math.isfinite(total):
            raise SqueezeDomainError(f"{label} beyond the float range at t={self.t:g}")
        return total


def random_state(lattice: VelocityLattice, seed: int = 0) -> KineticState:
    """Populations uniform in [0.2, 1.8); a seed numpy refuses (a negative one) raises."""
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"seed {seed!r} is not a numpy seed: {exc}") from None
    return KineticState(F=rng.uniform(0.2, 1.8, size=lattice.n), t=0.0)


def _h(F: np.ndarray, family: SqueezeFamily) -> np.ndarray:
    """h(F) under the caller's errstate (divide and over ignored): F for the identity, else exp(ln h(F))."""
    return F if family.is_identity else np.exp(family.ln_squeeze(np.log(F)))


def _rhs_from_F(F: np.ndarray, net: CollisionNetwork, family: SqueezeFamily) -> np.ndarray:
    idx = net._flat_index
    if idx.size == 0:
        return np.zeros_like(F)  # np.bincount would return integer zeros
    h = _h(F, family)[idx].reshape(4, -1)
    bracket = h[2] * h[3] - h[0] * h[1]
    if net.xi is not None:
        Fq = F[idx].reshape(4, -1)
        bracket = bracket * net.xi(Fq[2], Fq[0]) * net.xi(Fq[3], Fq[1])
    return np.bincount(idx, weights=(_GAIN_LOSS * bracket).ravel(), minlength=F.size)


def collision_rhs(state: KineticState, net: CollisionNetwork, family: SqueezeFamily) -> np.ndarray:
    """Time derivative of the populations; a rate beyond the float range raises."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rejected below
        rhs = _rhs_from_F(state.F, net, family)
    if not np.isfinite(rhs).all():
        raise StepSizeError(f"collision rate beyond the float range at t={state.t:g}")
    return rhs


def stability_dt(state: KineticState, net: CollisionNetwork, family: SqueezeFamily) -> float:
    """Step bound 0.1 / (max h(F) * quadruple degree).

    It bounds the rates, not the sign of F: for q < 1, h(0) =
    e^(-1/(1-q)) > 0 keeps the loss of an empty velocity positive, so a
    state whose empty velocities lose more than they gain goes negative
    at any practical dt, and ``step`` raises there."""
    if net.n_quadruples == 0:
        return math.inf
    with np.errstate(divide="ignore", over="ignore"):  # an h beyond the float range gives the bound 0
        h_max = float(np.max(_h(state.F, family)))
    return 0.1 / (max(h_max, 1e-30) * max(net.degree, 1))


def _check_bound(state: KineticState, net: CollisionNetwork, family: SqueezeFamily, dt: float) -> None:
    bound = stability_dt(state, net, family)
    if dt > bound:
        raise StepSizeError(f"dt={dt:g} above the stability bound {bound:g}")


def _rk4(F: np.ndarray, t: float, net: CollisionNetwork, family: SqueezeFamily, dt: float, n: int,
         tol: float = 0.0) -> tuple[np.ndarray, float, int]:
    """(F, t, k) after k classical RK4 steps of dt from F at time t: k = n, or the first k whose
    rate, the step's own k1, is below tol in the sup norm.  The one owner of a step's checks:
    dt must be positive, a tiny negative excursion (|F| < 1e-14) is clamped to zero, and larger
    negativity or a non-finite value raises, naming dt."""
    if not dt > 0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite result raises below
        for k in range(n):
            k1 = _rhs_from_F(F, net, family)
            if tol and np.abs(k1).max() < tol:
                return F, t, k
            k2 = _rhs_from_F(np.maximum(F + 0.5 * dt * k1, 0.0), net, family)
            k3 = _rhs_from_F(np.maximum(F + 0.5 * dt * k2, 0.0), net, family)
            k4 = _rhs_from_F(np.maximum(F + dt * k3, 0.0), net, family)
            F = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(F).all():
                raise StepSizeError(f"non-finite population after a step with dt={dt:g}")
            low = F.min()
            if low < -_NEG_CLAMP:
                raise StepSizeError(f"population went negative ({low:g}) with dt={dt:g}")
            if low < 0.0:
                F = np.maximum(F, 0.0)
            t += dt
    return F, t, n


def step(state: KineticState, net: CollisionNetwork, family: SqueezeFamily, dt: float,
         enforce_bound: bool = True) -> KineticState:
    """One classical RK4 step, with its checks (``_rk4``).

    For q < 1 an empty velocity still loses at a positive rate (h(0) > 0),
    which no dt within ``stability_dt`` avoids: see there."""
    if enforce_bound:
        _check_bound(state, net, family, dt)
    F, t, _ = _rk4(state.F, state.t, net, family, dt, 1)
    return KineticState(F=F, t=t)


def entropy_functional(state: KineticState, family: SqueezeFamily) -> float:
    """Configurational entropy -sum_i integral^F_i ln h(F) dF over the live components.

    The integral's constant depends on the family.  Identity and q < 2:
    closed forms integrated from F = 0.  q = 2 (ln h(F) = 1 - 1/F, not
    integrable at 0): the closed form from the floor F = 1e-12.  q > 2:
    the antiderivative (F^(2-q)/(2-q) - F)/(1-q) with its own constant,
    as the integral from 0 diverges.  Each constant is additive per live
    component, irrelevant to monotonicity.  Components at F = 0 contribute
    nothing.  A result beyond the float range raises SqueezeDomainError."""
    F, q = state.F, family.q
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # non-finite raises below
        if family.is_identity:
            term = F * np.log(F) - F
        elif q == 2.0:
            term = (F - _Q2_ENTROPY_LOWER_LIMIT) - np.log(F / _Q2_ENTROPY_LOWER_LIMIT)
        else:
            term = (np.power(F, 2.0 - q) / (2.0 - q) - F) / (1.0 - q)
        total = -np.where(F > 0.0, term, 0.0).sum()
    if not math.isfinite(total):
        raise SqueezeDomainError(f"entropy functional beyond the float range at q={q:g}")
    return float(total)


def run_trace(state: KineticState, net: CollisionNetwork, family: SqueezeFamily, dt: float, steps: int,
              trace_every: int = 100):
    """Advance `steps` RK4 steps, yielding (k, state, row) after k steps at k = 0, at every
    trace_every-th step and at the last step (for trace_every = 0 at k = 0 and the last only).

    A row is (t, S, sum F, sum F|v|^2, max|rhs|), the TRACE_COLUMNS; one beyond the float range
    raises SqueezeDomainError.  The step bound is validated once against the initial state;
    later steps run unchecked (populations only relax, and negativity still raises)."""
    if trace_every < 0:
        raise ValueError(f"trace_every must be >= 0, got {trace_every}")
    if steps > 0:
        _check_bound(state, net, family, dt)
    k = 0
    while True:
        rhs = collision_rhs(state, net, family)
        row = (state.t, entropy_functional(state, family), state.number(), state.energy(net.lattice),
               float(np.max(np.abs(rhs))) if rhs.size else 0.0)
        if not all(map(math.isfinite, row)):  # t, the one field no call above checks
            raise SqueezeDomainError(f"trace row beyond the float range at t={state.t:g}")
        yield k, state, row
        if k >= steps:
            return
        F, t, n = _rk4(state.F, state.t, net, family, dt, min(trace_every or steps, steps - k))
        state, k = KineticState(F=F, t=t), k + n


def run_to_stationarity(state: KineticState, net: CollisionNetwork, family: SqueezeFamily, dt: float,
                        tol: float = 1e-13, max_steps: int = 200_000) -> KineticState:
    """Step until the collision rate drops below tol in the sup norm.

    The step bound is validated once against the initial state."""
    _check_bound(state, net, family, dt)
    F, t, k = _rk4(state.F, state.t, net, family, dt, max_steps, tol)
    if k == max_steps:
        raise StepSizeError(f"no stationary state within {max_steps} steps at dt={dt:g}")
    return KineticState(F=F, t=t)


def xi_soft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bounded symmetric collision factor 1/(1 + a b)."""
    return 1.0 / (1.0 + a * b)


XI_CHOICES: dict[str, Callable | None] = {"one": None, "soft": xi_soft}
