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
from typing import Callable

import numpy as np

from .errors import ModelValidationError, StepSizeError
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
    "XI_CHOICES",
    "xi_soft",
]

_NEG_CLAMP = 1e-14
_QUAD_FLOOR = 1e-12  # lower limit of entropy integrals divergent at 0 (q = 2, custom)


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

    Each unordered collision is stored once in canonical order
    (i <= j, k <= l, (i, j) < (k, l)); the rate expression is already
    symmetric under exchanging the two sides."""

    lattice: VelocityLattice
    quadruples: np.ndarray  # (m, 4) int
    T: np.ndarray  # (m,) positive weights
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    # incidence (n x m): +1 where the velocity gains with positive bracket
    incidence: np.ndarray | None = None

    def __post_init__(self):
        if self.incidence is None:
            n, m = self.lattice.n, self.quadruples.shape[0]
            inc = np.zeros((n, m))
            cols = np.arange(m)
            for side, sign in (((0, 1), +1.0), ((2, 3), -1.0)):
                for c in side:
                    np.add.at(inc, (self.quadruples[:, c], cols), sign)
            object.__setattr__(self, "incidence", inc)

    @property
    def n_quadruples(self) -> int:
        return self.quadruples.shape[0]

    @property
    def degree(self) -> int:
        """Largest number of quadruples any one velocity participates in."""
        counts = np.zeros(self.lattice.n, dtype=int)
        for c in range(4):
            np.add.at(counts, self.quadruples[:, c], 1)
        return int(counts.max()) if counts.size else 0

    def with_xi(self, xi) -> "CollisionNetwork":
        return replace(self, xi=xi)


def build_collision_network(
    lattice: VelocityLattice,
    T: float = 1.0,
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> CollisionNetwork:
    """Enumerate all momentum- and energy-conserving quadruples.

    Pairs are grouped by their exact integer (momentum, energy) key; all
    distinct unordered pairs of pairs within one group collide.  Output
    ordering is deterministic."""
    if T <= 0:
        raise ModelValidationError(f"kernel weight must be positive, got {T!r}")
    v = lattice.velocities
    n = lattice.n
    groups: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            key = (
                int(v[i, 0] + v[j, 0]),
                int(v[i, 1] + v[j, 1]),
                int((v[i] ** 2).sum() + (v[j] ** 2).sum()),
            )
            groups.setdefault(key, []).append((i, j))
    quads = []
    for key in sorted(groups):
        pairs = groups[key]
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                (i, j), (k, l) = pairs[a], pairs[b]
                if {i, j} == {k, l}:
                    continue
                quads.append((i, j, k, l))
    quads_arr = np.array(quads, dtype=int) if quads else np.zeros((0, 4), dtype=int)
    return CollisionNetwork(
        lattice=lattice,
        quadruples=quads_arr,
        T=np.full(quads_arr.shape[0], float(T)),
        xi=xi,
    )


@dataclass(frozen=True)
class KineticState:
    """One-body populations on the lattice at time t."""

    F: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "F", np.asarray(self.F, dtype=float))

    def number(self) -> float:
        return float(self.F.sum())

    def momentum(self, lattice: VelocityLattice) -> np.ndarray:
        return self.F @ lattice.velocities

    def energy(self, lattice: VelocityLattice) -> float:
        return float(self.F @ lattice.speed_squared)


def random_state(lattice: VelocityLattice, seed: int = 0, low: float = 0.2, high: float = 1.8) -> KineticState:
    rng = np.random.default_rng(seed)
    return KineticState(F=rng.uniform(low, high, size=lattice.n), t=0.0)


def _rhs_from_F(F: np.ndarray, net: CollisionNetwork, family: SqueezeFamily) -> np.ndarray:
    h = family.h_of(F)
    q = net.quadruples
    if q.shape[0] == 0:
        return np.zeros_like(F)
    i, j, k, l = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    bracket = h[k] * h[l] - h[i] * h[j]
    if net.xi is not None:
        bracket = bracket * net.xi(F[k], F[i]) * net.xi(F[l], F[j])
    return net.incidence @ (net.T * bracket)


def collision_rhs(state: KineticState, net: CollisionNetwork, family: SqueezeFamily) -> np.ndarray:
    """Time derivative of the populations; F must be nonnegative."""
    if np.any(state.F < 0.0):
        raise ModelValidationError("negative population in kinetic state")
    return _rhs_from_F(state.F, net, family)


def stability_dt(state: KineticState, net: CollisionNetwork, family: SqueezeFamily) -> float:
    """Step bound 0.1 / (max T * max h(F) * quadruple degree)."""
    if net.n_quadruples == 0:
        return math.inf
    h_max = float(np.max(family.h_of(state.F)))
    denom = float(np.max(net.T)) * max(h_max, 1e-30) * max(net.degree, 1)
    return 0.1 / denom


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
    if dt <= 0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    if enforce_bound:
        bound = stability_dt(state, net, family)
        if dt > bound:
            raise StepSizeError(f"dt={dt:g} above the stability bound {bound:g}")
    F = state.F
    if np.any(F < 0.0):
        raise ModelValidationError("negative population in kinetic state")
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
    irrelevant to monotonicity.  Components at F = 0 contribute nothing."""
    F = state.F
    if np.any(F < 0.0):
        raise ModelValidationError("negative population in kinetic state")
    if family.is_identity:
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(F > 0.0, F * np.log(F) - F, 0.0)
        return float(-term.sum())
    if family.kind == "tsallis":
        q = family.q
        with np.errstate(divide="ignore", invalid="ignore"):
            if q == 2.0:
                term = (F - _QUAD_FLOOR) - np.log(F / _QUAD_FLOOR)
            else:
                term = (np.power(F, 2.0 - q) / (2.0 - q) - F) / (1.0 - q)
            term = np.where(F > 0.0, term, 0.0)
        return float(-term.sum())

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


def _trajectory(
    state: KineticState,
    net: CollisionNetwork,
    family: SqueezeFamily,
    dt: float,
    steps: int,
    trace_every: int,
):
    """(k, state, trace row or None) after k = 0..steps RK4 steps; the
    rows and the step-bound check are those of run_trace."""
    if steps > 0 and dt > stability_dt(state, net, family):
        raise StepSizeError(
            f"dt={dt:g} above the stability bound {stability_dt(state, net, family):g}"
        )
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


def run_trace(
    state: KineticState,
    net: CollisionNetwork,
    family: SqueezeFamily,
    dt: float,
    steps: int,
    trace_every: int = 100,
):
    """Advance `steps` RK4 steps, yielding trace rows.

    Rows are (t, S, sum F, sum F|v|^2, max|rhs|), emitted at t = 0, at
    every trace_every-th step, and at the final step.  The step bound is
    validated once against the initial state; later steps run unchecked
    (populations only relax, and negativity still raises)."""
    for _, _, row in _trajectory(state, net, family, dt, steps, trace_every):
        if row is not None:
            yield row


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
    if dt > stability_dt(state, net, family):
        raise StepSizeError(f"dt={dt:g} above the stability bound at the initial state")
    for _ in range(max_steps):
        if float(np.max(np.abs(collision_rhs(state, net, family)))) < tol:
            return state
        state = step(state, net, family, dt, enforce_bound=False)
    raise StepSizeError(f"no stationary state within {max_steps} steps at dt={dt:g}")


def xi_soft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bounded symmetric collision factor 1/(1 + a b)."""
    return 1.0 / (1.0 + a * b)


XI_CHOICES: dict[str, Callable | None] = {"one": None, "soft": xi_soft}
