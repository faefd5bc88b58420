"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of ops (one cycle); the
timed loop repeats the cycle, so the same seed always gives the same
inputs and the same per-op counts.  Set-up (imports, model and spectrum
generation, collision-network builds, warm-up) happens in the factory,
before the first timed op.

The package is called through module attributes (``engine.report_for``),
never through names imported into this module, so the span wrappers a
traced run installs on the package's modules see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from harness import Note, Op, WrongExit

PHI_RTOL = 1e-10  # ensemble exactness against closed forms / direct sums
MEAN_RTOL = 1e-6  # derivative-average duality
VAR_RTOL = 1e-4  # finite-difference curvature against the closed-form curvature
PROB_ATOL = 1e-10
HESS_STEP = 5e-4  # the fluctuation module's relative Hessian step
CONJ_STEP = 1e-5  # the thermo module's relative gradient step
KIN_TOL = 1e-10  # stationarity: max |rhs| below this
KIN_EVERY = 100  # steps between kinetic trace rows
KIN_MAX_STEPS = 100_000
DB_TOL = 1e-6  # detailed-balance residual at stationarity


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(np.ascontiguousarray(p, dtype=float).tobytes())
    return h.digest()


def _family(squeeze, q: float):
    return squeeze.SqueezeFamily.identity() if q == 1.0 else squeeze.SqueezeFamily.tsallis(q)


class Reference:
    """Reference phi, mean and curvature of one spectrum and family.

    phi comes from the identity closed form of a built-in model when
    there is one, else from direct summation; means and curvatures are
    the closed-form derivatives of the direct sum."""

    def __init__(self, model, params, x, ln_g, names, q):
        self.model, self.params, self.names, self.q = model, params, list(names), q
        self._table = (x, ln_g) if x is not None else None

    @property
    def x(self) -> np.ndarray:
        return self._rows()[0]

    @property
    def ln_g(self) -> np.ndarray:
        return self._rows()[1]

    def _rows(self):
        if self._table is None:  # built on first check, not during set-up
            self._table = oracles.model_table(self.model, self.params)
        return self._table

    def _vec(self, y: dict) -> np.ndarray:
        return np.array([y[n] for n in self.names])

    def phi(self, y: dict) -> float:
        if self.q == 1.0 and self.model is not None:
            return oracles.phi_closed_form(self.model, self.params, y)
        return oracles.phi_direct(self.x, self.ln_g, self._vec(y), self.q)

    def mean(self, y: dict) -> dict:
        return dict(zip(self.names, oracles.mean_direct(self.x, self.ln_g, self._vec(y), self.q)))

    def phi_rounding(self, y: dict) -> float:
        """Rounding error of one phi evaluation: phi = -ln_q(T) is computed
        from ln T, whose relative rounding error is amplified by |ln T|."""
        ln_total = oracles.ln_total_direct(self.x, self.ln_g, self._vec(y), self.q)
        return np.finfo(float).eps * max(1.0, abs(self.phi(y))) * max(1.0, abs(ln_total))

    def variance(self, y: dict) -> dict:
        """-(1 + (q-1) phi) d2 phi/dy2: the fluctuation module's variances."""
        hess = oracles.hessian_direct(self.x, self.ln_g, self._vec(y), self.q)
        scale = 1.0 + (self.q - 1.0) * self.phi(y)
        return {n: -scale * float(hess[i, i]) for i, n in enumerate(self.names)}


def _point_problems(point, ref: Reference, y: dict) -> list:
    """phi at 1e-10 and each observed mean against d phi / dy at 1e-6."""
    problems = []
    phi = ref.phi(y)
    if not oracles.close(point.phi, phi, PHI_RTOL):
        problems.append(f"phi {point.phi!r} vs reference {phi!r}")
    for n, mean in ref.mean(y).items():
        if not oracles.close(point.observed[n], mean, MEAN_RTOL):
            problems.append(f"<{n}> {point.observed[n]!r} vs d phi/d y {mean!r}")
    return problems


def _difference_problem(what: str, value: float, ref: float, rtol: float, rounding: float) -> list:
    """Compare a finite-difference result with its reference.

    ``rounding`` bounds the difference quotient's rounding error
    (a multiple of the phi rounding error over h^k).  Where it exceeds the relative
    tolerance the comparison cannot resolve that tolerance; the check then
    allows the rounding bound and returns a Note instead of a problem."""
    allowed = rtol * max(1.0, abs(ref))
    if abs(value - ref) > allowed + rounding:
        return [f"{what} {value!r} vs reference {ref!r}"]
    if rounding > allowed:
        return [Note(f"{what}: finite-difference rounding ({rounding:.3g}) exceeds the {rtol:g} tolerance")]
    return []


def _prob_problems(macro, config, excluded, x, ln_g, y_vec, q) -> list:
    problems = []
    ref = oracles.macro_probs_direct(x, ln_g, y_vec, q)
    if abs(float(np.sum(macro)) - 1.0) > PROB_ATOL:
        problems.append(f"macro probabilities sum to {float(np.sum(macro))!r}")
    if float(np.max(np.abs(macro - ref))) > PROB_ATOL:
        problems.append(f"macro probabilities off by {float(np.max(np.abs(macro - ref))):.3g}")
    if not np.array_equal(excluded, oracles.excluded_direct(x, ln_g, y_vec, q)):
        problems.append("excluded rows differ from the cutoff condition")
    # config = macro / g wherever that quotient is a normal double; the
    # package snaps g to an integer within 1e-9 relative, hence 2e-9 in ln
    with np.errstate(divide="ignore"):
        ln_ref = np.log(macro) - ln_g
        rows = (macro > 0.0) & (ln_ref > -700.0)
        err = np.abs(np.log(config[rows]) - ln_ref[rows])
    if err.size and not float(err.max()) <= 2e-9:
        problems.append(f"config probability != macro / g (ln off by {float(err.max()):.3g})")
    return problems


# -- ensemble_small ------------------------------------------------------

SMALL_FAMILIES = (1.0, 0.5, 1.5, 2.0)


def _small_models(rng):
    return [
        ("two_level", {"epsilon": float(rng.uniform(0.5, 2.0))}),
        ("spin_half_paramagnet", {"N": int(rng.integers(8, 257))}),
        ("einstein_solid", {"N": int(rng.integers(1, 11)), "E_max": 100}),
        ("lattice_gas", {"sites": int(rng.integers(20, 201))}),
    ]


def _small_y(rng, model: str) -> dict:
    if model == "two_level":
        return {"E": float(rng.uniform(0.2, 3.0))}
    if model == "spin_half_paramagnet":
        return {"M": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.3))}
    if model == "einstein_solid":  # beta >= 1 keeps E_max = 100 truncation negligible
        return {"E": float(rng.uniform(1.0, 3.0))}
    return {"E": float(rng.uniform(0.1, 1.0)), "N": float(rng.uniform(-1.0, 2.0))}


def _state_ok(x, ln_g, y: dict, names, q: float) -> bool:
    """Some row survives the cutoff, and no row crosses it within two
    Hessian steps of y (phi is not smooth across a cutoff)."""
    vec = np.array([y[n] for n in names])
    base = oracles.excluded_direct(x, ln_g, vec, q)
    if base.all():
        return False
    for i, n in enumerate(names):
        for sign in (-2.0, 2.0):
            moved = vec.copy()
            moved[i] += sign * HESS_STEP * max(1.0, abs(y[n]))
            if not np.array_equal(base, oracles.excluded_direct(x, ln_g, moved, q)):
                return False
    return True


def ensemble_small(seed: int, workdir: Path, inprocess: bool = False) -> list:
    """State-point queries on small built-in spectra, every family."""
    from sqzstat import engine, fluctuation, models, squeeze, thermo

    rng = np.random.default_rng([seed, 1])
    ops = []
    for _ in range(2):
        for model, params in _small_models(rng):
            spectrum = models.build_model(model, params)
            x, ln_g = oracles.model_table(model, params)
            names = list(spectrum.variable_names)
            for q in SMALL_FAMILIES:
                for _attempt in range(1000):
                    y = _small_y(rng, model)
                    if _state_ok(x, ln_g, y, names, q):
                        break
                else:
                    raise RuntimeError(f"no valid state for {model} at q={q}")
                ops.append(_small_op(engine, fluctuation, thermo, model, params, spectrum,
                                     _family(squeeze, q), q, y, x, ln_g))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    for op in ops:  # warm-up
        op.run()
    return ops


def _small_op(engine, fluctuation, thermo, model, params, spectrum, family, q, y, x, ln_g) -> Op:
    env = engine.EnsembleSpec(fixed_intensive=y)
    names = sorted(y)

    def run():
        rep = engine.report_for(spectrum, env, family)
        surface = engine.phi_surface_from_spectrum(spectrum, env, family)
        conj = thermo.conjugates_from_phi(surface, env.split, env.values())
        mom = fluctuation.moments(surface, env.values(), names, family)
        probs = engine.probabilities(rep.table)
        return rep, conj, mom, probs

    ref = Reference(model, params, x, ln_g, spectrum.variable_names, q)

    def check(out):
        rep, conj, mom, probs = out
        problems = _point_problems(rep.point, ref, y)
        err = ref.phi_rounding(y)
        scale = abs(1.0 + (q - 1.0) * ref.phi(y))
        variances = ref.variance(y)
        for n in names:
            h = CONJ_STEP * max(1.0, abs(y[n]))
            problems += _difference_problem(f"conjugate {n}", conj[n], rep.point.observed[n],
                                            MEAN_RTOL, 10.0 * err / h)
            h = HESS_STEP * max(1.0, abs(y[n]))
            problems += _difference_problem(f"variance {n}", mom.variances[n], variances[n],
                                            VAR_RTOL, 50.0 * err * scale / h**2)
        y_vec = np.array([y[n] for n in spectrum.variable_names])
        problems += _prob_problems(probs.macro_probs, probs.config_probs, probs.excluded,
                                   x, ln_g, y_vec, q)
        return problems

    def digest(out):
        rep, conj, mom, probs = out
        p = rep.point
        return _digest(
            [p.phi, p.entropy_J, np.nan if p.entropy_theta is None else p.entropy_theta],
            [p.observed[n] for n in names], [conj[n] for n in names],
            [mom.variances[n] for n in names], sorted(mom.covariances.values()),
            probs.macro_probs, probs.config_probs,
        )

    label = f"{model}/{'identity' if q == 1.0 else f'q{q:g}'}"
    return Op(label, run, check, digest)


# -- ensemble_large ------------------------------------------------------

# (rows, q, swept variable) of the model-file-style spectra of one cycle
LARGE_FILES = ((100_000, 1.0, "E"), (100_000, 1.5, "N"), (200_000, 1.0, "N"),
               (400_000, 1.5, "E"), (100_000, 1.0, "N"))
LARGE_PARAMAGNET_N = 100_000
SWEEP_POINTS = 16


def _file_table(rng, n: int):
    """Distinct (E, N) rows on a 1000 x 1000 grid, ln g uniform in [0, 30]."""
    idx = rng.choice(1_000_000, size=n, replace=False)
    x = np.column_stack([(idx // 1000) * 0.01, idx % 1000]).astype(float)
    return x, rng.uniform(0.0, 30.0, size=n)


def ensemble_large(seed: int, workdir: Path, inprocess: bool = False) -> list:
    """Ops on spectra of 1e5 - 4e5 rows: build, 16-point sweep, row table."""
    from sqzstat import engine, models, squeeze

    rng = np.random.default_rng([seed, 2])
    ops = []
    for n, q, axis in LARGE_FILES:
        x, ln_g = _file_table(rng, n)
        y0 = {"E": float(rng.uniform(0.1, 1.0)), "N": float(rng.uniform(0.001, 0.01))}
        grid = np.linspace(y0[axis], 2.0 * y0[axis], SWEEP_POINTS)
        ops.append(_sweep_op(engine, _family(squeeze, q), q, None, None, x, ln_g, ("E", "N"),
                             y0, axis, grid, spectrum=None))
    params = {"N": LARGE_PARAMAGNET_N}
    para = models.build_model("spin_half_paramagnet", params)
    for q in (1.0, 1.5):  # ln g reaches 69310 here, so no per-row table
        y0 = {"M": float(rng.uniform(0.001, 0.01))}
        grid = np.linspace(y0["M"], 2.0 * y0["M"], SWEEP_POINTS)
        ops.append(_sweep_op(engine, _family(squeeze, q), q, "spin_half_paramagnet", params,
                             None, None, ("M",), y0, "M", grid, spectrum=para))
    # The per-row table of a spectrum with ln g > 709 raises OverflowError at
    # the package's seed; it stays in the mix so a fix shows as fewer failures.
    big_params = {"N": 1000, "E_max": 2000}
    big = models.build_model("einstein_solid", big_params)
    ops.append(_overflow_rows_op(engine, squeeze, big, big_params))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    _large_warmup(engine, squeeze, rng)
    return ops


def _large_warmup(engine, squeeze, rng) -> None:
    x, ln_g = _file_table(rng, 1000)
    sp = engine.DegeneracySpectrum(variable_names=("E", "N"), x=x, ln_g=ln_g)
    for q in (1.0, 1.5):
        engine.report_for(sp, engine.EnsembleSpec(fixed_intensive={"E": 0.5, "N": 0.005}),
                          _family(squeeze, q)).rows()


def _sweep_op(engine, family, q, model, params, x, ln_g, names, y0, axis, grid, spectrum) -> Op:
    """Sweep one y over 16 points.  Without a prebuilt ``spectrum`` the op
    builds it from (x, ln g) and ends with the per-row table of the
    middle point."""
    build = spectrum is None
    mid = SWEEP_POINTS // 2
    envs = []
    for v in grid:
        y = dict(y0)
        y[axis] = float(v)
        envs.append(y)

    def run():
        sp = engine.DegeneracySpectrum(variable_names=names, x=x, ln_g=ln_g) if build else spectrum
        points = []
        for i, y in enumerate(envs):
            rep = engine.report_for(sp, engine.EnsembleSpec(fixed_intensive=y), family)
            points.append(rep.point)
            if i == mid:
                mid_report = rep
        return points, (mid_report.rows() if build else None)

    ref = Reference(model, params, x, ln_g, names, q)

    def check(out):
        points, rows = out
        problems = []
        for i, (point, y) in enumerate(zip(points, envs)):
            if i == mid:
                problems += _point_problems(point, ref, y)
            elif not oracles.close(point.phi, ref.phi(y), PHI_RTOL):
                problems.append(f"phi at {y} {point.phi!r} vs reference {ref.phi(y)!r}")
        if rows is None:
            return problems
        macro = np.array([r["macro_prob"] for r in rows])
        config = np.array([r["config_prob"] for r in rows])
        excluded = np.array([r["excluded"] for r in rows])
        y_vec = np.array([envs[mid][n] for n in names])
        return problems + _prob_problems(macro, config, excluded, ref.x, ref.ln_g, y_vec, q)

    def digest(out):
        points, rows = out
        return _digest([[p.phi, p.entropy_J] + [p.observed[n] for n in names] for p in points],
                       [(r["macro_prob"], r["config_prob"], r["ln_class"]) for r in rows or ()])

    kind = f"file{len(ln_g) // 1000}k" if build else f"paramagnet{spectrum.n_rows // 1000}k"
    return Op(f"{kind}/{'identity' if q == 1.0 else f'q{q:g}'}", run, check, digest)


def _overflow_rows_op(engine, squeeze, spectrum, params) -> Op:
    y = {"E": 1.0}
    family = squeeze.SqueezeFamily.identity()
    env = engine.EnsembleSpec(fixed_intensive=y)

    def run():
        return engine.report_for(spectrum, env, family).rows()

    def check(rows):
        x, ln_g = oracles.model_table("einstein_solid", params)
        macro = np.array([r["macro_prob"] for r in rows])
        config = np.array([r["config_prob"] for r in rows])
        excluded = np.array([r["excluded"] for r in rows])
        return _prob_problems(macro, config, excluded, x, ln_g, np.array([y["E"]]), 1.0)

    def digest(rows):
        return _digest([(r["macro_prob"], r["config_prob"]) for r in rows])

    return Op("einstein_rows/identity", run, check, digest)


# -- kinetics_relax ------------------------------------------------------

# (radius, family q, xi, initial state) of the relaxations of one cycle.
# Relaxation cost depends on the random initial state (about 10 % between
# states), and op percentiles are taken over per-label means, so each
# label mixes several states and the labels are sized so that the median
# falls inside the radius-4 identity/q=1.5 block (slots 5-12 of 20 by
# cost) and the p75 tail inside the radius-4 xi_soft block (slots 14-18),
# clear of any boundary between labels of similar cost.  xi_soft slows
# relaxation about fourfold, so it runs at radius 2 and 4 only.
KINETIC_CYCLE = (
    *((2, q, None, s) for q in (1.0, 1.5) for s in (0, 1)),
    *((4, q, None, s) for q in (1.0, 1.5) for s in range(4)),
    (2, 1.0, "soft", 0),
    *((4, 1.0, "soft", s) for s in range(4)),
    (2, 2.0, None, 0), (6, 1.0, None, 0), (6, 1.5, None, 0),
)
KINETIC_STATES = 4


def kinetics_relax(seed: int, workdir: Path, inprocess: bool = False) -> list:
    """Relax seeded random states to stationarity with RK4 steps."""
    from sqzstat import kinetics, squeeze

    rng = np.random.default_rng([seed, 3])
    nets, states = {}, {}
    for radius in sorted({c[0] for c in KINETIC_CYCLE}):
        lattice = kinetics.make_lattice(radius)
        nets[radius, None] = kinetics.build_collision_network(lattice)
        states[radius] = [kinetics.random_state(lattice, seed=int(s))
                          for s in rng.integers(0, 2**31, size=KINETIC_STATES)]
    for radius, _, xi, _ in KINETIC_CYCLE:
        if xi == "soft" and (radius, xi) not in nets:
            nets[radius, xi] = nets[radius, None].with_xi(kinetics.xi_soft)
    families = {q: _family(squeeze, q) for q in {c[1] for c in KINETIC_CYCLE}}
    ops = [_relax_op(kinetics, nets[r, xi], families[q], q, states[r][s],
                     f"r{r}/{'soft' if xi else ('identity' if q == 1.0 else f'q{q:g}')}")
           for r, q, xi, s in KINETIC_CYCLE]
    warm = kinetics.random_state(nets[2, None].lattice, seed=int(rng.integers(0, 2**31)))
    _relax_op(kinetics, nets[2, None], families[1.0], 1.0, warm, "warm-up").run()
    return ops


def _relax_op(kinetics, net, family, q, state0, label) -> Op:
    lattice = net.lattice

    def row(state, rhs):
        return (state.t, kinetics.entropy_functional(state, family), state.number(),
                state.energy(lattice), float(np.max(np.abs(rhs))))

    def run():
        state = state0
        dt = kinetics.stability_dt(state, net, family)
        rhs = kinetics.collision_rhs(state, net, family)
        rows = [row(state, rhs)]
        steps = 0
        while float(np.max(np.abs(rhs))) >= KIN_TOL:
            if steps == KIN_MAX_STEPS:
                raise RuntimeError(f"not stationary after {steps} steps")
            state = kinetics.step(state, net, family, dt, enforce_bound=False)
            steps += 1
            rhs = kinetics.collision_rhs(state, net, family)
            if steps % KIN_EVERY == 0:
                rows.append(row(state, rhs))
        if steps % KIN_EVERY:
            rows.append(row(state, rhs))
        return state.F, rows

    def check(out):
        F, rows = out
        v = lattice.velocities
        quads = net.quadruples
        problems = oracles.kinetic_trace_problems(rows, v, state0.F, F)
        mom = v[quads[:, 0]] + v[quads[:, 1]] - v[quads[:, 2]] - v[quads[:, 3]]
        v2 = (v**2).sum(axis=1)
        en = v2[quads[:, 0]] + v2[quads[:, 1]] - v2[quads[:, 2]] - v2[quads[:, 3]]
        if np.any(mom != 0) or np.any(en != 0):
            problems.append("a collision quadruple does not conserve momentum and energy")
        residual = oracles.detailed_balance(F, quads, q)
        if not residual < DB_TOL:
            problems.append(f"detailed-balance residual {residual:.3g} at stationarity")
        return problems

    def digest(out):
        F, rows = out
        return _digest(F, rows)

    return Op(label, run, check, digest)


# -- cli_oneshot ---------------------------------------------------------


def _write_csv(path: Path, header: str, a, b) -> None:
    lines = [header] + [f"{u:.17g},{w:.17g}" for u, w in zip(a, b)]
    path.write_text("\n".join(lines) + "\n")


def cli_argvs(seed: int, workdir: Path) -> list:
    """The five subcommands on small inputs, nine invocations (so 3 or 4
    cycles fit in a 20 s run and the tail stays the median); infer's CSVs
    come from the seed."""
    rng = np.random.default_rng([seed, 4])
    q_true = float(rng.uniform(0.5, 2.0))
    ln_g = np.linspace(0.0, 5.0, 51)
    data = workdir / "ratios.csv"
    _write_csv(data, "ln_g,ratio", ln_g, np.exp((1.0 - q_true) * ln_g))
    beta = np.linspace(0.2, 3.0, 141)
    k, theta = float(rng.uniform(2.0, 6.0)), float(rng.uniform(0.1, 0.4))
    f = beta ** (k - 1.0) * np.exp(-beta / theta)
    f /= np.trapezoid(f, beta)
    density = workdir / "density.csv"
    _write_csv(density, "beta,f", beta, f)
    u = lambda lo, hi: f"{rng.uniform(lo, hi):.6g}"  # noqa: E731
    lo, m = float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.05, 0.15))
    return [
        ["compute", "--model", "two_level", "--param", f"epsilon={u(0.5, 2.0)}", "--y", f"E={u(0.2, 2.0)}"],
        ["compute", "--model", "lattice_gas", "--param", f"sites={int(rng.integers(20, 200))}",
         "--y", f"E={u(0.1, 1.0)}", "--y", f"N={u(-0.5, 1.5)}", "--squeeze", "tsallis", "--q", "1.5"],
        ["compute", "--model", "einstein_solid", "--param", f"N={int(rng.integers(2, 9))}",
         "--y", f"E={u(1.0, 3.0)}", "--rows", str(workdir / "rows.csv")],
        ["fluct", "--model", "two_level", "--y", f"E={u(0.2, 2.0)}"],
        ["fluct", "--model", "lattice_gas", "--param", f"sites={int(rng.integers(20, 200))}",
         "--y", f"E={u(0.1, 1.0)}", "--y", f"N={u(-0.5, 1.5)}"],
        ["sweep", "--model", "two_level", "--y", "E=0.5", "--axis", "E",
         "--range", f"{lo:.6g}:{lo + 1.5:.6g}", "--steps", "16", "--format", "csv"],
        ["sweep", "--model", "spin_half_paramagnet", "--param", f"N={int(rng.integers(8, 257))}",
         "--y", "M=0.1", "--axis", "M", "--range", f"{m:.6g}:{2 * m:.6g}", "--steps", "16",
         "--squeeze", "tsallis", "--q", "1.5"],
        ["kinetics", "--lattice-radius", "2", "--steps", "1000", "--seed", str(int(rng.integers(0, 10_000)))],
        ["infer", "--data", str(data), "--density", str(density), "--energy", u(0.1, 1.0),
         "--energy", u(1.0, 3.0), "--reconstruct", str(workdir / "ln_h.csv")],
    ]


def run_child(argv: list) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "sqzstat", *argv], capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise WrongExit(proc.returncode)
    return proc.stdout


def run_inprocess(argv: list) -> bytes:
    from sqzstat import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise WrongExit(code)
    return buf.getvalue().encode()


def cli_oneshot(seed: int, workdir: Path, inprocess: bool = False) -> list:
    """One ``python -m sqzstat`` invocation per op, one child at a time.

    With ``inprocess`` the same argv lists go through ``cli.main`` in this
    process instead (the traced run's view of the cli mix).  Either way
    the first output of each argv is compared byte for byte with the
    other route, and every repeat with the first output."""
    argvs = cli_argvs(seed, workdir)
    timed, other = (run_inprocess, run_child) if inprocess else (run_child, run_inprocess)
    ops = []
    for argv in argvs:
        def run(argv=argv):
            return timed(argv)

        def check(out, argv=argv):
            ref = other(argv)
            if not out:
                return ["empty stdout"]
            return [] if out == ref else ["stdout differs between the child process and cli.main"]

        ops.append(Op(argv[0], run, check, lambda out: hashlib.blake2b(out, digest_size=16).digest()))
    ops[0].run()  # warm-up
    return ops


WORKLOADS = {
    "ensemble_small": ensemble_small,
    "ensemble_large": ensemble_large,
    "kinetics_relax": kinetics_relax,
    "cli_oneshot": cli_oneshot,
}
