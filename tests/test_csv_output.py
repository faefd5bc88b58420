"""Every CSV the CLI writes, byte for byte.

Each reference is built from the public API one row at a time and
formatted cell by cell: floats at 17 significant digits, every other
cell with str.  The CLI writes the same tables column-wise."""

import math

import numpy as np
import pytest

from sqzstat import (
    EnsembleSpec,
    SqueezeFamily,
    characteristic_class,
    generalized_boltzmann_factor,
    phi_surface_from_spectrum,
    probabilities,
    report_for,
)
from sqzstat.cli import main
from sqzstat.fluctuation import moments
from sqzstat.inference import EquilibriumDataset, reconstruct_squeeze
from sqzstat.kinetics import (
    XI_CHOICES,
    build_collision_network,
    collision_rhs,
    entropy_functional,
    make_lattice,
    random_state,
    stability_dt,
    step,
)
from sqzstat.models import build_model


def cell(v):
    return format(v, ".17g") if isinstance(v, float) else str(v)


def csv_text(header, rows):
    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def assert_text(got, want):
    # line by line first: a failure then shows one line, not a diff of the whole file
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
        assert a == b, f"line {i}"
    assert (got == want) is True


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def model_argv(model, params, y, X, q):
    argv = ["--model", model]
    for flag, values in (("--param", params), ("--y", y), ("--X", X)):
        for k, v in values.items():
            argv += [flag, f"{k}={v!r}"]
    return argv + (["--squeeze", "tsallis", "--q", repr(q)] if q is not None else [])


def family(q):
    return SqueezeFamily.identity() if q is None else SqueezeFamily.tsallis(q)


def point_row(point, extra=()):
    theta = "" if point.entropy_theta is None else point.entropy_theta
    return [*extra, point.phi, point.entropy_J, theta] + [point.observed[n] for n in sorted(point.observed)]


def point_header(point, extra=()):
    return [*extra, "phi", "entropy_J", "entropy_theta"] + [f"observed_{n}" for n in sorted(point.observed)]


@pytest.mark.parametrize(
    "model, params, y, X, q",
    [
        ("einstein_solid", {"N": 2.0, "E_max": 60.0}, {"E": 1.0}, {}, 0.5),
        ("einstein_solid", {"N": 1000.0, "E_max": 2000.0}, {"E": 1.0}, {}, None),
        ("lattice_gas", {"sites": 100.0}, {"E": 0.7, "N": 0.2}, {}, 1.5),
        ("spin_half_paramagnet", {"N": 10.0}, {}, {"M": 4.0}, None),
    ],
    ids=["excluded-rows", "ln-g-beyond-float-range", "two-columns", "pinned-X"],
)
def test_compute_rows_and_point_csv(tmp_path, capsys, model, params, y, X, q):
    path = tmp_path / "rows.csv"
    out = run(["compute", *model_argv(model, params, y, X, q), "--rows", str(path),
               "--format", "csv"], capsys)
    spec, env, fam = build_model(model, params), EnsembleSpec(y, X), family(q)
    table = characteristic_class(spec, env, fam)
    probs = probabilities(table)
    header = [f"x_{n}" for n in table.exchanged_names] + [
        "ln_g", "ln_class", "macro_prob", "config_prob", "boltzmann_factor", "excluded"]
    rows = [
        [float(v) for v in table.x_exchanged[r]]
        + [float(table.ln_g[r]), float(table.ln_row_class[r]), float(probs.macro_probs[r]),
           float(probs.config_probs[r]), generalized_boltzmann_factor(spec, env, fam, r),
           bool(table.excluded[r])]
        for r in range(table.n_rows)
    ]
    assert_text(path.read_text(), csv_text(header, rows))
    point = report_for(spec, env, fam).point
    assert_text(out, csv_text(point_header(point), [point_row(point)]))


def test_compute_rows_cover_excluded_rows_and_the_float_range(tmp_path, capsys):
    # the fixtures above exercise what they are named for
    excluded = characteristic_class(build_model("einstein_solid", {"N": 2.0, "E_max": 60.0}),
                                    EnsembleSpec({"E": 1.0}), SqueezeFamily.tsallis(0.5))
    assert 0 < excluded.n_excluded < excluded.n_rows
    assert build_model("einstein_solid", {"N": 1000.0, "E_max": 2000.0}).ln_g.max() > 709.8


@pytest.mark.parametrize(
    "model, params, y, X, q, axis, lo, hi, steps",
    [
        ("two_level", {}, {"E": 0.5}, {}, None, "E", 0.5, 2.0, 16),
        ("einstein_solid", {"N": 50.0, "E_max": 100.0}, {"E": 0.3}, {}, 1.5, "E", 0.1, 2.0, 7),
        ("lattice_gas", {"sites": 10.0}, {"E": 0.7}, {"N": 2.0}, None, "N", 0.0, 4.0, 5),
    ],
    ids=["identity", "tsallis", "pinned-axis"],
)
def test_sweep_csv(capsys, model, params, y, X, q, axis, lo, hi, steps):
    out = run(["sweep", *model_argv(model, params, y, X, q), "--axis", axis,
               "--range", f"{lo!r}:{hi!r}", "--steps", str(steps), "--format", "csv"], capsys)
    spec, fam = build_model(model, params), family(q)
    rows = []
    for value in np.linspace(lo, hi, steps):
        yy, XX = dict(y), dict(X)
        (yy if axis in y else XX)[axis] = float(value)
        point = report_for(spec, EnsembleSpec(yy, XX), fam).point
        rows.append(point_row(point, [float(value)]))
    assert_text(out, csv_text(point_header(point, [axis]), rows))


@pytest.mark.parametrize(
    "model, params, y, q",
    [
        ("lattice_gas", {"sites": 100.0}, {"E": 0.7, "N": 0.2}, None),
        ("einstein_solid", {"N": 50.0, "E_max": 100.0}, {"E": 0.3}, 0.9),
    ],
    ids=["two-variables", "tsallis"],
)
# the lattice gas's energy column is identically zero: a flat direction, so C is singular
@pytest.mark.filterwarnings("ignore:covariance matrix is numerically singular")
def test_fluct_csv(capsys, model, params, y, q):
    out = run(["fluct", *model_argv(model, params, y, {}, q), "--format", "csv"], capsys)
    spec, env, fam = build_model(model, params), EnsembleSpec(y), family(q)
    rep = moments(phi_surface_from_spectrum(spec, env, fam), env.values(), sorted(y), fam)
    lines = ["block,name,value"]
    lines += [f"variance,{n},{v:.17g}" for n, v in sorted(rep.variances.items())]
    lines += [f"intensive_variance,{n},{v:.17g}" for n, v in sorted(rep.intensive_variances.items())]
    lines += [f"covariance,{a}:{b},{v:.17g}" for (a, b), v in sorted(rep.covariances.items())]
    for i, ni in enumerate(rep.variable_names):
        for j, nj in enumerate(rep.variable_names):
            lines += [f"G,{ni}:{nj},{rep.G[i, j]:.17g}", f"G_inv,{ni}:{nj},{rep.G_inv[i, j]:.17g}"]
    assert_text(out, "\n".join(lines) + "\n")


def test_kinetics_trace_and_snapshots_xi_soft(tmp_path, capsys):
    steps, trace_every, snap_every = 40, 7, 10
    snap = tmp_path / "snap.csv"
    out = run(["kinetics", "--lattice-radius", "2", "--steps", str(steps), "--trace-every",
               str(trace_every), "--xi", "soft", "--squeeze", "tsallis", "--q", "1.5",
               "--snapshot-every", str(snap_every), "--snapshot-out", str(snap)], capsys)
    fam = SqueezeFamily.tsallis(1.5)
    lattice = make_lattice(2)
    net = build_collision_network(lattice, T=1.0, xi=XI_CHOICES["soft"])
    s = random_state(lattice, seed=0)
    dt = stability_dt(s, net, fam)
    trace, snaps = [], []
    for k in range(steps + 1):
        if k:
            s = step(s, net, fam, dt, enforce_bound=False)
        if k % trace_every == 0 or k == steps:
            rhs = collision_rhs(s, net, fam)
            trace.append([s.t, entropy_functional(s, fam), s.number(), s.energy(lattice),
                          float(np.max(np.abs(rhs)))])
        if k % snap_every == 0 or k == steps:
            snaps += [[s.t, int(v[0]), int(v[1]), f] for v, f in zip(lattice.velocities, s.F)]
    assert_text(out, csv_text(["t", "S", "sum_F", "sum_Fv2", "max_rhs"], trace))
    assert_text(snap.read_text(), csv_text(["t", "vx", "vy", "F"], snaps))


def test_infer_reconstruct_csv(tmp_path, capsys):
    x = np.linspace(0.0, 5.0, 41)
    data = tmp_path / "ratios.csv"
    data.write_text("ln_g,ratio\n" + "".join(f"{v:.17g},{math.exp(-0.4 * v):.17g}\n" for v in x))
    rec = tmp_path / "rec.csv"
    run(["infer", "--data", str(data), "--reconstruct", str(rec)], capsys)
    cells = [line.split(",") for line in data.read_text().splitlines()[1:]]
    grid, ln_h = reconstruct_squeeze(EquilibriumDataset(
        ln_g=np.array([float(a) for a, _ in cells]), ratio=np.array([float(b) for _, b in cells])))
    assert_text(rec.read_text(), csv_text(["ln_g", "ln_h"], zip(grid.tolist(), ln_h.tolist())))
