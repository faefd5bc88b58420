import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqzstat
from sqzstat import SqueezeFamily
from sqzstat.cli import main

SRC = str(Path(sqzstat.__file__).resolve().parent.parent)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_subprocess(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "sqzstat", *args], capture_output=True, text=True, env=env
    )


# ---------------------------------------------------------------------------
# compute

def test_compute_two_level(capsys):
    code, out, _ = run_cli(
        ["compute", "--model", "two_level", "--param", "epsilon=1", "--y", "E=0.6931",
         "--squeeze", "identity"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["phi"] == pytest.approx(-0.405465, abs=5e-5)
    assert doc["observed"]["E"] == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_compute_csv_projection(capsys):
    code, out, _ = run_cli(
        ["compute", "--model", "two_level", "--y", "E=0.7", "--format", "csv"], capsys
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "phi"
    assert float(row.split(",")[0]) == pytest.approx(-math.log(1 + math.exp(-0.7)), rel=1e-12)


def test_compute_rows_table(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        ["compute", "--model", "two_level", "--y", "E=0.7", "--rows", str(rows_path)], capsys
    )
    assert code == 0
    lines = rows_path.read_text().strip().splitlines()
    assert lines[0] == "x_E,ln_g,ln_class,macro_prob,config_prob,boltzmann_factor,excluded"
    assert len(lines) == 3


def test_compute_rows_beyond_float_range_are_finite(tmp_path, capsys):
    # ln g reaches ~1900: exp(ln g) overflows, so the per-row quotients
    # must be taken in log domain
    rows_path = tmp_path / "r.csv"
    code, _, _ = run_cli(
        ["compute", "--model", "einstein_solid", "--param", "N=1000", "--param", "E_max=2000",
         "--y", "E=1", "--rows", str(rows_path)],
        capsys,
    )
    assert code == 0
    lines = rows_path.read_text().strip().splitlines()
    assert len(lines) == 2002
    for line in lines[1:]:
        *numbers, excluded = line.split(",")
        assert excluded == "False"
        assert all(math.isfinite(float(v)) for v in numbers)


def test_compute_tsallis(capsys):
    code, out, _ = run_cli(
        ["compute", "--model", "two_level", "--y", f"E={math.log(2)}",
         "--squeeze", "tsallis", "--q", "2"],
        capsys,
    )
    doc = json.loads(out)
    assert doc["phi"] == pytest.approx(-0.37131279241563214, rel=1e-10)


def test_emit_model_roundtrip(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code, out1, _ = run_cli(
        ["compute", "--model", "lattice_gas", "--param", "sites=6", "--y", "E=0.3",
         "--y", "N=0.1", "--emit-model", str(model_path)],
        capsys,
    )
    assert code == 0
    code, out2, _ = run_cli(["compute", "--model", str(model_path)], capsys)
    assert code == 0
    assert out1 == out2  # re-ingest reproduces identical results


def test_missing_q_is_config_error(capsys):
    code, _, err = run_cli(
        ["compute", "--model", "two_level", "--y", "E=1", "--squeeze", "tsallis"], capsys
    )
    assert code == 3
    assert json.loads(err)["error"]["code"] == 3


def test_unknown_model_parameter_is_model_error(capsys):
    code, _, err = run_cli(
        ["compute", "--model", "two_level", "--param", "bogus=2", "--y", "E=1"], capsys
    )
    assert code == 4
    assert json.loads(err)["error"]["type"] == "ModelValidationError"


def test_degenerate_ensemble_is_numeric_error(tmp_path, capsys):
    # every subclass sits beyond the q = 0.5 cutoff -> numeric error
    doc = {
        "variables": [{"name": "E", "kind": "exchanged"}],
        "rows": [{"x": [50.0], "ln_g": 0.0}, {"x": [60.0], "ln_g": 0.0}],
        "environment": {"y": {"E": 1.0}, "X": {}},
        "squeeze": {"family": "tsallis", "q": 0.5},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["compute", "--model", str(path)], capsys)
    assert code == 5
    assert json.loads(err)["error"]["type"] == "DegenerateEnsembleError"


@pytest.mark.parametrize("n_rows, ln_g", [(8, 1418.1), (2, 1418.0)])
def test_squeezed_total_overflow_is_numeric_error(tmp_path, capsys, n_rows, ln_g):
    doc = {
        "variables": [{"name": "E", "kind": "exchanged"}],
        "rows": [{"x": [float(r)], "ln_g": ln_g} for r in range(n_rows)],
        "environment": {"y": {"E": 0.0}, "X": {}},
        "squeeze": {"family": "tsallis", "q": 0.5},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["compute", "--model", str(path)], capsys)
    assert (code, out) == (5, "")
    assert json.loads(err)["error"]["type"] == "SqueezeDomainError"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_environment_is_model_error(capsys, value):
    code, out, err = run_cli(["compute", "--model", "two_level", "--y", f"E={value}"], capsys)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"]["type"] == "ModelValidationError"


# ---------------------------------------------------------------------------
# fluct

def test_fluct_two_level(capsys):
    # a single two-level system is far from macroscopic, so the size
    # diagnostic is expected to fire alongside the correct numbers
    from sqzstat.fluctuation import StabilityWarning

    with pytest.warns(StabilityWarning, match="subdivision entropy"):
        code, out, _ = run_cli(
            ["fluct", "--model", "two_level", "--y", f"E={math.log(2)}"], capsys
        )
    assert code == 0
    doc = json.loads(out)
    assert doc["variances"]["E"] == pytest.approx(2.0 / 9.0, abs=1e-8)
    assert doc["variances"]["E"] * doc["intensive_variances"]["E"] == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# kinetics

def test_kinetics_zero_steps_reports_initial_state(capsys):
    code, out, _ = run_cli(["kinetics", "--lattice-radius", "2", "--steps", "0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,S,sum_F,sum_Fv2,max_rhs"
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 0.0


def test_kinetics_trace_and_entropy_monotone(capsys):
    code, out, _ = run_cli(
        ["kinetics", "--lattice-radius", "2", "--steps", "400", "--trace-every", "50"], capsys
    )
    assert code == 0
    rows = [list(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
    S = [r[1] for r in rows]
    assert all(b - a >= -1e-12 for a, b in zip(S, S[1:]))
    n0 = rows[0][2]
    assert all(abs(r[2] - n0) / n0 < 1e-9 for r in rows)


def test_kinetics_snapshots(tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    code, _, _ = run_cli(
        ["kinetics", "--lattice-radius", "1", "--steps", "10", "--snapshot-every", "5",
         "--snapshot-out", str(snap)],
        capsys,
    )
    assert code == 0
    lines = snap.read_text().strip().splitlines()
    assert lines[0] == "t,vx,vy,F"
    assert len(lines) == 1 + 5 * 3  # t=0, step 5, step 10 on the 5-velocity lattice


def test_kinetics_one_pass_matches_two_pass_reference(tmp_path, capsys, monkeypatch):
    # the trace and the snapshots come from one simulation; both must equal
    # a reference that runs the simulation once for each
    from sqzstat import kinetics
    from sqzstat.kinetics import (
        build_collision_network, collision_rhs, entropy_functional, make_lattice,
        random_state, stability_dt, step,
    )

    calls = []

    def counted_step(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    # count steps taken through either module's binding of step
    monkeypatch.setattr(kinetics, "step", counted_step)
    monkeypatch.setattr("sqzstat.cli.step", counted_step, raising=False)
    steps, trace_every, snap_every = 30, 7, 4
    snap = tmp_path / "snap.csv"
    code, out, _ = run_cli(
        ["kinetics", "--lattice-radius", "2", "--steps", str(steps), "--trace-every",
         str(trace_every), "--snapshot-every", str(snap_every), "--snapshot-out", str(snap),
         "--squeeze", "tsallis", "--q", "1.5"],
        capsys,
    )
    assert code == 0
    assert len(calls) == steps
    fam = SqueezeFamily.tsallis(1.5)
    lattice = make_lattice(2)
    net = build_collision_network(lattice, T=1.0, xi=None)
    s = random_state(lattice, seed=0)
    dt = stability_dt(s, net, fam)

    def fmt(*vals):
        return ",".join(format(v, ".17g") for v in vals)

    trace = ["t,S,sum_F,sum_Fv2,max_rhs"]
    for k in range(steps + 1):
        if k:
            s = step(s, net, fam, dt, enforce_bound=False)
        if k % trace_every == 0 or k == steps:
            rhs = collision_rhs(s, net, fam)
            trace.append(fmt(s.t, entropy_functional(s, fam), s.number(), s.energy(lattice),
                             float(np.max(np.abs(rhs)))))
    assert out == "\n".join(trace) + "\n"
    s = random_state(lattice, seed=0)
    snaps = []
    for k in range(steps + 1):
        if k:
            s = step(s, net, fam, dt, enforce_bound=False)
        if k % snap_every == 0 or k == steps:
            snaps += [f"{s.t:.17g},{int(v[0])},{int(v[1])},{f:.17g}"
                      for v, f in zip(lattice.velocities, s.F)]
    assert snap.read_text() == "t,vx,vy,F\n" + "\n".join(snaps) + "\n"


@pytest.mark.parametrize(
    "flags",
    [["--snapshot-every", "5"], ["--snapshot-out", "SNAP"],
     ["--snapshot-every", "0", "--snapshot-out", "SNAP"]],
)
def test_kinetics_snapshot_flags_go_together(tmp_path, capsys, flags):
    snap = tmp_path / "snap.csv"
    flags = [str(snap) if f == "SNAP" else f for f in flags]
    code, out, err = run_cli(["kinetics", "--lattice-radius", "1", "--steps", "2", *flags], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["code"] == 3
    assert not snap.exists()


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--kernel", "nan"], 4, "kernel weight"),
        (["--kernel", "inf"], 4, "kernel weight"),
        (["--dt", "nan"], 5, "dt must be positive"),
        (["--steps", "-3"], 3, "--steps"),
        (["--trace-every", "-1"], 3, "--trace-every"),
        (["--seed", "-1"], 3, "--seed"),
    ],
    ids=["kernel-nan", "kernel-inf", "dt-nan", "steps-negative", "trace-every-negative",
         "seed-negative"],
)
def test_kinetics_bad_inputs_exit_with_documented_codes(capsys, flags, code, message):
    got, out, err = run_cli(["kinetics", "--lattice-radius", "1", "--steps", "2", *flags], capsys)
    assert (got, out) == (code, "")
    error = json.loads(err)["error"]
    assert error["code"] == code and message in error["message"]


def test_xi_choices_are_the_kinetics_table():
    # the parser lists them without importing kinetics
    import argparse

    from sqzstat import kinetics
    from sqzstat.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    xi = next(a for a in sub.choices["kinetics"]._actions if a.dest == "xi")
    assert xi.choices == sorted(kinetics.XI_CHOICES)


# ---------------------------------------------------------------------------
# infer

def test_infer_planted_power_law(tmp_path, capsys):
    q = 1.5
    x = np.linspace(0.0, 5.0, 101)
    lines = ["ln_g,ratio"] + [f"{v:.17g},{math.exp((1 - q) * v):.17g}" for v in x]
    data = tmp_path / "ratios.csv"
    data.write_text("\n".join(lines) + "\n")
    out_rec = tmp_path / "rec.csv"
    code, out, _ = run_cli(
        ["infer", "--data", str(data), "--reconstruct", str(out_rec)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == pytest.approx(1.5, abs=1e-3)
    assert doc["residual"] < 1e-6
    assert doc["power_law"] is True
    rec = out_rec.read_text().strip().splitlines()
    assert rec[0] == "ln_g,ln_h"
    assert len(rec) == 102


def test_infer_density_quadrature(tmp_path, capsys):
    beta0, width = 1.0, 1e-3
    b = np.linspace(beta0 - 5e-3, beta0 + 5e-3, 2001)
    f = np.exp(-0.5 * ((b - beta0) / width) ** 2)
    f = f / np.trapezoid(f, b)
    path = tmp_path / "density.csv"
    path.write_text("beta,f\n" + "\n".join(f"{x:.17g},{y:.17g}" for x, y in zip(b, f)) + "\n")
    code, out, _ = run_cli(
        ["infer", "--density", str(path), "--energy", "0", "--energy", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["B"]["0"] == 1.0
    assert doc["B"]["2"] == pytest.approx(math.exp(-2.0), abs=1e-4)


def test_infer_bad_header_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    code, _, err = run_cli(["infer", "--data", str(path)], capsys)
    assert code == 3


# ---------------------------------------------------------------------------
# sweep

def test_sweep_monotone_phi_in_beta(capsys):
    code, out, _ = run_cli(
        ["sweep", "--model", "two_level", "--y", "E=0.5", "--axis", "E",
         "--range", "0.5:2.0", "--steps", "16", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]  # phi column
    # partition sum decreases in beta, so phi = -ln(sum) increases
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sweep_requires_two_steps(capsys):
    code, _, _ = run_cli(
        ["sweep", "--model", "two_level", "--y", "E=0.5", "--axis", "E",
         "--range", "0.5:2.0", "--steps", "1"],
        capsys,
    )
    assert code == 3


def test_sweep_non_finite_range_is_model_error(capsys):
    code, out, err = run_cli(
        ["sweep", "--model", "two_level", "--y", "E=1", "--axis", "E", "--range", "nan:1",
         "--steps", "3"],
        capsys,
    )
    assert (code, out) == (4, "")
    assert json.loads(err)["error"]["type"] == "ModelValidationError"


def test_sweep_range_beyond_the_float_range_names_the_range(capsys):
    # both ends are finite, but hi - lo overflows: the grid would hold a nan
    code, out, err = run_cli(
        ["sweep", "--model", "two_level", "--y", "E=1", "--axis", "E",
         "--range=-1.7e308:1.7e308", "--steps", "3"],
        capsys,
    )
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ModelValidationError"
    assert "-1.7e308:1.7e308" in error["message"]


def test_sweep_unknown_axis(capsys):
    code, _, _ = run_cli(
        ["sweep", "--model", "two_level", "--y", "E=0.5", "--axis", "Z",
         "--range", "0:1", "--steps", "3"],
        capsys,
    )
    assert code == 3


PINNED_SWEEP = ["--model", "lattice_gas", "--param", "sites=10", "--y", "E=0.7", "--X", "N=2"]


def test_sweep_json_writes_undefined_theta_as_null_like_compute(capsys):
    # with N pinned the subdivision entropy is undefined: null in JSON,
    # an empty cell in CSV
    sweep = PINNED_SWEEP + ["--axis", "N", "--range", "0:4", "--steps", "2"]
    code, out, _ = run_cli(["sweep", *sweep], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [row["N"] for row in rows] == [0.0, 4.0]
    assert all(row["entropy_theta"] is None for row in rows)
    code, out, _ = run_cli(["compute", *PINNED_SWEEP], capsys)
    assert code == 0 and json.loads(out)["entropy_theta"] is None
    code, out, _ = run_cli(["sweep", *sweep, "--format", "csv"], capsys)
    assert code == 0
    header, *lines = out.splitlines()
    col = header.split(",").index("entropy_theta")
    assert [ln.split(",")[col] for ln in lines] == ["", ""]


# ---------------------------------------------------------------------------
# determinism and process-level behavior

def test_identical_invocations_are_bit_identical():
    args = ["compute", "--model", "lattice_gas", "--param", "sites=12", "--y", "E=0.4",
            "--y", "N=0.2", "--squeeze", "tsallis", "--q", "1.5"]
    r1 = run_cli_subprocess(args)
    r2 = run_cli_subprocess(args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_kinetics_deterministic_across_processes():
    args = ["kinetics", "--lattice-radius", "2", "--steps", "50", "--trace-every", "10"]
    r1 = run_cli_subprocess(args)
    r2 = run_cli_subprocess(args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_help_documents_exit_codes():
    r = run_cli_subprocess(["--help"])
    assert r.returncode == 0
    assert "exit codes" in r.stdout
    assert "numerical domain errors" in r.stdout


# ---------------------------------------------------------------------------
# malformed inputs end in documented exit codes, never a traceback

@pytest.mark.parametrize("flag, header", [("--data", "ln_g,ratio"), ("--density", "beta,f")])
def test_infer_non_numeric_cell_is_config_error(tmp_path, capsys, flag, header):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n0,1\na,b\n")
    code, out, err = run_cli(["infer", flag, str(path)], capsys)
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["type"] == "CliError" and "bad data row 'a,b'" in error["message"]


def _model_doc(**changes):
    doc = {
        "variables": [{"name": "E", "kind": "exchanged"}],
        "rows": [{"x": [0.0], "ln_g": 0.0}, {"x": [1.0], "ln_g": 0.0}],
        "environment": {"y": {"E": 1.0}, "X": {}},
        "squeeze": {"family": "tsallis", "q": 1.5},
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "doc, code, error_type",
    [
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": ["a"], "ln_g": 0.0}]), 4,
         "ModelValidationError"),
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": [1.0], "ln_g": "b"}]), 4,
         "ModelValidationError"),
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": [1.0, 2.0], "ln_g": 0.0}]), 4,
         "ModelValidationError"),
        (_model_doc(environment={"y": {"E": "c"}, "X": {}}), 4, "ModelValidationError"),
        (_model_doc(squeeze="tsallis"), 5, "SqueezeDomainError"),
        (_model_doc(squeeze={"family": "tsallis", "q": "x"}), 5, "SqueezeDomainError"),
    ],
    ids=["x-not-a-number", "ln_g-not-a-number", "ragged-x", "y-not-a-number",
         "squeeze-not-an-object", "q-not-a-number"],
)
def test_malformed_model_file_exits_with_documented_code(tmp_path, capsys, doc, code, error_type):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(["compute", "--model", str(path)], capsys)
    assert (got, out) == (code, "")
    assert json.loads(err)["error"]["type"] == error_type


@pytest.mark.parametrize(
    "model, params, y",
    [("spin_half_paramagnet", ["N=inf"], "M=1"), ("spin_half_paramagnet", ["N=nan"], "M=1"),
     ("einstein_solid", ["N=3", "E_max=inf"], "E=1"), ("lattice_gas", ["sites=nan"], "E=1"),
     ("lattice_gas", ["sites=inf"], "E=1"), ("two_level", ["epsilon=-inf"], "E=1")],
)
def test_non_finite_model_parameter_is_model_error(capsys, model, params, y):
    argv = ["compute", "--model", model, "--y", y]
    for p in params:
        argv += ["--param", p]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ModelValidationError" and "must be finite" in error["message"]


# ---------------------------------------------------------------------------
# each CliError path exits 3 with one JSON error line

TWO_LEVEL = ["--model", "two_level", "--y", "E=0.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "--model", "two_level", "--y", "E"], "--y expects name=value, got 'E'"),
        (["compute", "--model", "two_level", "--y", "E=abc"], "--y E: 'abc' is not a number"),
        (["compute", "--y", "E=0.5"], "--model is required"),
        (["compute", "--model", "no_such_model"], "neither a known model nor an existing file"),
        (["compute", "--model", "MODEL", "--param", "N=3"], "--param applies only to named models"),
        (["compute", "--model", "DIR"], "cannot read model file"),
        (["compute", "--model", "BAD_JSON"], "cannot read model file"),
        (["infer", "--data", "MISSING"], "does not exist"),
        (["infer", "--data", "EMPTY"], "is empty"),
        (["infer"], "infer needs --data and/or --density"),
        (["sweep", *TWO_LEVEL, "--axis", "E", "--range", "1-2", "--steps", "3"],
         "--range expects lo:hi, got '1-2'"),
        (["kinetics", "--lattice-radius", "0"], "--lattice-radius must be >= 1"),
    ],
    ids=["y-without-equals", "y-not-a-number", "no-model", "unknown-model", "param-with-file",
         "unreadable-file", "file-not-json", "missing-data", "empty-data", "infer-without-input",
         "range-without-colon", "radius-zero"],
)
def test_cli_error_paths_exit_3_with_one_json_line(tmp_path, capsys, argv, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc()))
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "empty.csv").write_text("\n")
    paths = {"MODEL": model, "DIR": tmp_path, "BAD_JSON": tmp_path / "bad.json",
             "MISSING": tmp_path / "missing.csv", "EMPTY": tmp_path / "empty.csv"}
    code, out, err = run_cli([str(paths.get(a, a)) for a in argv], capsys)
    assert (code, out) == (3, "")
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert (error["code"], error["type"]) == (3, "CliError") and message in error["message"]


def _write_density(path):
    path.write_text("beta,f\n" + "".join(f"{b:.17g},1.0\n" for b in np.linspace(0.5, 1.5, 101)))


@pytest.mark.parametrize("argv", [
    ["compute", *TWO_LEVEL],
    ["compute", *TWO_LEVEL, "--format", "csv"],
    ["fluct", *TWO_LEVEL],
    ["fluct", *TWO_LEVEL, "--format", "csv"],
    ["sweep", *TWO_LEVEL, "--axis", "E", "--range", "0:1", "--steps", "3"],
    ["kinetics", "--lattice-radius", "1", "--steps", "3"],
    ["infer", "--density", "DENSITY", "--energy", "0.5"],
], ids=["compute", "compute-csv", "fluct", "fluct-csv", "sweep", "kinetics", "infer"])
@pytest.mark.filterwarnings("ignore::sqzstat.fluctuation.StabilityWarning")
def test_out_writes_the_bytes_stdout_would_get(tmp_path, capsys, argv):
    _write_density(tmp_path / "density.csv")
    argv = [str(tmp_path / "density.csv") if a == "DENSITY" else a for a in argv]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    out = tmp_path / "out.txt"
    assert run_cli([*argv, "--out", str(out)], capsys) == (0, "", "")
    assert out.read_bytes() == stdout.encode()


def test_threshold_default_is_the_inference_constant():
    # the parser restates it so that parsing does not import inference
    from sqzstat import inference
    from sqzstat.cli import build_parser

    args = build_parser().parse_args(["infer"])
    assert args.threshold == inference.POWER_LAW_RESIDUAL_THRESHOLD
