import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
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


def test_y_flag_overrides_the_model_file(tmp_path, capsys):
    doc = {
        "variables": [{"name": "E", "kind": "exchanged"}],
        "rows": [{"x": [0.0], "ln_g": 0.0}, {"x": [1.0], "ln_g": 0.0}],
        "environment": {"y": {"E": 1.0}, "X": {}},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["compute", "--model", str(path), "--y", "E=0.5"], capsys)
    assert code == 0
    got = json.loads(out)
    assert got["environment"] == {"E": 0.5}
    assert got["phi"] == pytest.approx(-math.log1p(math.exp(-0.5)), rel=1e-15)


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


@pytest.mark.parametrize("flags, message", [
    (["--y", "E=0.7"], r"exchanged names \['E'\] are not the unpinned spectrum variables \['E', 'N'\]"),
    (["--y", "E=0.7", "--y", "N=0.2", "--y", "Z=1"], r"exchanged names \['E', 'N', 'Z'\] are not the unpinned"),
    (["--y", "E=0.7", "--y", "N=0.2", "--X", "Z=1"], r"no variable 'Z' in spectrum"),
], ids=["missing-variable", "unknown-exchanged-name", "unknown-pinned-name"])
def test_environment_names_are_checked_once_and_exit_4(flags, message, capsys):
    code, _, err = run_cli(["compute", "--model", "lattice_gas", "--param", "sites=10", *flags], capsys)
    assert code == 4
    error = json.loads(err)["error"]
    assert error["type"] == "ModelValidationError"
    assert re.fullmatch(message + ".*", error["message"])


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
    # the CLI has no subdivision entropy apart from phi itself (theta = -phi
    # with no pinned --X), so it arms no size check: comparing phi with
    # itself would say nothing about the size of the system
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(
            ["fluct", "--model", "two_level", "--y", f"E={math.log(2)}"], capsys
        )
    assert not [w for w in caught if "subdivision entropy" in str(w.message)]
    assert code == 0
    doc = json.loads(out)
    assert doc["variances"]["E"] == pytest.approx(2.0 / 9.0, abs=1e-8)
    assert doc["variances"]["E"] * doc["intensive_variances"]["E"] == pytest.approx(1.0, abs=1e-8)


def test_fluct_of_a_macroscopic_state_warns_nothing(capsys):
    # 50 oscillators: no StabilityWarning, and stdout is the library's report
    from sqzstat import EnsembleSpec, phi_surface_from_spectrum
    from sqzstat._jsonfmt import dumps
    from sqzstat.fluctuation import StabilityWarning, moments
    from sqzstat.models import build_model

    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        code, out, err = run_cli(
            ["fluct", "--model", "einstein_solid", "--param", "N=50", "--y", "E=0.3"], capsys
        )
        spectrum, env = build_model("einstein_solid", {"N": 50.0}), EnsembleSpec({"E": 0.3})
        ident = SqueezeFamily.identity()
        rep = moments(phi_surface_from_spectrum(spectrum, env, ident), {"E": 0.3}, ["E"], ident)
    assert (code, err) == (0, "")
    assert out == dumps(rep.to_json_dict(), indent=2) + "\n"


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

    taken, rk4 = [], kinetics._rk4

    def counted_rk4(*args):
        out = rk4(*args)
        taken.append(out[2])
        return out

    # every step runs in the kinetics module's one RK4 kernel: count the steps it takes
    monkeypatch.setattr(kinetics, "_rk4", counted_rk4)
    steps, trace_every, snap_every = 30, 7, 4
    snap = tmp_path / "snap.csv"
    code, out, _ = run_cli(
        ["kinetics", "--lattice-radius", "2", "--steps", str(steps), "--trace-every",
         str(trace_every), "--snapshot-every", str(snap_every), "--snapshot-out", str(snap),
         "--squeeze", "tsallis", "--q", "1.5"],
        capsys,
    )
    assert code == 0
    assert sum(taken) == steps
    fam = SqueezeFamily.tsallis(1.5)
    lattice = make_lattice(2)
    net = build_collision_network(lattice).with_xi(None)
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
        (["--dt", "nan"], 5, "dt must be positive"),
        (["--steps", "-3"], 3, "--steps"),
        (["--trace-every", "-1"], 3, "--trace-every"),
        (["--seed", "-1"], 3, "--seed"),
    ],
    ids=["dt-nan", "steps-negative", "trace-every-negative", "seed-negative"],
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


def test_infer_density_keeps_energies_that_agree_to_six_digits(tmp_path, capsys):
    from sqzstat.inference import superstatistics_forward

    path = tmp_path / "density.csv"
    _write_density(path)
    code, out, _ = run_cli(["infer", "--density", str(path), "--energy", "0.1",
                            "--energy", "0.1000001", "--energy", "2.5"], capsys)
    assert code == 0
    beta = np.linspace(0.5, 1.5, 101)
    f = np.ones_like(beta)
    assert json.loads(out)["B"] == {e: superstatistics_forward(beta, f, float(e))
                                    for e in ("0.1", "0.1000001", "2.5")}


def test_infer_bad_header_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    code, _, err = run_cli(["infer", "--data", str(path)], capsys)
    assert code == 3


def test_infer_has_no_threshold_flag(tmp_path, capsys):
    # the verdict is read at inference.POWER_LAW_RESIDUAL_THRESHOLD, beside the printed residual
    data = tmp_path / "data.csv"
    data.write_text("ln_g,ratio\n0.0,1.0\n1.0,0.5\n2.0,0.25\n")
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--data", str(data), "--threshold", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threshold 1e-3" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, message", [
    (["compute", "--model", "spin_half_paramagnet", "--param", "N=1e15", "--y", "M=0.1"],
     "Unable to allocate"),
    (["sweep", "--model", "two_level", "--y", "E=0.5", "--axis", "E", "--range", "0:1",
      "--steps", "1000000000000000"], "Unable to allocate"),
    # past numpy's index range numpy raises ValueError, which the builders and the grid
    # report as the same refusal
    (["compute", "--model", "spin_half_paramagnet", "--param", "N=1e19", "--y", "M=0.1"],
     "Unable to allocate 1e+19 rows: Maximum allowed size exceeded"),
    (["compute", "--model", "einstein_solid", "--param", "N=2", "--param", "E_max=1e300", "--y", "E=1"],
     "Unable to allocate 1e+300 rows: Maximum allowed size exceeded"),
    (["compute", "--model", "lattice_gas", "--param", "sites=1e300", "--y", "E=1", "--y", "N=0.1"],
     "Unable to allocate 1e+300 rows: Maximum allowed size exceeded"),
    (["sweep", "--model", "two_level", "--y", "E=1", "--axis", "E", "--range", "0:1",
      "--steps", "10000000000000000000"], "Unable to allocate 1e+19 sweep steps: Maximum allowed size exceeded"),
], ids=["compute-N", "sweep-steps", "compute-N-index", "compute-E_max-index", "compute-sites-index",
        "sweep-steps-index"])
def test_a_size_whose_arrays_cannot_be_allocated_is_numeric_error(capsys, argv, message):
    # each asks numpy for a 7 PiB float array or more, which is refused before any page is touched
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (5, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["code"] == 5 and error["type"] == "MemoryError" and message in error["message"]


def _phi_at_400_digits(n: float, row_degeneracy) -> float:
    """-ln sum_k g(k) exp(-k), k = 0..3, in 400 digits: at n = 1e300 a 50-digit binomial is wrong."""
    with mpmath.workdps(400):
        n = mpmath.mpf(n)
        return float(-mpmath.log(sum(row_degeneracy(n, k) for k in range(4))))


@pytest.mark.parametrize("argv, ref", [
    (["compute", "--model", "lattice_gas", "--param", "sites=1e300", "--param", "N_max=3", "--y", "E=0", "--y", "N=0"],
     lambda: _phi_at_400_digits(1e300, mpmath.binomial)),
    (["compute", "--model", "einstein_solid", "--param", "N=1e300", "--param", "E_max=3", "--y", "E=1"],
     lambda: _phi_at_400_digits(1e300, lambda n, m: mpmath.binomial(m + n - 1, m) * mpmath.exp(-m))),
], ids=["lattice_gas-sites", "einstein_solid-N"])
def test_a_size_of_1e300_gives_the_exact_phi(capsys, argv, ref):
    # ln C(n, k) for k << n once read 0 here (the log-gammas cancel), so phi read -1.386 and -0.440
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    phi, expected = json.loads(out)["phi"], ref()
    assert abs(phi - expected) <= 64 * np.finfo(float).eps * abs(expected), (phi, expected)


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


def test_an_unmapped_exception_propagates_out_of_main(monkeypatch):
    # only the documented error classes become exit codes; anything else is a bug, raised as is
    import sqzstat.cli

    def broken(args):
        raise RuntimeError("not a documented error")

    monkeypatch.setattr(sqzstat.cli, "cmd_compute", broken)
    with pytest.raises(RuntimeError, match="not a documented error"):
        main(["compute", "--model", "two_level", "--y", "E=0.7"])


def test_json_writer_specials():
    from sqzstat._jsonfmt import dumps

    assert dumps({"a": [], "b": math.nan, "c": [math.inf, -math.inf]}) == \
        '{"a": [], "b": "nan", "c": ["inf", "-inf"]}'
    with pytest.raises(TypeError, match="cannot serialize <class 'complex'>"):
        dumps({"z": 1j})


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
        (_model_doc(variables=[{"name": "E", "kind": "exchanged"}] * 2,
                    rows=[{"x": [0.0, 1.0], "ln_g": 0.0}, {"x": [1.0, 0.0], "ln_g": 0.0}],
                    environment={"y": {"E": 0.5}, "X": {}}), 4, "ModelValidationError"),
        # float() reads a JSON boolean as 0 or 1; none is a number here
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": [True], "ln_g": 0.0}]), 4,
         "ModelValidationError"),
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": [1.0], "ln_g": False}]), 4,
         "ModelValidationError"),
        (_model_doc(environment={"y": {"E": True}, "X": {}}), 4, "ModelValidationError"),
        (_model_doc(variables=[{"name": "E", "kind": "fixed"}], environment={"y": {}, "X": {"E": True}}),
         4, "ModelValidationError"),
        (_model_doc(squeeze={"family": "tsallis", "q": True}), 5, "SqueezeDomainError"),
        # float() reads a numeric string as its number; none is a number here either
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": ["1.0"], "ln_g": 0.0}]), 4,
         "ModelValidationError"),
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": [1.0], "ln_g": "0.5"}]), 4,
         "ModelValidationError"),
        (_model_doc(environment={"y": {"E": "1"}, "X": {}}), 4, "ModelValidationError"),
        (_model_doc(variables=[{"name": "E", "kind": "fixed"}], environment={"y": {}, "X": {"E": "1"}}),
         4, "ModelValidationError"),
        (_model_doc(squeeze={"family": "tsallis", "q": "1.5"}), 5, "SqueezeDomainError"),
        # a JSON integer that no float holds
        (_model_doc(rows=[{"x": [0.0], "ln_g": 0.0}, {"x": [1.0], "ln_g": 10**400}]), 4,
         "ModelValidationError"),
        # only the tsallis fragment takes a q: identity statistics were printed at exit 0
        (_model_doc(squeeze={"q": 1.5}), 5, "SqueezeDomainError"),
        (_model_doc(squeeze={"family": "identity", "q": 2}), 5, "SqueezeDomainError"),
        (_model_doc(squeeze={"family": "Tsallis", "q": 1.5}), 5, "SqueezeDomainError"),
    ],
    ids=["x-not-a-number", "ln_g-not-a-number", "ragged-x", "y-not-a-number",
         "squeeze-not-an-object", "q-not-a-number", "duplicate-variable-name",
         "x-boolean", "ln_g-boolean", "y-boolean", "X-boolean", "q-boolean",
         "x-numeric-string", "ln_g-numeric-string", "y-numeric-string", "X-numeric-string",
         "q-numeric-string", "ln_g-integer-beyond-float-range", "q-without-family", "q-with-identity-family",
         "unknown-family"],
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
        (["compute", "--model", "HUGE_INT"], "cannot read model file"),
        (["infer", "--data", "MISSING"], "does not exist"),
        (["infer", "--data", "EMPTY"], "is empty"),
        (["infer"], "infer needs --data and/or --density"),
        (["infer", "--density", "DENSITY", "--reconstruct", "REC"], "--reconstruct applies only with --data"),
        (["infer", "--data", "DATA", "--energy", "0.5"], "--energy applies only with --density"),
        (["sweep", *TWO_LEVEL, "--axis", "E", "--range", "1-2", "--steps", "3"],
         "--range expects lo:hi, got '1-2'"),
        (["infer", "--data", "NOT_UTF8"], "cannot read data file"),
        (["kinetics", "--lattice-radius", "0"], "--lattice-radius must be >= 1"),
        (["compute", "--model", "two_level", "--y", "E=1", "--q", "1.5"], "--q applies only with --squeeze tsallis"),
        (["compute", "--model", "two_level", "--y", "E=1", "--squeeze", "identity", "--q", "1.5"],
         "--q applies only with --squeeze tsallis"),
        (["compute", "--model", "MODEL", "--q", "1.5"], "--q applies only with --squeeze tsallis"),
        (["kinetics", "--lattice-radius", "1", "--q", "1.5"], "--q applies only with --squeeze tsallis"),
        (["compute", "--model", "two_level", "--y", "E=1", "--y", "E=2"], "--y E is given more than once"),
        (["compute", "--model", "two_level", "--y", "E=1", "--y", " E=2"], "--y E is given more than once"),
        (["compute", "--model", "lattice_gas", "--y", "E=0.7", "--X", "N=2", "--X", "N=3"],
         "--X N is given more than once"),
        (["compute", "--model", "spin_half_paramagnet", "--param", "N=4", "--param", "N=6", "--y", "M=1"],
         "--param N is given more than once"),
    ],
    ids=["y-without-equals", "y-not-a-number", "no-model", "unknown-model", "param-with-file",
         "unreadable-file", "file-not-json", "file-integer-too-long", "missing-data", "empty-data",
         "infer-without-input", "reconstruct-without-data", "energy-without-density", "range-without-colon",
         "data-not-utf8", "radius-zero", "q-without-squeeze",
         "q-with-identity", "q-with-file-family", "q-kinetics", "y-repeated", "y-repeated-once-stripped",
         "X-repeated", "param-repeated"],
)
def test_cli_error_paths_exit_3_with_one_json_line(tmp_path, capsys, argv, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc()))
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "huge.json").write_text('{"rows": [' + "1" * 5000 + "]}")  # json.loads: a bare ValueError
    (tmp_path / "empty.csv").write_text("\n")
    (tmp_path / "data.csv").write_text("ln_g,ratio\n0.0,1.0\n1.0,0.5\n2.0,0.25\n")
    (tmp_path / "latin1.csv").write_bytes(b"ln_g,ratio\n0.0,1.0\xff\n")
    _write_density(tmp_path / "density.csv")
    paths = {"MODEL": model, "DIR": tmp_path, "BAD_JSON": tmp_path / "bad.json",
             "HUGE_INT": tmp_path / "huge.json", "MISSING": tmp_path / "missing.csv", "EMPTY": tmp_path / "empty.csv",
             "DATA": tmp_path / "data.csv", "DENSITY": tmp_path / "density.csv", "REC": tmp_path / "rec.csv",
             "NOT_UTF8": tmp_path / "latin1.csv"}
    code, out, err = run_cli([str(paths.get(a, a)) for a in argv], capsys)
    assert (code, out) == (3, "") and not (tmp_path / "rec.csv").exists()
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


@pytest.mark.parametrize("argv, flag, value, code", [
    (["sweep", *TWO_LEVEL, "--axis", "E", "--steps", "3"], "--range", "-0.5:1.5", 0),
    (["sweep", *TWO_LEVEL, "--axis", "E", "--steps", "3"], "--range", "-.5:1.5", 0),
    (["sweep", *TWO_LEVEL, "--axis", "E", "--steps", "3"], "--range", "-1e308:1e308", 4),
    (["compute", *TWO_LEVEL, "--squeeze", "tsallis"], "--q", "-1e-3", 0),
    (["compute", *TWO_LEVEL, "--squeeze", "tsallis"], "--q", "-.5", 0),
    (["compute", *TWO_LEVEL, "--squeeze", "tsallis"], "--q", "-2.5E-1", 0),
    (["infer", "--density", "DENSITY"], "--energy", "-1e-3", 0),
    (["kinetics", "--lattice-radius", "1", "--steps", "3"], "--dt", "-1e-3", 5),
    (["sweep", *TWO_LEVEL, "--axis", "E", "--steps", "3"], "--range", "-inf:1", 4),
    (["compute", *TWO_LEVEL, "--squeeze", "tsallis"], "--q", "-inf", 5),
    (["infer", "--density", "DENSITY"], "--energy", "-inf", 5),
    (["infer", "--density", "DENSITY"], "--energy", "-Infinity", 5),
    (["kinetics", "--lattice-radius", "1", "--steps", "3"], "--dt", "-nan", 5),
], ids=["range-lo", "range-lo-no-digit", "range-not-finite", "q-exponent", "q-no-leading-digit",
        "q-upper-exponent", "energy-exponent", "dt-exponent", "range-lo-minus-inf", "q-minus-inf",
        "energy-minus-inf", "energy-minus-infinity", "dt-minus-nan"])
def test_a_negative_value_after_a_space_reads_as_its_equals_form(tmp_path, capsys, argv, flag, value, code):
    # argparse's own pattern took -1e-3, -0.5:1.5 and -inf for flags and exited 2
    _write_density(tmp_path / "density.csv")
    argv = [str(tmp_path / "density.csv") if a == "DENSITY" else a for a in argv]
    spaced = run_cli([*argv, flag, value], capsys)
    assert spaced == run_cli([*argv, f"{flag}={value}"], capsys)
    assert spaced[0] == code


@pytest.mark.parametrize("argv, text", [
    (["infer", "--data"], "ln_g,ratio\n0.0,1.0\n1.0,0.5\n2.0,0.25\n"),
    (["compute", "--model"], json.dumps(_model_doc())),
], ids=["data", "model"])
def test_a_utf8_byte_order_mark_is_read_past(tmp_path, capsys, argv, text):
    # spreadsheet exports start a UTF-8 file with one
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    expected = run_cli([*argv, str(plain)], capsys)
    assert expected[0] == 0
    assert run_cli([*argv, str(marked)], capsys) == expected
