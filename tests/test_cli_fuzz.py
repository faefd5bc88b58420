"""The CLI under drawn argvs, run in-process through ``cli.main``.

Hypothesis draws ``compute``, ``fluct`` and ``sweep`` argvs over the four
built-in models: extreme and signed-zero y values, a pinned ``--X N``,
q from 0 to 10 and out-of-range model parameters.  ``kinetics`` argvs
draw the radius, steps, dt (0, negative, nan and above the bound among
them), xi and q; ``infer`` argvs draw CSV files, malformed,
non-increasing, negative and nan cells among them; 3-variable model files
reach the 3x3 fluctuation path.  Every argv must end in a documented exit
code with no exception and no RuntimeWarning, and a successful run must
print (and write) parseable output with no nan; the only inf is the
condition number and the intensive variances of a singular fluctuation
report.  The draws are derandomized, so the suite is
reproducible.  The argvs that first showed a fault are pinned below."""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzstat.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=800, derandomize=True, database=None, deadline=None)

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308]),
)
POSITIVE = st.one_of(st.floats(5e-324, 1.7e308), st.floats(0.01, 100.0), st.sampled_from([0.0, -1.0]))
# now and then a size whose arrays numpy refuses at once (exit 5), never one between 61 and
# 10**15, whose array the OS could grant and the run would then touch
SIZES = st.integers(0, 80).map(lambda n: n if n <= 60 else (10**15, 10**19, 1e300)[n % 3])


@st.composite
def model_flags(draw):
    """(argv, variable names) of a built-in model with drawn parameters."""
    model = draw(st.sampled_from(["einstein_solid", "lattice_gas", "spin_half_paramagnet",
                                  "two_level"]))
    if model == "two_level":
        params, names = {"epsilon": draw(POSITIVE)}, ["E"]
    elif model == "spin_half_paramagnet":
        params, names = {"N": draw(SIZES)}, ["M"]
    elif model == "einstein_solid":
        params, names = {"N": draw(SIZES), "E_max": draw(st.integers(0, 200))}, ["E"]
    else:
        params, names = {"sites": draw(st.one_of(SIZES, st.floats(0.0, 60.0)))}, ["E", "N"]
        if draw(st.booleans()):
            params["N_max"] = draw(SIZES)
    argv = ["--model", model]
    for key, value in params.items():
        argv += ["--param", f"{key}={value!r}"]
    return argv, names


@st.composite
def environment_flags(draw, names):
    """--y for each variable, or a pinned --X N; now and then one is left out."""
    argv = []
    for name in names:
        kind = draw(st.sampled_from(["y", "y", "y", "X", "none"] if name == "N" else
                                    ["y", "y", "y", "y", "none"]))
        if kind == "y":
            argv += ["--y", f"{name}={draw(FLOATS)!r}"]
        elif kind == "X":
            argv += ["--X", f"N={draw(st.one_of(SIZES.map(float), FLOATS))!r}"]
    return argv


@st.composite
def family_flags(draw):
    """No --squeeze, identity or tsallis with its --q; now and then a --q
    that no tsallis takes, which exits 3."""
    kind = draw(st.sampled_from(["default", "identity", "tsallis"]))
    stray = kind != "tsallis" and draw(st.integers(0, 9)) == 0
    argv = [] if kind == "default" else ["--squeeze", kind]
    if kind == "tsallis" or stray:
        q = draw(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0])))
        argv += ["--q", repr(q)]
    return argv


@st.composite
def argvs(draw, command):
    model, names = draw(model_flags())
    argv = [command, *model, *draw(environment_flags(names)), *draw(family_flags()),
            "--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "sweep":
        lo, hi = draw(FLOATS), draw(FLOATS)
        argv += ["--axis", draw(st.sampled_from(names)), "--range", f"{lo!r}:{hi!r}",
                 "--steps", str(draw(st.integers(2, 4)))]
    return argv


DT = st.one_of(st.none(), st.floats(1e-6, 1.0),  # the bound is ~1e-2 at radius 2
               st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, 1e300]))


@st.composite
def kinetics_argvs(draw):
    argv = ["kinetics", "--lattice-radius", str(draw(st.integers(1, 3))),
            "--steps", str(draw(st.integers(0, 50))), "--trace-every", str(draw(st.integers(0, 20))),
            "--xi", draw(st.sampled_from(["one", "soft"])), "--seed", str(draw(st.integers(0, 2**32))),
            *draw(family_flags())]
    dt = draw(DT)
    return argv if dt is None else [*argv, "--dt", repr(dt)]


CELLS = st.one_of(FLOATS, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def csv_text(draw, header, first, second):
    """An infer CSV: sorted ``first`` and ``second`` cells, or any cells;
    now and then a malformed line (before the header, too)."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        a = sorted(draw(st.lists(first, min_size=n, max_size=n)))
        b = draw(st.lists(second, min_size=n, max_size=n))
        if header == "beta,f":  # rescaled to unit trapezoid norm where that is finite
            with np.errstate(all="ignore"):
                norm = float(np.trapezoid(b, a)) if n > 1 else 0.0
            if math.isfinite(norm) and norm > 0.0:
                b = [v / norm for v in b]
    else:
        a, b = (draw(st.lists(CELLS, min_size=n, max_size=n)) for _ in range(2))
    lines = [header, *(f"{u!r},{v!r}" for u, v in zip(a, b))]
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["x", "1,2,3", "1,", ""])))
    return "\n".join(lines) + "\n"


@st.composite
def infer_argvs(draw):
    """(argv with DIR for the input directory, {file name: text}); now and
    then a --reconstruct without --data or an --energy without --density,
    which exits 3."""
    argv, files = ["infer"], {}
    modes = draw(st.sampled_from([("data",), ("density",), ("data", "density")]))
    if "data" in modes:
        ln_g = st.floats(0.0, 50.0) | st.floats(0.0, 1.7e308)
        files["data.csv"] = draw(csv_text("ln_g,ratio", ln_g, POSITIVE))
        argv += ["--data", "DIR/data.csv"]
        if draw(st.booleans()):
            argv += ["--reconstruct", "DIR/rec.csv"]
    elif draw(st.integers(0, 9)) == 0:
        argv += ["--reconstruct", "DIR/rec.csv"]
    if "density" in modes:
        files["density.csv"] = draw(csv_text("beta,f", FLOATS, POSITIVE))
        argv += ["--density", "DIR/density.csv"]
        energies = draw(st.lists(FLOATS, max_size=3))
    else:
        energies = [draw(FLOATS)] if draw(st.integers(0, 9)) == 0 else []
    for energy in energies:
        argv += ["--energy", repr(energy)]
    return argv, files


def run(argv):
    """(exit code, stdout, stderr, RuntimeWarnings) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


def _non_finite(value) -> str | None:
    """'nan' or 'inf' if a printed cell is not finite, else None."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return None
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf"
    return None


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, (*path, i))
    else:
        yield path, obj


def output_problems(argv, out) -> list[str]:
    """Cells of a successful run's stdout that are nan, or inf outside the
    flat directions of a singular fluctuation report."""
    command, problems = argv[0], []
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if command != "kinetics" and fmt == "json":
        doc = json.loads(out)
        singular = command == "fluct" and doc["singular"] is True
        for path, value in _leaves(doc):
            bad = _non_finite(value)
            allowed = singular and path[0] in ("condition_number", "intensive_variances")
            if bad == "nan" or (bad == "inf" and not allowed):
                problems.append(f"{'.'.join(map(str, path))} = {value!r}")
    else:
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        for row in rows[1:]:
            assert len(row) == len(header)
            for name, cell in zip(header, row):
                bad = _non_finite(cell)
                allowed = command == "fluct" and row[0] == "intensive_variance"
                if bad == "nan" or (bad == "inf" and not allowed):
                    problems.append(f"{name} = {cell!r} in {row}")
    return problems


def check(argv):
    code, out, err, runtime = run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert not runtime, (argv, runtime)
    if code == 0:
        assert not output_problems(argv, out), (argv, output_problems(argv, out))
    elif code != 2:
        assert json.loads(err.strip().splitlines()[-1])["error"]["code"] == code, (argv, err)
    return code, out


@pytest.mark.parametrize("command", ["compute", "fluct", "sweep"])
def test_drawn_argvs_end_cleanly(command):
    @FUZZ
    @given(argvs(command))
    def one(argv):
        check(argv)

    one()


def test_drawn_kinetics_argvs_end_cleanly():
    @FUZZ
    @given(kinetics_argvs())
    def one(argv):
        check(argv)

    one()


def test_drawn_infer_argvs_end_cleanly(tmp_path):
    @FUZZ
    @given(infer_argvs())
    def one(drawn):
        argv, files = drawn
        argv = [a.replace("DIR", str(tmp_path)) for a in argv]
        for name in ("data.csv", "density.csv", "rec.csv"):
            (tmp_path / name).unlink(missing_ok=True)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, _ = check(argv)
        rec = tmp_path / "rec.csv"
        if code == 0 and rec.exists():
            assert not output_problems(["compute", "--format", "csv"], rec.read_text()), argv

    one()


@st.composite
def three_variable_models(draw):
    """(model document, flags): a, b and c on a 2-4 point grid each, ln g
    coupling all three, moderate y and q, so C is 3x3 and non-singular."""
    axes = [np.arange(draw(st.integers(2, 4))) * draw(st.floats(0.5, 2.0)) for _ in "abc"]
    coef = draw(st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6))
    rows = [{"x": [a, b, c], "ln_g": float(coef[0] * a * b + coef[1] * b * c + coef[2] * a * c
                                          + coef[3] * a + coef[4] * b + coef[5] * c)}
            for a in axes[0].tolist() for b in axes[1].tolist() for c in axes[2].tolist()]
    y = {n: draw(st.floats(-0.5, 0.5)) for n in "abc"}
    doc = {"variables": [{"name": n, "kind": "exchanged"} for n in "abc"], "rows": rows,
           "environment": {"y": y, "X": {}}}
    q = draw(st.one_of(st.just(1.0), st.floats(0.8, 1.25)))
    family = [] if q == 1.0 else ["--squeeze", "tsallis", "--q", repr(q)]
    if family and draw(st.booleans()):  # the file's own squeeze entry instead of the flags
        doc["squeeze"], family = {"family": "tsallis", "q": q}, []
    return doc, [*family, "--format", draw(st.sampled_from(["json", "csv"]))]


def test_drawn_three_variable_model_files_end_cleanly(tmp_path):
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(three_variable_models())
    def one(drawn):
        doc, flags = drawn
        path = tmp_path / "model3.json"
        path.write_text(json.dumps(doc))
        outs = {}
        for command in ("fluct", "compute"):
            code, outs[command] = check([command, "--model", str(path), *flags])
            assert code == 0
        if flags[-1] == "json":
            report = json.loads(outs["fluct"])
            assert report["singular"] is False and len(report["G"]) == 3
        else:  # no inf: the intensive variances of a non-singular C are finite
            rows = list(csv.reader(io.StringIO(outs["fluct"])))[1:]
            assert sum(r[0] == "G" for r in rows) == 9 and all(math.isfinite(float(r[2])) for r in rows)

    one()


NUMERIC_FLAGS = {"--q", "--dt", "--energy", "--range", "--steps", "--lattice-radius",
                 "--trace-every", "--seed", "--snapshot-every"}
SIGNED = st.sampled_from(["-inf", "-nan", "-1e-3", "-Infinity", "-NaN", "-2"])


@st.composite
def spelled_argvs(draw):
    """(argv with each numeric flag as ``--opt value``, the same argv as ``--opt=value``,
    {file name: text}), drawn from the strategies above; now and then a value becomes a
    signed word, -1e-3 or -2 (a --range one of them before its colon), and a kinetics argv
    gains snapshots."""
    argv, files = draw(st.one_of(*(argvs(c).map(lambda a: (a, {})) for c in ("compute", "fluct", "sweep")),
                                 kinetics_argvs().map(lambda a: (a, {})), infer_argvs()))
    if argv[0] == "kinetics" and draw(st.booleans()):
        argv = [*argv, "--snapshot-every", str(draw(st.integers(-1, 5))), "--snapshot-out", "DIR/snaps.csv"]
    spaced, joined, tokens = [], [], iter(argv)
    for token in tokens:
        if token not in NUMERIC_FLAGS:
            spaced.append(token)
            joined.append(token)
            continue
        value = next(tokens)
        if draw(st.integers(0, 2)) == 2:  # the drawn value is kept in the simplest examples
            value = draw(SIGNED)
            if token == "--range":
                value += ":" + draw(st.one_of(SIGNED, FLOATS.map(repr)))
        spaced += [token, value]
        joined.append(f"{token}={value}")
    return spaced, joined, files


def test_both_spellings_of_a_numeric_flag_give_one_outcome(tmp_path):
    # a value after a space, -inf, -nan and -1e-3 among them, is read as the value after
    # an "=": the same exit code, stdout, stderr and warnings
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(spelled_argvs())
    def one(drawn):
        *forms, files = drawn
        outcomes = []
        for argv in forms:
            for name in ("data.csv", "density.csv", "rec.csv", "snaps.csv"):
                (tmp_path / name).unlink(missing_ok=True)
            for name, text in files.items():
                (tmp_path / name).write_text(text)
            outcomes.append(run([a.replace("DIR", str(tmp_path)) for a in argv]))
        assert outcomes[0] == outcomes[1], forms

    one()


# ---------------------------------------------------------------------------
# argvs that showed a fault, pinned


@pytest.mark.parametrize("argv", [
    # a live row whose class underflowed to 0 gave -inf - (-inf) = nan in the curvature
    ["fluct", "--model", "lattice_gas", "--param", "sites=53", "--y", "E=-208.54422196087228",
     "--y", "N=1e+308", "--squeeze", "tsallis", "--q", "10.0"],
    ["fluct", "--model", "einstein_solid", "--param", "N=7", "--param", "E_max=158",
     "--y", "E=1e+308"],
    # 2 ln w overflowed to -inf: right result, but a RuntimeWarning on stderr
    ["fluct", "--model", "two_level", "--y", "E=1e308"],
], ids=["underflow-q10", "underflow-identity", "overflow-2lnw"])
def test_frozen_directions_have_zero_variance(argv):
    code, out = check(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["singular"] is True
    assert all(v == 0.0 for v in doc["variances"].values())


@pytest.mark.parametrize("argv", [
    ["fluct", "--model", "two_level", "--param", "epsilon=1e+308", "--y", "E=-0.24684828229571654"],
    # q near 0: a curvature ~ q whose deformed reciprocal, or plain reciprocal, is beyond the range
    ["fluct", "--model", "einstein_solid", "--param", "N=7", "--param", "E_max=6", "--y", "E=0.0",
     "--squeeze", "tsallis", "--q", "2.850697146600174e-305"],
    ["fluct", "--model", "einstein_solid", "--param", "N=7", "--param", "E_max=6", "--y", "E=0.0",
     "--squeeze", "tsallis", "--q", "1e-310"],
], ids=["curvature", "scaled-reciprocal", "reciprocal"])
def test_moments_beyond_the_float_range_are_a_domain_error(argv):
    code, out, err, runtime = run(argv)
    assert (code, out, runtime) == (5, "", [])
    assert json.loads(err.strip().splitlines()[-1])["error"]["type"] == "SqueezeDomainError"


def test_curvature_with_a_beyond_the_float_range_ends_cleanly():
    # 10,001 classes of 1: (q - 1) ln T = 727 puts a = q T^(q-1) beyond the float range, and
    # math.exp raised OverflowError (exit 1); C is q T^(1-q) Var(E) at 50 digits, here read
    # from subnormal weights P^q ~ 1e-320
    code, out = check(["fluct", "--model", "einstein_solid", "--param", "N=1", "--param", "E_max=10000",
                       "--y", "E=0", "--squeeze", "tsallis", "--q", "80"])
    assert code == 0
    assert json.loads(out)["G_inv"] == [[pytest.approx(6.6155329410505799e-308, rel=1e-3, abs=0.0)]]


@pytest.mark.parametrize("argv", [
    # ln w = -ln T + ln c below -max float: a zero weight, but an overflow warning
    ["compute", "--model", "spin_half_paramagnet", "--param", "N=1", "--y", "M=1e+308"],
    # np.linspace overflows on the last point, which it then sets to hi
    ["sweep", "--model", "lattice_gas", "--param", "sites=0", "--y", "E=0.0", "--y", "N=0.0",
     "--axis", "E", "--range", "0.0:1.7976931348623157e+308", "--steps", "4"],
], ids=["mean-weight", "linspace"])
def test_exact_limits_beyond_the_float_range_warn_nothing(argv):
    assert check(argv)[0] == 0


@pytest.mark.parametrize("argv, message", [
    # a bracket beyond the float range: the trace printed max_rhs = inf
    (["kinetics", "--lattice-radius", "1", "--steps", "1", "--squeeze", "tsallis", "--q", "-30"],
     "collision rate beyond the float range"),
    # the RK4 stage sum overflowed: the right error, after a RuntimeWarning
    (["kinetics", "--lattice-radius", "2", "--steps", "1", "--squeeze", "tsallis", "--q", "-16.3"],
     "non-finite population after a step"),
], ids=["rate-inf", "stage-overflow"])
def test_kinetics_beyond_the_float_range_is_a_step_error(argv, message):
    code, out, err, runtime = run(argv)
    assert (code, out, runtime) == (5, "", [])
    error = json.loads(err.strip().splitlines()[-1])["error"]
    assert error["type"] == "StepSizeError" and message in error["message"]


@pytest.mark.parametrize("flag, text, extra, code", [
    # a nan beta passed every comparison: B printed nan
    ("--density", "beta,f\n0.0,0.0\n1.0,0.0\nnan,0.0\n0.0,0.0\n", [], 5),
    # the trapezoid norm overflowed: the right error, after a RuntimeWarning
    ("--density", "beta,f\n0.0,0.0\n10.0,1.797693134862316e+307\n", [], 5),
    # exp(-beta E) overflowed: B printed inf
    ("--density", "beta,f\n-1000.0,1.0\n-999.0,1.0\n", ["--energy", "1"], 5),
    # the cumulative trapezoid overflowed: the reconstructed table held inf
    ("--data", "ln_g,ratio\n0.0,1.0\n0.5,1.0\n1.0,5.674061770759722e+306\n27.0,8.045230386435792e+306\n",
     ["--reconstruct", "REC"], 5),
    # np.var overflowed on a finite grid: the right answer, after a RuntimeWarning
    ("--data", "ln_g,ratio\n0.0,1.0\n1.0,1.0\n2.0,1.0\n1.5482003035190317e+154,1.0\n", [], 0),
    # np.diff overflowed before the negative-count check
    ("--data", "ln_g,ratio\n-1e308,1\n1e308,1\n", [], 5),
], ids=["nan-beta", "norm-overflow", "factor-overflow", "reconstruct-overflow", "variance-overflow",
        "diff-overflow"])
def test_infer_beyond_the_float_range_ends_cleanly(tmp_path, flag, text, extra, code):
    data, rec = tmp_path / "data.csv", tmp_path / "rec.csv"
    data.write_text(text)
    assert check(["infer", flag, str(data), *(str(rec) if a == "REC" else a for a in extra)])[0] == code
    assert not rec.exists()
