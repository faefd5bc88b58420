"""The CLI under drawn argvs, run in-process through ``cli.main``.

Hypothesis draws ``compute``, ``fluct`` and ``sweep`` argvs over the four
built-in models: extreme and signed-zero y values, a pinned ``--X N``,
q from 0 to 10 and out-of-range model parameters.  Every argv must end
in a documented exit code with no exception and no RuntimeWarning, and a
successful run must print parseable output with no nan; the only inf is
the condition number and the intensive variances of a singular
fluctuation report.  The draws are derandomized, so the suite is
reproducible.  The argvs that first showed a fault are pinned below."""

import contextlib
import csv
import io
import json
import math
import warnings

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
SIZES = st.integers(0, 60)


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
    kind = draw(st.sampled_from(["default", "identity", "tsallis"]))
    if kind == "default":
        return []
    if kind == "identity":
        return ["--squeeze", "identity"]
    q = draw(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0])))
    return ["--squeeze", "tsallis", "--q", repr(q)]


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
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
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


@pytest.mark.parametrize("argv", [
    # ln w = -ln T + ln c below -max float: a zero weight, but an overflow warning
    ["compute", "--model", "spin_half_paramagnet", "--param", "N=1", "--y", "M=1e+308"],
    # np.linspace overflows on the last point, which it then sets to hi
    ["sweep", "--model", "lattice_gas", "--param", "sites=0", "--y", "E=0.0", "--y", "N=0.0",
     "--axis", "E", "--range", "0.0:1.7976931348623157e+308", "--steps", "4"],
], ids=["mean-weight", "linspace"])
def test_exact_limits_beyond_the_float_range_warn_nothing(argv):
    assert check(argv)[0] == 0
