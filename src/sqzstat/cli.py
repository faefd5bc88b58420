"""Command-line front end.

Subcommands: compute (thermodynamic report for a model/ensemble), fluct
(second moments), kinetics (deformed lattice relaxation trace), infer
(statistics from ratio data, mixing-density quadrature), sweep (scan
one environment variable).

Exit codes: 0 success; 2 usage errors (argparse); 3 file/config errors;
4 model validation errors; 5 numerical domain errors.  Failures print a
one-line JSON error object to stderr.  Outputs are deterministic:
identical invocations produce bit-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import _jsonfmt
from .errors import (
    DatasetError,
    DegenerateEnsembleError,
    ModelValidationError,
    SqueezeDomainError,
    StepSizeError,
)
from .squeeze import SqueezeFamily


EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_MODEL = 4
EXIT_NUMERIC = 5

EPILOG = """\
exit codes:
  0  success
  2  usage errors (bad flags)
  3  file or configuration errors
  4  model validation errors
  5  numerical domain errors (cutoff-degenerate ensembles, unstable steps, bad datasets,
     sizes whose arrays cannot be allocated)

all run configuration is flags; no environment variable is read.
"""


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts like a negative number (-1e-3, -.5, -0.5:1.5, and
    the words float() reads: -inf, -infinity and -nan in any case, alone or before a
    range's colon) as a value, never as a flag; subparsers are built with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)(:|$))", re.IGNORECASE)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_kv(pairs: list[str], flag: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise CliError(EXIT_CONFIG, f"{flag} expects name=value, got {item!r}")
        name, _, val = item.partition("=")
        if (name := name.strip()) in out:
            raise CliError(EXIT_CONFIG, f"{flag} {name} is given more than once")
        try:
            out[name] = float(val)
        except ValueError:
            raise CliError(EXIT_CONFIG, f"{flag} {name}: {val!r} is not a number") from None
    return out


def _family_from_args(args, fallback: SqueezeFamily | None = None) -> SqueezeFamily:
    if args.q is not None and args.squeeze != "tsallis":
        raise CliError(EXIT_CONFIG, "--q applies only with --squeeze tsallis")
    if args.squeeze is None and fallback is not None:
        return fallback
    name = args.squeeze or "identity"
    if name == "identity":
        return SqueezeFamily.identity()
    if args.q is None:
        raise CliError(EXIT_CONFIG, "--squeeze tsallis requires --q")
    return SqueezeFamily.tsallis(args.q)


def _load_model(args):
    """Model source resolution: registry name or JSON file, exactly one."""
    from .engine import EnsembleSpec, model_from_json_dict
    from .models import MODELS, build_model

    source = args.model
    if source is None:
        raise CliError(EXIT_CONFIG, "--model is required")
    y = _parse_kv(args.y, "--y")
    X = _parse_kv(args.X, "--X")
    if source in MODELS:
        params = _parse_kv(args.param, "--param")
        spectrum = build_model(source, params)
        env = EnsembleSpec(fixed_intensive=y, fixed_extensive=X)
        family = _family_from_args(args)
        return spectrum, env, family
    path = Path(source)
    if not path.exists():
        raise CliError(
            EXIT_CONFIG, f"--model {source!r} is neither a known model nor an existing file"
        )
    if args.param:
        raise CliError(EXIT_CONFIG, "--param applies only to named models")
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise CliError(EXIT_CONFIG, f"cannot read model file {source!r}: {exc}") from exc
    spectrum, env, family = model_from_json_dict(doc)
    if y or X:
        env = EnsembleSpec({**env.fixed_intensive, **y}, {**env.fixed_extensive, **X})
    family = _family_from_args(args, fallback=family)
    return spectrum, env, family


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(columns: dict) -> str:
    """CSV text of {header: column}, the columns equal-length sequences.  A row is one %-format
    built once: "%.17g" (round-trip exact) for a column whose first cell is a float, "%s" (str)
    for any other, so a column must not mix floats with other types."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    row = ",".join("%.17g" if c and isinstance(c[0], float) else "%s" for c in cols)
    return "\n".join([",".join(columns), *map(row.__mod__, zip(*cols))]) + "\n"


def _points_csv(rows: list[dict]) -> str:
    """CSV of point rows; an undefined entropy_theta (None) is an empty cell."""
    return _csv({k: ["" if row[k] is None else row[k] for row in rows] for k in rows[0]})


def _point_row(report, extra: dict | None = None) -> dict:
    p = report.point
    return {**(extra or {}), "phi": p.phi, "entropy_J": p.entropy_J, "entropy_theta": p.entropy_theta,
            **{f"observed_{name}": p.observed[name] for name in sorted(p.observed)}}


# ---------------------------------------------------------------------------
# subcommands

def cmd_compute(args) -> int:
    from .engine import model_to_json_dict, report_for

    spectrum, env, family = _load_model(args)
    if args.emit_model:
        doc = model_to_json_dict(spectrum, env, family)
        Path(args.emit_model).write_text(_jsonfmt.dumps(doc, indent=2) + "\n")
    report = report_for(spectrum, env, family)
    if args.rows:
        Path(args.rows).write_text(_csv(report.columns()))
    if args.format == "csv":
        _emit(_points_csv([_point_row(report)]), args.out)
    else:
        _emit(_jsonfmt.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_fluct(args) -> int:
    from .engine import phi_surface_from_spectrum
    from .fluctuation import moments

    spectrum, env, family = _load_model(args)
    if not env.fixed_intensive:
        raise CliError(EXIT_CONFIG, "fluct needs at least one exchanged (--y) variable")
    surface = phi_surface_from_spectrum(spectrum, env, family)
    rep = moments(surface, env.values(), sorted(env.fixed_intensive), family)
    if args.format == "csv":
        names = rep.variable_names
        cells = [("variance", n, v) for n, v in sorted(rep.variances.items())]
        cells += [("intensive_variance", n, v) for n, v in sorted(rep.intensive_variances.items())]
        cells += [("covariance", f"{a}:{b}", v) for (a, b), v in sorted(rep.covariances.items())]
        for i, ni in enumerate(names):
            for j, nj in enumerate(names):
                pair = f"{ni}:{nj}"
                cells += [("G", pair, rep.G[i, j]), ("G_inv", pair, rep.G_inv[i, j])]
        _emit(_csv(dict(zip(("block", "name", "value"), zip(*cells)))), args.out)
    else:
        _emit(_jsonfmt.dumps(rep.to_json_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_kinetics(args) -> int:
    from .kinetics import (TRACE_COLUMNS, XI_CHOICES, build_collision_network, make_lattice,
                           random_state, run_trace, stability_dt)

    if args.lattice_radius < 1:
        raise CliError(EXIT_CONFIG, "--lattice-radius must be >= 1")
    if min(args.steps, args.trace_every, args.seed) < 0:
        raise CliError(EXIT_CONFIG, "--steps, --trace-every and --seed must be >= 0")
    if (args.snapshot_every is None) != (args.snapshot_out is None):
        raise CliError(EXIT_CONFIG, "--snapshot-every and --snapshot-out must be given together")
    if args.snapshot_every is not None and args.snapshot_every < 1:
        raise CliError(EXIT_CONFIG, "--snapshot-every must be >= 1")
    family = _family_from_args(args)
    lattice = make_lattice(args.lattice_radius)
    net = build_collision_network(lattice).with_xi(XI_CHOICES[args.xi])
    state = random_state(lattice, seed=args.seed)
    dt = args.dt if args.dt is not None else stability_dt(state, net, family)
    trace_every, snap_every = args.trace_every, args.snapshot_every or 0
    trace, snaps = [], []
    # run_trace yields at the multiples of both periods' gcd; each list keeps its own steps
    for k, s, row in run_trace(state, net, family, dt, args.steps, math.gcd(trace_every, snap_every)):
        if k in (0, args.steps) or trace_every and k % trace_every == 0:
            trace.append(row)
        if snap_every and (k % snap_every == 0 or k == args.steps):
            snaps.append(s)
    if args.snapshot_out is not None:
        v = lattice.velocities.astype(int)
        Path(args.snapshot_out).write_text(_csv({
            "t": np.repeat([s.t for s in snaps], lattice.n), "vx": np.tile(v[:, 0], len(snaps)),
            "vy": np.tile(v[:, 1], len(snaps)), "F": np.concatenate([s.F for s in snaps]),
        }))
    _emit(_csv(dict(zip(TRACE_COLUMNS, zip(*trace)))), args.out)
    return EXIT_OK


def _read_csv_columns(path: str, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    p = Path(path)
    if not p.exists():
        raise CliError(EXIT_CONFIG, f"data file {path!r} does not exist")
    try:
        lines = [ln.strip() for ln in p.read_text(encoding="utf-8-sig").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_CONFIG, f"cannot read data file {path!r}: {exc}") from None
    if not lines:
        raise CliError(EXIT_CONFIG, f"data file {path!r} is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header != list(names):
        raise CliError(
            EXIT_CONFIG, f"data file {path!r} must have header {','.join(names)!r}, got {lines[0]!r}"
        )
    a, b = [], []
    for ln in lines[1:]:
        try:
            u, v = map(float, ln.split(","))  # a wrong cell count is a ValueError too
        except ValueError:
            raise CliError(EXIT_CONFIG, f"bad data row {ln!r} in {path!r}") from None
        a.append(u)
        b.append(v)
    return np.array(a), np.array(b)


def _energy_key(e: float) -> str:
    """format(e, "g") where it reads back as e, else repr(e): distinct energies get distinct keys."""
    short = format(e, "g")
    return short if float(short) == e else repr(e)


def cmd_infer(args) -> int:
    from .inference import EquilibriumDataset, estimate_q, reconstruct_squeeze, superstatistics_forward

    out_doc: dict = {}
    if not args.data and not args.density:
        raise CliError(EXIT_CONFIG, "infer needs --data and/or --density")
    if args.reconstruct and not args.data:
        raise CliError(EXIT_CONFIG, "--reconstruct applies only with --data")
    if args.energy and not args.density:
        raise CliError(EXIT_CONFIG, "--energy applies only with --density")
    if args.data:
        ln_g, ratio = _read_csv_columns(args.data, ("ln_g", "ratio"))
        data = EquilibriumDataset(ln_g=ln_g, ratio=ratio)
        est = estimate_q(data)
        out_doc.update(q=est.q, residual=est.residual, power_law=est.power_law)
        if args.reconstruct:
            grid, ln_h = reconstruct_squeeze(data)
            Path(args.reconstruct).write_text(_csv({"ln_g": grid, "ln_h": ln_h}))
    if args.density:
        beta, f = _read_csv_columns(args.density, ("beta", "f"))
        energies = args.energy or [0.0]
        out_doc["B"] = {_energy_key(e): superstatistics_forward(beta, f, e) for e in energies}
    _emit(_jsonfmt.dumps(out_doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .engine import EnsembleSpec, report_for

    spectrum, env, family = _load_model(args)
    try:
        lo_s, _, hi_s = args.range.partition(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise CliError(EXIT_CONFIG, f"--range expects lo:hi, got {args.range!r}") from None
    if not np.isfinite(hi - lo):  # also a nan or inf end: the grid would hold values never given
        raise ModelValidationError(f"--range {args.range!r} does not span a finite interval")
    if args.steps < 2:
        raise CliError(EXIT_CONFIG, "--steps must be >= 2 for a sweep")
    axis = args.axis
    in_y = axis in env.fixed_intensive
    in_X = axis in env.fixed_extensive
    if not (in_y or in_X):
        raise CliError(EXIT_CONFIG, f"sweep axis {axis!r} is not an environment variable")
    rows = []
    with np.errstate(over="ignore"):  # the last point may overflow; linspace then sets it to hi
        try:
            grid = np.linspace(lo, hi, args.steps)
        except ValueError as exc:  # more steps than numpy can index: a size it refuses, as MemoryError
            raise MemoryError(f"Unable to allocate {args.steps:.3g} sweep steps: {exc}") from None
    for value in grid:
        y = dict(env.fixed_intensive)
        X = dict(env.fixed_extensive)
        (y if in_y else X)[axis] = float(value)
        e = EnsembleSpec(fixed_intensive=y, fixed_extensive=X)
        report = report_for(spectrum, e, family)
        rows.append(_point_row(report, extra={axis: float(value)}))
    if args.format == "json":
        _emit(_jsonfmt.dumps(rows, indent=2) + "\n", args.out)
    else:
        _emit(_points_csv(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="named model or path to a model JSON file")
    p.add_argument("--param", action="append", metavar="K=V", help="model parameter (repeatable)")
    p.add_argument("--y", action="append", metavar="K=V", help="fixed intensive value (repeatable)")
    p.add_argument("--X", action="append", metavar="K=V", help="fixed extensive value (repeatable)")
    _add_family_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--squeeze", choices=["identity", "tsallis"], help="statistics family")
    p.add_argument("--q", type=float, help="entropic index for --squeeze tsallis")
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqzstat",
        description="generalized-ensemble thermostatistics engine",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="thermodynamic report for one ensemble")
    _add_model_flags(p)
    p.add_argument("--rows", help="also write the per-subclass CSV table here")
    p.add_argument("--emit-model", help="write the resolved model JSON here")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("fluct", help="second moments around the state")
    _add_model_flags(p)
    p.set_defaults(func=cmd_fluct)

    p = sub.add_parser("kinetics", help="relax a lattice gas of deformed collisions")
    p.add_argument("--lattice-radius", type=int, default=2)
    p.add_argument("--dt", type=float, help="RK4 step (default: stability bound)")
    p.add_argument("--steps", type=int, default=1000)
    # sorted(kinetics.XI_CHOICES), spelled out so that parsing does not import kinetics
    p.add_argument("--xi", choices=["one", "soft"], default="one")
    p.add_argument("--trace-every", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed for the random initial populations")
    p.add_argument("--snapshot-every", type=int, help="per-velocity snapshots every N steps (with --snapshot-out)")
    p.add_argument("--snapshot-out", help="snapshot CSV path (with --snapshot-every)")
    _add_family_flags(p)
    p.set_defaults(func=cmd_kinetics)

    p = sub.add_parser("infer", help="statistics inference from measurement data")
    p.add_argument("--data", help="CSV with header ln_g,ratio")
    p.add_argument("--reconstruct", help="write the reconstructed ln_h table here (with --data)")
    p.add_argument("--density", help="CSV with header beta,f for the mixing quadrature")
    p.add_argument("--energy", type=float, action="append", help="energy for --density (repeatable)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("sweep", help="scan one environment variable")
    _add_model_flags(p)
    p.add_argument("--axis", required=True, help="environment variable to sweep")
    p.add_argument("--range", required=True, metavar="LO:HI")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


_ERROR_CODES = [
    (ModelValidationError, EXIT_MODEL),
    ((DegenerateEnsembleError, SqueezeDomainError, StepSizeError, DatasetError, MemoryError), EXIT_NUMERIC),
    (OSError, EXIT_CONFIG),
]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map to documented exit codes; a CliError carries its own
        code = exc.code if isinstance(exc, CliError) else next(
            (mapped for classes, mapped in _ERROR_CODES if isinstance(exc, classes)), None)
        if code is None:
            raise
        err = {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(_jsonfmt.dumps(err) + "\n")
        return code

