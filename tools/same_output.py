"""Check that the CLI gives the same bytes as at a git revision.

    python tools/same_output.py REF

Runs each argv of ``benchmarks/workloads.cli_argvs`` for seeds 1-6, plus a
fixed list (``fluct`` with one and two variables at q = 1, 0.9, 0.2, 1.5
and 2.5 in JSON and CSV, which read the curvature on both sides of q = 1,
a pinned ``--X``, ``compute --rows`` and ``--emit-model``, ``compute
--emit-model`` under ``--squeeze tsallis --q 1``,
``compute --rows`` with 10 of 11 rows excluded (-inf and True cells), with ln g beyond the
float range, over 100,001 rows, over a non-integer site count (non-integer
g, and past 256 sites with its top rows as running sums) and over a model file with -0.0 cells, the two branches of the ``boltzmann_factor``
column, ``compute`` in CSV with a pinned ``--X`` (an empty cell), ``fluct`` in CSV along a
flat direction (inf and -0 cells), ``fluct`` at q = 70 over 10,001 rows of one state (the
means' product underflows), ``compute`` at sites = 1e300 and N = 1e300 (log-binomials
of k << n), ``sweep`` in CSV and JSON along a pinned axis (new rows at every point), ``sweep``
with a pinned ``--X`` along an exchanged axis (one restriction kept across the points) at
q = 1.5 in CSV and JSON and along the pinned axis over 30 sites, ``kinetics`` with snapshots, under the
soft xi at q = 0.8, at q = 0.7, at q = 2 with a trace and a snapshot period of which neither
divides the other, with no steps, with a trace period of 0 (alone and with snapshots) and at
an explicit dt below the step bound, ``infer --reconstruct``, a 3-variable model file with
a non-singular covariance through ``fluct`` and ``compute --rows``, the
same file carrying a tsallis ``squeeze`` fragment through both, ``fluct`` in
JSON and CSV over a 3-variable model file whose middle variable is 0 on every
row (a flat direction: the 2 x 2 block of the other two is inverted alone), and
``fluct`` in JSON and CSV at q = 1 and 1.5 over a 2-variable model file that
lists its variables out of sorted order, so the CLI reads the curvature's
columns permuted), once
on the working tree's ``src`` and once on REF's, extracted with ``git
archive``.  No argv writes a nan cell: the CLI refuses a NaN result (exit 5).  Each run starts in a fresh directory that
holds only its input files; the exit code, stdout and every file the run
writes there are compared byte for byte.  Prints one line per mismatch and
exits 1 if there is any, else exits 0.  Needs the standard library, local
git, and the packages the benchmark itself imports.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 7)

Case = tuple[str, list[str], dict[str, bytes]]  # (label, argv, {input file name: bytes})


def _ratios_csv(q: float) -> bytes:
    ln_g = [5.0 * k / 50 for k in range(51)]
    rows = [f"{g!r},{math.exp((1.0 - q) * g)!r}" for g in ln_g]
    return ("ln_g,ratio\n" + "\n".join(rows) + "\n").encode()


def _three_variable_model(**squeeze) -> bytes:
    """Model file over a, b, c in 0..3 with coupled degeneracies: C is 3x3 and non-singular.
    Keyword arguments, if any, are the file's ``squeeze`` fragment."""
    rows = [{"x": [float(a), float(b), float(c)], "ln_g": 0.25 * (a * b + b * c) + 0.5 * c}
            for a, b, c in itertools.product(range(4), repeat=3)]
    doc = {"variables": [{"name": n, "kind": "exchanged"} for n in "abc"], "rows": rows,
           "environment": {"y": {"a": 0.4, "b": 0.7, "c": 0.2}, "X": {}}}
    return json.dumps({**doc, "squeeze": squeeze} if squeeze else doc).encode()


def _flat_three_variable_model() -> bytes:
    """Model file over a, b, c with b = 0 on every row: C has an exactly zero middle row and
    column, a flat direction, so ``fluct`` inverts the 2 x 2 block of a and c."""
    rows = [{"x": [float(a), 0.0, float(c)], "ln_g": 0.25 * a * c + 0.5 * c}
            for a, c in itertools.product(range(4), range(5))]
    doc = {"variables": [{"name": n, "kind": "exchanged"} for n in "abc"], "rows": rows,
           "environment": {"y": {"a": 0.4, "b": 0.7, "c": 0.2}, "X": {}}}
    return json.dumps(doc).encode()


def _signed_zero_model() -> bytes:
    """Model file whose first row has x = -0.0 and ln g = -0.0, at y = -0.0: "-0" cells."""
    rows = [{"x": [x], "ln_g": g} for x, g in ((-0.0, -0.0), (1.0, 0.0), (2.0, 0.7), (3.0, 1.1))]
    doc = {"variables": [{"name": "E", "kind": "exchanged"}], "rows": rows,
           "environment": {"y": {"E": -0.0}, "X": {}}}
    return json.dumps(doc).encode()


def _permuted_model() -> bytes:
    """Model file over N and E, listed in that order, with coupled degeneracies: the CLI reads
    the exchanged names sorted, E then N, so its curvature reads the columns permuted."""
    rows = [{"x": [float(n), float(e)], "ln_g": 0.3 * n * e + 0.5 * n + 0.2 * e}
            for n, e in itertools.product(range(4), range(5))]
    doc = {"variables": [{"name": n, "kind": "exchanged"} for n in "NE"], "rows": rows,
           "environment": {"y": {"N": 0.3, "E": 0.6}, "X": {}}}
    return json.dumps(doc).encode()


def _fixed_cases() -> list[Case]:
    one = ["--model", "einstein_solid", "--param", "N=50", "--y", "E=0.3"]
    two = ["--model", "lattice_gas", "--param", "sites=30", "--y", "E=0.7", "--y", "N=0.2"]
    pinned = ["--model", "lattice_gas", "--param", "sites=10", "--y", "E=0.7", "--X", "N=2"]
    cases = []
    for model, flags in (("1var", one), ("2var", two)):
        for q in ("1", "0.9", "0.2", "1.5", "2.5"):
            family = [] if q == "1" else ["--squeeze", "tsallis", "--q", q]
            for fmt in ("json", "csv"):
                cases.append((f"fluct {model} q={q} {fmt}", ["fluct", *flags, *family, "--format", fmt], {}))
    sweep = ["sweep", *pinned, "--axis", "N", "--range", "0:4", "--steps", "5"]
    pinned_sweep = ["sweep", "--model", "lattice_gas", "--param", "sites=200", "--y", "E=0.1", "--X", "N=2",
                    "--axis", "E", "--range", "0.1:0.5", "--steps", "16", "--squeeze", "tsallis", "--q", "1.5"]
    cases += [
        ("compute pinned X", ["compute", *pinned], {}),
        ("fluct pinned X", ["fluct", *pinned, "--squeeze", "tsallis", "--q", "0.9"], {}),
        ("compute rows emit-model",
         ["compute", *two, "--squeeze", "tsallis", "--q", "0.9", "--rows", "rows.csv",
          "--emit-model", "model.json"], {}),
        ("compute rows excluded",
         ["compute", "--model", "einstein_solid", "--param", "N=3", "--param", "E_max=10", "--y", "E=5",
          "--squeeze", "tsallis", "--q", "0.5", "--rows", "rows.csv"], {}),
        ("compute rows ln g beyond float range",
         ["compute", "--model", "einstein_solid", "--param", "N=1000", "--param", "E_max=2000", "--y", "E=1",
          "--rows", "rows.csv"], {}),
        ("compute rows 100001 rows",
         ["compute", "--model", "spin_half_paramagnet", "--param", "N=100000", "--y", "M=0.001",
          "--squeeze", "tsallis", "--q", "1.5", "--rows", "rows.csv"], {}),
        ("compute rows non-integer g",
         ["compute", "--model", "lattice_gas", "--param", "sites=37.5", "--param", "N_max=30",
          "--y", "E=0.7", "--y", "N=-0.2", "--rows", "rows.csv"], {}),
        ("compute rows non-integer sites past 256",
         ["compute", "--model", "lattice_gas", "--param", "sites=1234.25", "--param", "N_max=1234",
          "--y", "E=0", "--y", "N=0.5", "--rows", "rows.csv"], {}),
        ("compute rows signed zeros", ["compute", "--model", "zeros.json", "--rows", "rows.csv"],
         {"zeros.json": _signed_zero_model()}),
        ("compute csv pinned X", ["compute", *pinned, "--format", "csv"], {}),
        ("fluct csv flat direction", ["fluct", *pinned, "--format", "csv"], {}),
        ("compute lattice_gas sites=1e300",
         ["compute", "--model", "lattice_gas", "--param", "sites=1e300", "--param", "N_max=3",
          "--y", "E=0", "--y", "N=0"], {}),
        ("fluct einstein_solid q=70 csv",  # a finite a, and <E>^2 alone underflows
         ["fluct", "--model", "einstein_solid", "--param", "N=1", "--param", "E_max=10000", "--y", "E=0",
          "--squeeze", "tsallis", "--q", "70", "--format", "csv"], {}),
        ("compute einstein_solid N=1e300",
         ["compute", "--model", "einstein_solid", "--param", "N=1e300", "--param", "E_max=3", "--y", "E=1"], {}),
        ("sweep csv", [*sweep, "--format", "csv"], {}),
        ("sweep json", sweep, {}),
        ("sweep q=0.2 json", ["sweep", *two, "--squeeze", "tsallis", "--q", "0.2", "--axis", "E",
                              "--range", "0.1:2", "--steps", "7"], {}),
        ("sweep pinned N along E q=1.5 csv", [*pinned_sweep, "--format", "csv"], {}),
        ("sweep pinned N along E q=1.5 json", pinned_sweep, {}),
        ("sweep along the pinned N",
         ["sweep", "--model", "lattice_gas", "--param", "sites=30", "--y", "E=0.1", "--X", "N=2", "--axis", "N",
          "--range", "2:20", "--steps", "10"], {}),
        ("kinetics snapshots",
         ["kinetics", "--lattice-radius", "2", "--steps", "60", "--trace-every", "10",
          "--snapshot-every", "20", "--snapshot-out", "snaps.csv", "--squeeze", "tsallis", "--q", "1.5"], {}),
        ("kinetics soft xi q=0.8",
         ["kinetics", "--lattice-radius", "3", "--xi", "soft", "--squeeze", "tsallis", "--q", "0.8"], {}),
        ("kinetics coprime periods q=2",
         ["kinetics", "--lattice-radius", "2", "--steps", "30", "--trace-every", "7", "--snapshot-every", "4",
          "--snapshot-out", "snaps.csv", "--squeeze", "tsallis", "--q", "2"], {}),
        ("kinetics steps=0", ["kinetics", "--lattice-radius", "2", "--steps", "0"], {}),
        ("kinetics trace-every=0", ["kinetics", "--lattice-radius", "2", "--steps", "50", "--trace-every", "0"], {}),
        ("kinetics trace-every=0 snapshots",
         ["kinetics", "--lattice-radius", "2", "--steps", "50", "--trace-every", "0", "--snapshot-every", "20",
          "--snapshot-out", "snaps.csv"], {}),
        ("kinetics dt below the bound",
         ["kinetics", "--lattice-radius", "2", "--dt", "0.002", "--steps", "200", "--trace-every", "25"], {}),
        ("kinetics q=0.7", ["kinetics", "--lattice-radius", "2", "--squeeze", "tsallis", "--q", "0.7"], {}),
        ("infer reconstruct", ["infer", "--data", "ratios.csv", "--reconstruct", "ln_h.csv"],
         {"ratios.csv": _ratios_csv(1.3)}),
        ("compute tsallis q=1 emit-model",
         ["compute", "--model", "two_level", "--y", "E=1", "--squeeze", "tsallis", "--q", "1",
          "--emit-model", "model.json"], {}),
    ]
    three = {"model3.json": _three_variable_model()}
    for fmt in ("json", "csv"):
        cases.append((f"fluct 3var {fmt}", ["fluct", "--model", "model3.json", "--format", fmt], three))
    cases += [
        ("fluct 3var q=0.9 json", ["fluct", "--model", "model3.json", "--squeeze", "tsallis", "--q", "0.9"], three),
        ("compute 3var rows", ["compute", "--model", "model3.json", "--rows", "rows.csv"], three),
    ]
    flat = {"model3flat.json": _flat_three_variable_model()}
    for fmt in ("json", "csv"):
        cases.append((f"fluct 3var flat middle {fmt}", ["fluct", "--model", "model3flat.json", "--format", fmt], flat))
    permuted = {"model_ne.json": _permuted_model()}
    for q in ("1", "1.5"):
        family = [] if q == "1" else ["--squeeze", "tsallis", "--q", q]
        for fmt in ("json", "csv"):
            cases.append((f"fluct permuted columns q={q} {fmt}",
                          ["fluct", "--model", "model_ne.json", *family, "--format", fmt], permuted))
    fragment = {"model3q.json": _three_variable_model(family="tsallis", q=1.2)}
    cases += [
        ("compute 3var file q=1.2 rows", ["compute", "--model", "model3q.json", "--rows", "rows.csv"], fragment),
        ("fluct 3var file q=1.2", ["fluct", "--model", "model3q.json"], fragment),
    ]
    return cases


def _benchmark_cases(scratch: Path) -> list[Case]:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import cli_argvs  # the benchmark's own argvs, as it runs them

    cases = []
    for seed in SEEDS:
        inputs = scratch / f"inputs-{seed}"
        inputs.mkdir()
        argvs = cli_argvs(seed, inputs)
        files = {p.name: p.read_bytes() for p in inputs.iterdir()}
        prefix = str(inputs) + os.sep
        for k, argv in enumerate(argvs):
            cases.append((f"cli_argvs seed {seed} #{k} {argv[0]}", [a.replace(prefix, "") for a in argv], files))
    return cases


def _run(src: Path, workdir: Path, argv: list[str], inputs: dict[str, bytes]) -> tuple:
    workdir.mkdir(parents=True)
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sqzstat", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    written = {str(p.relative_to(workdir)): p.read_bytes() for p in sorted(workdir.rglob("*"))
               if p.is_file() and inputs.get(p.name) != p.read_bytes()}
    return proc.returncode, proc.stdout, written


def _differences(ref: tuple, tree: tuple) -> list[str]:
    out = []
    if ref[0] != tree[0]:
        out.append(f"exit code {ref[0]} -> {tree[0]}")
    if ref[1] != tree[1]:
        out.append("stdout differs")
    for name in sorted(ref[2].keys() | tree[2].keys()):
        if ref[2].get(name) != tree[2].get(name):
            out.append(f"file {name} differs" if name in ref[2] and name in tree[2]
                       else f"file {name} written by one side only")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_output.py REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        scratch = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(scratch / "ref", filter="data")
        sides = {"ref": scratch / "ref" / "src", "tree": ROOT / "src"}
        cases = _fixed_cases() + _benchmark_cases(scratch)
        mismatches = 0
        for i, (label, args, inputs) in enumerate(cases):
            results = [_run(src, scratch / side / f"run-{i}", args, inputs) for side, src in sides.items()]
            for diff in _differences(*results):
                mismatches += 1
                print(f"MISMATCH {label}: {diff}  (argv: {' '.join(args)})")
        print(f"{len(cases)} argvs against {ref}: {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
