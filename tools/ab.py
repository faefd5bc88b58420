"""Paired A/B runs of the benchmark: REF's ``src/`` against the working tree's.

    python3 tools/ab.py REF --workload ensemble_small cli_oneshot --pairs 10 --seconds 20 --out BENCH.json

REF's ``src/`` is extracted with ``git archive``; the working tree's ``src/``
is copied, and each side gets a copy of the working tree's ``benchmarks/``,
so only ``src/`` differs.  Each pair runs ``benchmarks/run.py --trace 0``
once per side and workload, and the side that runs first alternates from
pair to pair.  For each workload and each end-to-end metric of
``BENCHMARK.json`` the output holds each side's median and quartiles, REF's
interquartile range, the ratio of the medians and the number of pairs the
tree won, over all pairs and for each run order apart, plus every run's
values and a stamp: python and numpy versions, nproc, the commit of HEAD
and of REF, whether ``src/`` differs from HEAD, and a sha256 of each side's
``src/`` (the digest ``run.py`` stamps).  Needs the standard library, local
git and what the benchmark imports.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("ref", "tree")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_summary(ref: list[float], tree: list[float], better: str) -> dict:
    """Pair statistics of one metric; ``ref[i]`` and ``tree[i]`` come from pair i.
    A pair is won when the tree is strictly better; ``beyond_ref_iqr`` says whether
    the median moved the better way by more than REF's interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    (r1, rm, r3), (t1, tm, t3) = quartiles(ref), quartiles(tree)
    return {
        "pairs": len(ref),
        "won": sum(sign * (t - r) > 0 for r, t in zip(ref, tree)),
        "ref": {"median": rm, "q1": r1, "q3": r3},
        "tree": {"median": tm, "q1": t1, "q3": t3},
        "ref_iqr": r3 - r1,
        "ratio": tm / rm if rm else None,
        "beyond_ref_iqr": sign * (tm - rm) > r3 - r1,
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """{metric: {"better", "all", "ref_first", "tree_first"}} from runs of
    {"first": side, "ref": {metric: value}, "tree": {metric: value}}."""
    groups = {"all": runs, **{f"{s}_first": [r for r in runs if r["first"] == s] for s in SIDES}}
    out = {}
    for name, direction in better.items():
        out[name] = {"better": direction}
        for label, chosen in groups.items():
            if chosen:
                out[name][label] = metric_summary([r["ref"][name] for r in chosen],
                                                  [r["tree"][name] for r in chosen], direction)
    return out


def src_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "sqzstat").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _prepare(scratch: Path, ref: str) -> dict[str, Path]:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(scratch / "ref", filter="data")
    shutil.copytree(ROOT / "src", scratch / "tree" / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for side in SIDES:
        shutil.copytree(ROOT / "benchmarks", scratch / side / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return {side: scratch / side for side in SIDES}


def _run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", repr(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {side} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {n: m["value"] for n, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"], "correct": result["correct"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="git revision whose src/ is the reference side")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    import numpy

    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    stamp = {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
             "git_sha": _git("rev-parse", "HEAD"), "ref_sha": _git("rev-parse", f"{args.ref}^{{commit}}"),
             "src_differs_from_head": bool(_git("status", "--porcelain", "--", "src"))}
    runs = {w: [] for w in args.workload}
    totals = {w: {side: {"attempted": 0, "failed": 0, "correct": True} for side in SIDES} for w in runs}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = _prepare(Path(tmp), args.ref)
        stamp["src_sha256"] = {side: src_sha256(path / "src") for side, path in sides.items()}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in runs:
                run = {"pair": i, "first": order[0]}
                for side in order:
                    result = _run(sides[side], w, args.seed, args.seconds)
                    run[side] = result["metrics"]
                    for k in ("attempted", "failed"):
                        totals[w][side][k] += result[k]
                    totals[w][side]["correct"] &= result["correct"]
                    print(f"pair {i} {w} {side}: " + " ".join(f"{n}={v:.6g}" for n, v in run[side].items()),
                          file=sys.stderr)
                runs[w].append(run)
    doc = {"ref": args.ref, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs, "stamp": stamp,
           "workloads": {w: {"totals": totals[w], "runs": runs[w],
                             "metrics": summarize(runs[w], {n: d for n, d in better.items() if n in runs[w][0]["ref"]})}
                         for w in runs}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            a = m["all"]
            ratio = "-" if a["ratio"] is None else f"{a['ratio']:.4f}"
            print(f"{w:<15} {name:<12} ref {a['ref']['median']:.6g} (IQR {a['ref_iqr']:.3g})  tree "
                  f"{a['tree']['median']:.6g}  ratio {ratio}  won {a['won']}/{a['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
