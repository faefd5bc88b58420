"""sqzstat benchmark: four seeded, closed-loop, single-client workloads.

    python3 benchmarks/run.py --workload ensemble_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the package is taken from ``src/``; it
need not be installed).  ``--workload all`` runs the four in turn.

With ``--trace 0`` the end-to-end metrics are measured: set-up time (the
median of three fresh processes, from process start to the first timed
op), successful ops per second of timed wall time, median and tail op
latency, and peak resident memory.  With ``--trace 1`` the same workload
runs twice more, half the time each: once plain and once with a span
recorder around every public function of the package, and the per-layer
metrics come from the spans.  The difference in ops per second between
the two halves is the tracing overhead.

Every op's output is verified outside the timed region (see
workloads.py).  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The full record, with the stamp (seed, versions, thread settings, the
tail percentile and its sample count), goes to .bench_out/.

Each worker process (and each ``python -m sqzstat`` child) runs with one
BLAS thread: see NOTES.md for why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ensemble_small", "ensemble_large", "kinetics_relax", "cli_oneshot")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


# -- worker (one fresh process per set-up sample or timed loop) ----------


def worker(args) -> dict:
    import warnings

    warnings.simplefilter("ignore")  # StabilityWarning per fluct op would flood stderr

    import workloads
    from harness import OpLog, Tracer

    tracer = None
    if args.traced:
        import layers

        tracer = Tracer()
        layers.install(tracer)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.worker](args.seed, workdir, inprocess=args.inprocess)
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if args.setup_only:
            return result
        log = OpLog()
        cycles = 0
        # whole cycles, so every run measures the same mix of ops
        while cycles == 0 or log.timed_s < args.seconds:
            for i, op in enumerate(ops):
                log.run(i, op, tracer)
            cycles += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    children = args.worker == "cli_oneshot" and not args.inprocess
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    by_label: dict = {}
    for i, ts in log.latencies.items():
        by_label.setdefault(ops[i].label, []).extend(ts)
    result.update(
        attempted=log.attempted, failed=log.failed, failures=dict(log.failures),
        correct=log.correct, timed_s=log.timed_s, cycles=cycles, ops_per_cycle=len(ops),
        end_to_end=log.end_to_end() if log.ok_latencies else None,
        p50_ms_by_label={k: statistics.median(v) * 1e3 for k, v in sorted(by_label.items())},
        verification={"checked": log.checked, "repeats_identical": log.repeats_identical,
                      "problems": log.problems[:10], "notes": len(log.notes),
                      "note_examples": log.notes[:3]},
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        versions=_versions(),
    )
    if tracer is not None:
        result["layers"] = layers.metrics(tracer, log.attempted)
        result["spans"] = len(tracer)
        _save_spans(tracer, OUT / f"spans-{args.worker}-seed{args.seed}.npz")
    return result


def _versions() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        openblas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _save_spans(tr, path: Path) -> None:
    import numpy as np

    np.savez(path, names=np.array(tr.names), name=np.asarray(tr.name), start_ns=np.asarray(tr.start),
             end_ns=np.asarray(tr.end), parent=np.asarray(tr.parent), op=np.asarray(tr.op),
             tag=np.asarray(tr.tag), aux=np.asarray(tr.aux), error=np.asarray(tr.error))


# -- the command: spawn workers, aggregate, print -------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(workload: str, seed: int, seconds: float, *, traced=False, setup_only=False,
          inprocess=False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only + ["--inprocess"] * inprocess
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=_env(),
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def _wall(args: list) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=_env(), check=True, capture_output=True,
                   timeout=120, cwd=ROOT)
    return time.perf_counter() - t0


def _scipy_import_ms() -> float:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sqzstat.cli"],
                          env=_env(), check=True, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            mod = parts[2].strip()
            if mod == "scipy" or mod.startswith("scipy."):
                total_us += int(parts[0].split(":")[1])
    return total_us / 1e3


def cli_probes() -> dict:
    """Fresh-process start-up costs of the command-line interface."""
    interp = statistics.median(_wall(["-c", "pass"]) for _ in range(5))
    imported = statistics.median(_wall(["-c", "import sqzstat.cli"]) for _ in range(5))
    return {"cli.interpreter_ms": interp * 1e3, "cli.import_ms": (imported - interp) * 1e3,
            "cli.import_ms.scipy": statistics.median(_scipy_import_ms() for _ in range(3))}


def _git_sha():
    if not (ROOT / ".git").exists():  # a plain checkout: do not report an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sqzstat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    stamp = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
             "git_sha": _git_sha(), "src_sha256": _src_sha256(), "nproc": os.cpu_count(),
             "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}
    if not trace:
        setups = [spawn(name, seed, seconds, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(name, seed, seconds)
        workers = [main]
        setups.append(main["setup_s"])
        e2e = main["end_to_end"]
        if e2e is None:
            raise BenchError(f"{name}: no op succeeded")
        metrics = {"setup_s": statistics.median(setups), "ops_per_s": e2e["ops_per_s"],
                   "op_p50_ms": e2e["op_p50_ms"], "op_tail_ms": e2e["op_tail_ms"],
                   "peak_rss_mb": main["peak_rss_mb"]}
        units = dict(END_TO_END)
        stamp.update(setup_s_samples=setups, tail=e2e["tail"], raw_latency=e2e["raw"],
                     tracing_overhead=None)
    else:
        import layers

        inprocess = name == "cli_oneshot"
        plain = spawn(name, seed, seconds / 2, inprocess=inprocess)
        traced = spawn(name, seed, seconds / 2, traced=True, inprocess=inprocess)
        workers = [plain, traced]
        if plain["end_to_end"] is None or traced["end_to_end"] is None:
            raise BenchError(f"{name}: no op succeeded")
        untraced_rate = plain["end_to_end"]["ops_per_s"]
        traced_rate = traced["end_to_end"]["ops_per_s"]
        overhead = 1.0 - traced_rate / untraced_rate
        metrics = dict(traced["layers"])
        metrics.update({"trace.ops_per_s.untraced": untraced_rate,
                        "trace.ops_per_s.traced": traced_rate, "trace.overhead_frac": overhead})
        cli = dict.fromkeys((n for n, _ in layers.metric_names() if n.startswith("cli.")), 0.0)
        if inprocess:
            cli.update(cli_probes())
            for sub, ms in plain["p50_ms_by_label"].items():
                cli[f"cli.main_ms.{sub}"] = ms
        metrics.update(cli)
        units = dict(layers.metric_names())
        metrics = {n: metrics[n] for n in units}
        stamp.update(spans=traced["spans"],
                     tracing_overhead={"ops_per_s_untraced": untraced_rate,
                                       "ops_per_s_traced": traced_rate, "frac": overhead})
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures: dict = {}
    for w in workers:
        for k, v in w["failures"].items():
            failures[k] = failures.get(k, 0) + v
    stamp.update(
        workers[-1]["versions"], cycles=[w["cycles"] for w in workers],
        ops_per_cycle=workers[-1]["ops_per_cycle"], timed_s=[w["timed_s"] for w in workers],
        failed_frac=failed / attempted, failures=failures,
        verification=[w["verification"] for w in workers],
    )
    return {"stamp": stamp, "correct": all(w["correct"] for w in workers), "attempted": attempted,
            "failed": failed, "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def summary(rec: dict) -> str:
    st = rec["stamp"]
    lines = [f"== {st['workload']}  seed {st['seed']}  seconds {st['seconds']}  trace {st['trace']}"]
    for n, m in rec["metrics"].items():
        note = ""
        if n == "setup_s":
            note = f"median of {len(st['setup_s_samples'])} fresh processes"
        elif n == "op_tail_ms":
            t = st["tail"]
            note = f"p{t['percentile']:g} of {t['samples']} successful ops"
            note += "" if t["rule_met"] else " (fewer than 10 beyond any percentile)"
        lines.append(f"  {n:<44} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    lines.append(f"  {'failed_frac':<44} {st['failed_frac']:>14.6g} ratio  "
                 f"{rec['failed']} of {rec['attempted']} ops {st['failures'] or ''}".rstrip())
    for v in st["verification"]:
        lines.append(f"  verification: {v['checked']} op outputs checked against oracles, "
                     f"{v['repeats_identical']} repeats bit-identical, "
                     f"{len(v['problems'])} problems, {v['notes']} checks limited by "
                     "finite-difference rounding")
        lines += [f"    problem: {p}" for p in v["problems"]]
    if st.get("tracing_overhead"):
        o = st["tracing_overhead"]
        lines.append(f"  tracing overhead: {o['ops_per_s_untraced']:.6g} -> "
                     f"{o['ops_per_s_traced']:.6g} ops/s ({100 * o['frac']:.1f}%)")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sqzstat" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sqzstat'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(rec, indent=1) + "\n")
            print(summary(rec))
            print("stamp: " + json.dumps(rec["stamp"], sort_keys=True))
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['stamp']['workload']}.{n}": m for r in records for n, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records), "metrics": metrics}))
    return 0


def _worker_main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--worker", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inprocess", action="store_true")
    print(json.dumps(worker(ap.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(_worker_main(sys.argv[1:]) if "--worker" in sys.argv else main())
