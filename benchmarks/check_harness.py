"""Tests of the benchmark's own arithmetic and wrappers.

    python3 -m pytest -q benchmarks/check_harness.py

(The file name keeps these out of the package's test suite: they test
the benchmark, and the package counts they pin are expected to move.)
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from harness import Note, Op, OpLog, Tracer, WrongExit, self_times, tail_percentile  # noqa: E402

# -- tail percentile -------------------------------------------------------


@pytest.mark.parametrize("n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (999, 90.0),
                                  (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, p):
    samples = list(range(n, 0, -1))  # any order
    got_p, value, met = tail_percentile(samples)
    assert (got_p, met) == (p, True)
    assert sum(s > value for s in samples) >= 10
    higher = [q for q in harness.TAIL_LADDER if q > p]
    if higher:  # the next ladder step would leave fewer than ten beyond
        _, beyond = harness.nearest_rank(sorted(samples), higher[0])
        assert beyond < 10


def test_tail_with_too_few_samples_falls_back_to_the_median_and_says_so():
    p, value, met = tail_percentile([5.0, 1.0, 3.0])
    assert (p, value, met) == (50.0, 3.0, False)
    assert tail_percentile(range(19))[2] is False


# -- self time -------------------------------------------------------------


def test_self_time_of_nested_spans():
    # 0: [0, 100]  1: [10, 40] in 0  2: [20, 30] in 1
    assert self_times([0, 10, 20], [100, 40, 30], [-1, 0, 1]) == [70, 20, 10]


def test_self_time_of_sibling_spans_covers_overlap_once():
    # children [10, 40] and [30, 60] cover 50 of the parent's 100
    assert self_times([0, 10, 30], [100, 40, 60], [-1, 0, 0]) == [50, 30, 30]
    # disjoint siblings add up; a child running past its parent is clipped
    assert self_times([0, 10, 50, 90], [100, 20, 70, 130], [-1, 0, 0, 0])[0] == 100 - 10 - 20 - 10


# -- op accounting ----------------------------------------------------------


def _op(label, run_fn, check=lambda out: [], digest=lambda out: repr(out).encode()):
    return Op(label, run_fn, check, digest)


def _raise_value_error():
    raise ValueError("boom")


def _wrong_exit():
    raise WrongExit(1)


def test_failed_frac_counts_raised_wrong_exit_and_failed_verification():
    counter = iter(range(100))
    ops = [
        _op("ok", lambda: 1),
        _op("raises", _raise_value_error),
        _op("exit", _wrong_exit),
        _op("wrong", lambda: 2, check=lambda out: ["2 is wrong"]),
        _op("unstable", lambda: next(counter)),  # differs on every repeat
        _op("noted", lambda: 3, check=lambda out: [Note("could not resolve")]),
    ]
    log = OpLog()
    for _ in range(2):
        for i, op in enumerate(ops):
            log.run(i, op)
    assert log.attempted == 12
    assert dict(log.failures) == {"raised:ValueError": 2, "exit": 2, "verify": 3}
    assert log.failed == 7
    assert not log.correct
    assert len(log.ok_latencies) == 5  # ok x2, noted x2, unstable once
    assert len(log.notes) == 1 and log.checked == 5
    assert log.timed_s >= sum(log.ok_latencies)


def test_percentiles_use_the_mean_latency_of_each_label():
    log = OpLog()
    log.latencies = {0: [1.0, 3.0], 1: [5.0], 2: [10.0] * 29}
    log.labels = {0: "a", 1: "a", 2: "b"}
    log.timed_s = 9.0 + 290.0
    e2e = log.end_to_end()
    assert log.op_latencies() == [3.0] * 3 + [10.0] * 29
    assert e2e["op_p50_ms"] == 10_000.0
    assert e2e["tail"] == {"percentile": 50.0, "samples": 32, "rule_met": True}
    assert e2e["ops_per_s"] == 32 / 299.0


def test_raised_ops_alone_leave_the_outputs_correct():
    log = OpLog()
    log.run(0, _op("raises", _raise_value_error))
    log.run(1, _op("ok", lambda: 1))
    assert log.correct and log.failed == 1


# -- tracer and wrappers ---------------------------------------------------


def test_tracer_records_parents_ops_and_errors():
    tr = Tracer()
    inner = tr.wrap("t.inner", lambda x: x + 1)
    bad = tr.wrap("t.bad", _raise_value_error)

    def outer_fn(x):
        try:
            bad()
        except ValueError:
            pass
        return inner(x)

    outer = tr.wrap("t.outer", outer_fn, tag=lambda args, out: (args[0], out))
    tr.current_op = 7
    assert outer(4) == 5
    names = [tr.names[i] for i in tr.name]
    assert names == ["t.outer", "t.bad", "t.inner"]
    assert list(tr.parent) == [-1, 0, 0]
    assert list(tr.op) == [7, 7, 7]
    assert (tr.tag[0], tr.aux[0]) == (4, 5)
    assert tr.names[tr.error[1] - 1] == "ValueError" and tr.error[0] == tr.error[2] == 0


@pytest.fixture(scope="module")
def traced():
    """The package with every public function wrapped (for this process)."""
    tr = Tracer()
    assert layers.install(tr) > 50
    return tr


def _spans_of(tr, name, since=0):
    nid = tr.names.index(name) if name in tr.names else -1
    return [i for i in range(since, len(tr)) if tr.name[i] == nid]


def test_wrappers_catch_calls_through_from_import_bindings(traced):
    import sqzstat
    from sqzstat import cli, engine, models, squeeze

    assert cli.report_for is engine.report_for is sqzstat.report_for
    since = len(traced)
    spectrum = models.build_model("two_level", {"epsilon": 1.0})
    cli.report_for(spectrum, engine.EnsembleSpec(fixed_intensive={"E": 0.7}),
                   squeeze.SqueezeFamily.identity())
    assert len(_spans_of(traced, "engine.report_for", since)) == 1
    assert len(_spans_of(traced, "engine.characteristic_class", since)) == 1
    assert len(_spans_of(traced, "engine.spectrum_init", since)) == 1
    assert len(_spans_of(traced, "squeeze.identity", since)) == 1


def _profiled_calls(fn, code) -> int:
    """Calls of ``code`` while ``fn`` runs, counted by the profiler hook:
    an independent count of what the wrappers should see."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def _seed_counts(traced):
    """Run a two-variable and a one-variable moments call, a two-variable
    conjugates call and run_to_stationarity as ops 10000-10003 of the
    traced package; return the first span index and the profiler's count
    of characteristic_class calls in each."""
    from sqzstat import engine, fluctuation, kinetics, models, squeeze, thermo

    original = engine.characteristic_class.__wrapped__.__code__
    ident = squeeze.SqueezeFamily.identity()
    gas = models.build_model("lattice_gas", {"sites": 100})
    env2 = engine.EnsembleSpec(fixed_intensive={"E": 0.7, "N": 0.2})
    s2 = engine.phi_surface_from_spectrum(gas, env2, ident)
    two = models.build_model("two_level", {"epsilon": 1.0})
    env1 = engine.EnsembleSpec(fixed_intensive={"E": 0.7})
    s1 = engine.phi_surface_from_spectrum(two, env1, ident)
    lattice = kinetics.make_lattice(2)
    net = kinetics.build_collision_network(lattice)
    state = kinetics.random_state(lattice, seed=3)
    dt = kinetics.stability_dt(state, net, ident)
    calls = [
        lambda: fluctuation.moments(s2, env2.values(), ["E", "N"], ident),
        lambda: fluctuation.moments(s1, env1.values(), ["E"], ident),
        lambda: thermo.conjugates_from_phi(s2, env2.split, env2.values()),
        lambda: kinetics.run_to_stationarity(state, net, ident, dt, tol=1e-10),
    ]
    since = len(traced)
    profiled = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, call in enumerate(calls):
            traced.current_op = 10_000 + k
            profiled.append(_profiled_calls(call, original))
        traced.current_op = -1
    return since, profiled


def test_wrapped_counts_match_the_profiler_and_the_seed_counts(traced):
    since, profiled = _seed_counts(traced)
    wrapped = [
        sum(1 for i in _spans_of(traced, "engine.characteristic_class", since) if traced.op[i] == op)
        for op in (10_000, 10_001, 10_002, 10_003)
    ]
    assert wrapped == profiled
    # counts at the commit that defined the benchmark
    assert wrapped[:3] == [19, 7, 8]
    m = layers.metrics(traced, n_ops=1)
    assert m["fluctuation.class_passes_per_moments.2var"] == 19
    assert m["fluctuation.class_passes_per_moments.1var"] == 7
    assert m["thermo.class_passes_per_conjugate"] == 4
    assert m["kinetics.rhs_calls_per_step"] == 1.0


# -- oracles ----------------------------------------------------------------


def test_direct_sums_match_closed_forms():
    for model, params, y in (("two_level", {"epsilon": 1.3}, {"E": 0.8}),
                             ("spin_half_paramagnet", {"N": 40}, {"M": -0.3}),
                             ("lattice_gas", {"sites": 30}, {"E": 0.5, "N": 0.4})):
        x, ln_g = oracles.model_table(model, params)
        vec = np.array([y[k] for k in sorted(y)])
        closed = oracles.phi_closed_form(model, params, y)
        assert oracles.close(oracles.phi_direct(x, ln_g, vec, 1.0), closed, 1e-12)
        # the tsallis direct sum tends to the identity one as q -> 1
        near = oracles.phi_direct(x, ln_g, vec, 1.0 + 1e-7)
        assert abs(near - closed) < 1e-4 * max(1.0, abs(closed))


def test_closed_form_mean_and_curvature_match_finite_differences():
    x, ln_g = oracles.model_table("einstein_solid", {"N": 4, "E_max": 100})
    for q in (1.0, 0.5, 1.5, 2.0):
        y = np.array([1.7])
        h = 1e-4
        phi = lambda v: oracles.phi_direct(x, ln_g, np.array([v]), q)  # noqa: E731
        fd1 = (phi(y[0] + h) - phi(y[0] - h)) / (2 * h)
        fd2 = (phi(y[0] + h) - 2 * phi(y[0]) + phi(y[0] - h)) / h**2
        assert abs(oracles.mean_direct(x, ln_g, y, q)[0] - fd1) < 1e-6 * max(1, abs(fd1))
        assert abs(oracles.hessian_direct(x, ln_g, y, q)[0, 0] - fd2) < 1e-3 * max(1, abs(fd2))


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # ensemble_large and kinetics_relax run with --workload <name> or all, ungated (NOTES.md)
    gated = [w for w in run.WORKLOADS if w not in ("ensemble_large", "kinetics_relax")]
    assert [w["name"] for w in spec["workloads"]] == gated
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
