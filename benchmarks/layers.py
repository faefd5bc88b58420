"""Per-layer metrics of a traced run.

``install`` wraps the public functions of each sqzstat module (its
``__all__``), the public methods of ``SqueezeFamily``, spectrum
construction and ``ThermoReport.rows``, on every module binding.
``metrics`` turns the recorded spans into the per_layer metrics named in
BENCHMARK.json.  A layer a workload does not exercise reports 0.

Private helpers are not wrapped: RHS evaluations inside ``kinetics.step``
(``_rhs_from_F``) are read from the step time, and the per-row Boltzmann
factor inside ``rows`` from the rows time.
"""

from __future__ import annotations

import inspect
import statistics

import numpy as np

from harness import Tracer, rebind, self_times

LAYERS = ("squeeze", "engine", "thermo", "fluctuation", "models", "kinetics", "inference", "cli")
MODELS = ("two_level", "spin_half_paramagnet", "einstein_solid", "lattice_gas")
RADII = (2, 4, 6)
ENTROPY_FAMILIES = {10: "identity", 15: "q1.5", 20: "q2"}  # tag = round(10 q)
INFERENCE = ("estimate_q", "reconstruct_squeeze", "superstatistics_forward")
SUBCOMMANDS = ("compute", "fluct", "kinetics", "infer", "sweep")
LARGE_ROWS = 10_000  # class passes over at least this many rows count as large


def _rows_out(args, out):
    return out.n_rows, out.n_excluded


def _radius_arg1(args, out):
    return args[1].lattice.radius, 0


def _network(args, out):
    inc = getattr(out, "incidence", None)
    return args[0].radius, inc.nbytes if isinstance(inc, np.ndarray) else 0


def _family_code(args, out):
    fam = args[1]
    return (10 if fam.is_identity else round(10 * fam.q)), 0


TAGS = {
    "engine.characteristic_class": _rows_out,
    "engine.spectrum_init": lambda args, out: (args[0].n_rows, 0),
    "engine.rows": lambda args, out: (len(out), 0),
    "thermo.conjugates_from_phi": lambda args, out: (len(args[1].all_names), 0),
    "fluctuation.moments": lambda args, out: (len(args[2]), 0),
    "models.build_model": lambda args, out: (MODELS.index(args[0]) if args[0] in MODELS else -1, 0),
    "kinetics.build_collision_network": _network,
    "kinetics.step": _radius_arg1,
    "kinetics.collision_rhs": _radius_arg1,
    "kinetics.stability_dt": _radius_arg1,
    "kinetics.entropy_functional": _family_code,
}


def install(tracer: Tracer) -> int:
    """Wrap every public function of the package; returns how many
    bindings were replaced."""
    import sqzstat.cli  # noqa: F401  (loads every module)
    from sqzstat import engine, fluctuation, inference, kinetics, models, squeeze, thermo

    count = 0
    for layer, mod in (("squeeze", squeeze), ("engine", engine), ("thermo", thermo),
                       ("fluctuation", fluctuation), ("models", models),
                       ("kinetics", kinetics), ("inference", inference)):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                name = f"{layer}.{attr}"
                count += rebind(fn, tracer.wrap(name, fn, TAGS.get(name)), "sqzstat")
    family = squeeze.SqueezeFamily
    for attr, raw in list(vars(family).items()):
        if attr.startswith("_"):
            continue
        if isinstance(raw, staticmethod):
            setattr(family, attr, staticmethod(tracer.wrap(f"squeeze.{attr}", raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(family, attr, tracer.wrap(f"squeeze.{attr}", raw))
        else:
            continue
        count += 1
    for cls, attr, name in ((engine.DegeneracySpectrum, "__post_init__", "engine.spectrum_init"),
                            (engine.ThermoReport, "rows", "engine.rows")):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), TAGS.get(name)))
        count += 1
    return count


def metric_names() -> list:
    """(name, unit) of every per_layer metric, in BENCHMARK.json order."""
    out = [
        ("squeeze.calls_per_op", "1/op"), ("squeeze.self_ms_per_op", "ms"),
        ("engine.class_passes_per_op", "1/op"), ("engine.class_pass_us.small", "us"),
        ("engine.class_pass_ms.large", "ms"), ("engine.spectrum_init_ms", "ms"),
        ("engine.probabilities_ms", "ms"), ("engine.rows_ms", "ms"),
        ("engine.observed_mean_us", "us"), ("engine.excluded_row_frac", "ratio"),
        ("engine.failed.OverflowError", "1/op"), ("engine.failed.other", "1/op"),
        ("thermo.conjugates_us", "us"), ("thermo.class_passes_per_conjugate", "count"),
        ("fluctuation.moments_us", "us"),
        ("fluctuation.class_passes_per_moments.1var", "count"),
        ("fluctuation.class_passes_per_moments.2var", "count"),
    ]
    out += [(f"models.build_ms.{m}", "ms") for m in MODELS]
    out += [(f"kinetics.network_build_ms.r{r}", "ms") for r in RADII]
    out += [(f"kinetics.incidence_mb.r{r}", "MB") for r in RADII]
    out += [(f"kinetics.step_us.r{r}", "us") for r in RADII]
    out += [(f"kinetics.rhs_us.r{r}", "us") for r in RADII]
    out += [("kinetics.rhs_calls_per_step", "count")]
    out += [(f"kinetics.entropy_us.{f}", "us") for f in ENTROPY_FAMILIES.values()]
    out += [("kinetics.stability_dt_us", "us"), ("kinetics.steps_per_op", "1/op")]
    out += [(f"inference.call_us.{f}", "us") for f in INFERENCE]
    out += [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.import_ms.scipy", "ms")]
    out += [(f"cli.main_ms.{c}", "ms") for c in SUBCOMMANDS]
    out += [("trace.ops_per_s.untraced", "1/s"), ("trace.ops_per_s.traced", "1/s"),
            ("trace.overhead_frac", "ratio")]
    return out


def _p50(values, scale: float) -> float:
    return float(statistics.median(values)) / scale if len(values) else 0.0


def metrics(tr: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the spans of a traced run of ``n_ops`` ops.

    Times are self times (duration minus child spans) for engine, thermo
    and fluctuation functions, and inclusive durations for model builds,
    network builds, kinetics calls and inference calls.  Per-op figures
    count spans inside timed ops only; build times include set-up."""
    out = {name: 0.0 for name, _ in metric_names() if not name.startswith(("cli.", "trace."))}
    if not len(tr):
        return out
    ids = {n: i for i, n in enumerate(tr.names)}
    name = np.asarray(tr.name)
    start, end = np.asarray(tr.start), np.asarray(tr.end)
    parent, op = np.asarray(tr.parent), np.asarray(tr.op)
    tag, aux, error = np.asarray(tr.tag), np.asarray(tr.aux), np.asarray(tr.error)
    dur = end - start
    own = np.asarray(self_times(tr.start, tr.end, tr.parent))
    layer_of = np.array([LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS else -1
                         for n in tr.names])
    layer = layer_of[name]
    in_op = op >= 0

    # self time of each layer-root span, summed over its same-layer descendants
    # (spans are stored in call order, so a parent precedes its children)
    n = len(name)
    root, conj_anc, mom_anc = list(range(n)), [-1] * n, [-1] * n
    conj_id, mom_id = ids.get("thermo.conjugates_from_phi"), ids.get("fluctuation.moments")
    layer_l, name_l = layer.tolist(), tr.name
    for i, p in enumerate(tr.parent):
        if p >= 0:
            if layer_l[p] == layer_l[i]:
                root[i] = root[p]
            conj_anc[i] = conj_anc[p]
            mom_anc[i] = mom_anc[p]
        if name_l[i] == conj_id:
            conj_anc[i] = i
        elif name_l[i] == mom_id:
            mom_anc[i] = i
    conj_anc, mom_anc = np.asarray(conj_anc), np.asarray(mom_anc)
    layer_self = np.bincount(root, weights=own, minlength=n)

    def sel(fn: str, *conds):
        mask = name == ids.get(fn, -1)
        for c in conds:
            mask = mask & c
        return mask

    squeeze = (layer == LAYERS.index("squeeze")) & in_op
    out["squeeze.calls_per_op"] = squeeze.sum() / n_ops
    out["squeeze.self_ms_per_op"] = own[squeeze].sum() / 1e6 / n_ops

    cc = sel("engine.characteristic_class", in_op)
    out["engine.class_passes_per_op"] = cc.sum() / n_ops
    out["engine.class_pass_us.small"] = _p50(own[cc & (tag < LARGE_ROWS)], 1e3)
    out["engine.class_pass_ms.large"] = _p50(own[cc & (tag >= LARGE_ROWS)], 1e6)
    out["engine.spectrum_init_ms"] = _p50(dur[sel("engine.spectrum_init")], 1e6)
    out["engine.probabilities_ms"] = _p50(own[sel("engine.probabilities", in_op, error == 0)], 1e6)
    out["engine.rows_ms"] = _p50(own[sel("engine.rows", in_op, error == 0)], 1e6)
    out["engine.observed_mean_us"] = _p50(own[sel("engine.observed_mean", in_op)], 1e3)
    if tag[cc].sum():
        out["engine.excluded_row_frac"] = aux[cc].sum() / tag[cc].sum()
    engine_layer = layer == LAYERS.index("engine")
    raised = engine_layer & in_op & (error > 0)
    inner = np.zeros(len(name), dtype=bool)
    has_parent = parent >= 0
    inner[has_parent] = raised[parent[has_parent]]
    outermost = raised & ~inner
    overflow = ids.get("OverflowError", -2) + 1
    out["engine.failed.OverflowError"] = (outermost & (error == overflow)).sum() / n_ops
    out["engine.failed.other"] = (outermost & (error != overflow)).sum() / n_ops

    conj = sel("thermo.conjugates_from_phi", in_op)
    out["thermo.conjugates_us"] = _p50(layer_self[conj], 1e3)
    if tag[conj].sum():
        out["thermo.class_passes_per_conjugate"] = (cc & (conj_anc >= 0)).sum() / tag[conj].sum()
    mom = sel("fluctuation.moments", in_op)
    out["fluctuation.moments_us"] = _p50(layer_self[mom], 1e3)
    for nvar in (1, 2):
        calls = mom & (tag == nvar)
        if calls.any():
            passes = cc & (mom_anc >= 0) & (tag[np.maximum(mom_anc, 0)] == nvar)
            out[f"fluctuation.class_passes_per_moments.{nvar}var"] = passes.sum() / calls.sum()

    for k, m in enumerate(MODELS):
        out[f"models.build_ms.{m}"] = _p50(dur[sel("models.build_model", tag == k)], 1e6)

    for r in RADII:
        build = sel("kinetics.build_collision_network", tag == r)
        out[f"kinetics.network_build_ms.r{r}"] = _p50(dur[build], 1e6)
        out[f"kinetics.incidence_mb.r{r}"] = float(aux[build].max()) / 1e6 if build.any() else 0.0
        out[f"kinetics.step_us.r{r}"] = _p50(dur[sel("kinetics.step", in_op, tag == r)], 1e3)
        out[f"kinetics.rhs_us.r{r}"] = _p50(dur[sel("kinetics.collision_rhs", in_op, tag == r)], 1e3)
    steps = sel("kinetics.step", in_op)
    if steps.any():
        # every relaxation starts with one RHS evaluation before its first step
        relaxations = len(np.unique(op[steps]))
        rhs = sel("kinetics.collision_rhs", in_op).sum()
        out["kinetics.rhs_calls_per_step"] = (rhs - relaxations) / steps.sum()
    for code, fam in ENTROPY_FAMILIES.items():
        out[f"kinetics.entropy_us.{fam}"] = _p50(dur[sel("kinetics.entropy_functional", in_op, tag == code)], 1e3)
    out["kinetics.stability_dt_us"] = _p50(dur[sel("kinetics.stability_dt", in_op)], 1e3)
    out["kinetics.steps_per_op"] = steps.sum() / n_ops

    for fn in INFERENCE:
        out[f"inference.call_us.{fn}"] = _p50(dur[sel(f"inference.{fn}", in_op)], 1e3)
    return {k: float(v) for k, v in out.items()}
