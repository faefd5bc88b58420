"""Arithmetic and span recording shared by every workload of the benchmark.

Nothing here imports sqzstat, so each rule can be tested on hand-made
inputs (see check_harness.py):

- the tail percentile: the highest percentile of a fixed ladder that has
  at least ten samples ranked beyond it;
- op accounting: an op fails if it raises, exits with an unexpected
  code, or fails output verification; a failed op is counted and its
  time stays in the timed wall time;
- self time: a span's duration minus the union of its children's
  intervals;
- the span recorder and the rebinding of a wrapped function on every
  module that holds a reference to it.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def nearest_rank(sorted_values, p: float):
    """(value, samples ranked beyond it) of the nearest-rank p-th percentile."""
    k = max(1, math.ceil(p * len(sorted_values) / 100.0 - 1e-9))  # 99.9% of 10000 is 9990
    return sorted_values[k - 1], len(sorted_values) - k


def tail_percentile(samples) -> tuple[float, float, bool]:
    """(percentile, value, rule_met) of the highest ladder percentile with
    at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no percentile qualifies; the
    median is returned with rule_met False so the result says so."""
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    best = None
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(values, p)
        if beyond >= MIN_BEYOND:
            best = (p, value)
    if best is None:
        return 50.0, nearest_rank(values, 50.0)[0], False
    return best[0], best[1], True


class Note(str):
    """A check result that is not a failure: something the check could
    not resolve, reported in the verification summary."""


class WrongExit(Exception):
    """A child process ended with an exit code other than 0."""

    def __init__(self, code: int):
        super().__init__(f"exit code {code}")
        self.code = code


@dataclass
class Op:
    """One unit of a workload's work.

    ``run`` is the timed call.  ``check`` verifies its output against an
    independent oracle and returns a list of problems; it runs once per
    op, outside the timed region.  ``digest`` fingerprints the output so
    later repeats of the op are required to be bit-identical to the
    checked one."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], bytes]


@dataclass
class OpLog:
    """Outcomes of the ops of one timed loop."""

    attempted: int = 0
    timed_s: float = 0.0
    latencies: dict = field(default_factory=dict)  # op index -> [seconds]
    labels: dict = field(default_factory=dict)  # op index -> label
    failures: Counter = field(default_factory=Counter)  # kind -> count
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    checked: int = 0
    repeats_identical: int = 0
    _digests: dict = field(default_factory=dict)

    def run(self, index: int, op: Op, tracer: "Tracer | None" = None) -> None:
        """Time one op, then verify it outside the timed region.  Spans the
        op records carry its number; spans of the check do not."""
        if tracer is not None:
            tracer.current_op = self.attempted
        failure = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except WrongExit:
            failure = "exit"
        except Exception as exc:  # a failing op is counted, never fatal
            failure = f"raised:{type(exc).__name__}"
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.current_op = -1
        self.attempted += 1
        self.timed_s += elapsed
        if failure:
            self.failures[failure] += 1
            return
        digest = op.digest(out)
        if index not in self._digests:
            results = op.check(out)
            problems = [f"{op.label}: {p}" for p in results if not isinstance(p, Note)]
            self.notes += [f"{op.label}: {p}" for p in results if isinstance(p, Note)]
            self.checked += 1
            if not problems:
                self._digests[index] = digest
        elif digest != self._digests[index]:
            problems = [f"{op.label}: output differs from the first run of this op"]
        else:
            problems = []
            self.repeats_identical += 1
        del out
        if problems:
            self.failures["verify"] += 1
            self.problems.extend(problems[:3])
            return
        self.latencies.setdefault(index, []).append(elapsed)
        self.labels[index] = op.label

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ok_latencies(self) -> list:
        return [t for ts in self.latencies.values() for t in ts]

    @property
    def correct(self) -> bool:
        """No op produced a wrong output.  Ops that raised or exited
        badly are failures, not wrong outputs."""
        return self.failures["verify"] == 0

    def op_latencies(self) -> list:
        """One latency per successful run: the mean over all successful
        runs of ops with the same label (one configuration, several inputs).

        On a shared host timing noise comes in phases of seconds to
        minutes, so a raw percentile flips between a fast and a slow
        phase's value from run to run; and a percentile that falls on one
        input moves with the seed.  Averaging by label first keeps the
        percentiles about the mix of configurations."""
        by_label: dict = {}
        for index, ts in self.latencies.items():
            by_label.setdefault(self.labels[index], []).extend(ts)
        out = []
        for ts in by_label.values():
            out += [sum(ts) / len(ts)] * len(ts)
        return out

    def end_to_end(self) -> dict:
        ok = self.ok_latencies
        smoothed = self.op_latencies()
        p, tail, rule_met = tail_percentile(smoothed)
        raw_p, raw_tail, _ = tail_percentile(ok)
        return {
            "ops_per_s": len(ok) / self.timed_s,
            "op_p50_ms": nearest_rank(sorted(smoothed), 50.0)[0] * 1e3,
            "op_tail_ms": tail * 1e3,
            "tail": {"percentile": p, "samples": len(ok), "rule_met": rule_met},
            "raw": {"op_p50_ms": nearest_rank(sorted(ok), 50.0)[0] * 1e3,
                    "op_tail_ms": raw_tail * 1e3, "tail_percentile": raw_p},
        }


def self_times(start, end, parent) -> list:
    """Duration of each span minus the union of its children's intervals.

    Spans are given as parallel sequences; ``parent`` holds the index of
    the enclosing span or -1.  Children are clipped to their parent, and
    overlapping children are covered once."""
    n = len(start)
    children = sorted((parent[i], start[i], end[i]) for i in range(n) if parent[i] >= 0)
    covered = [0] * n
    k = 0
    while k < len(children):
        p = children[k][0]
        lo_p, hi_p = start[p], end[p]
        cur_lo = cur_hi = None
        while k < len(children) and children[k][0] == p:
            lo, hi = max(children[k][1], lo_p), min(children[k][2], hi_p)
            k += 1
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered[p] += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered[p] += cur_hi - cur_lo
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """In-memory span recorder: one row per call of a wrapped function.

    Columns are compact arrays so a few hundred thousand spans stay
    small.  ``op`` is the index of the timed op the span belongs to, or
    -1 for set-up.  ``tag`` and ``aux`` carry two integers a wrapper's
    tag function reads off the call (a row count, a lattice radius)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.tag = array("q")
        self.aux = array("q")
        self.error = array("i")  # 0, or 1 + the name id of the exception type
        self._stack: list[int] = []
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call under ``name``."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.tag.append(0)
            self.aux.append(0)
            self.error.append(0)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[i] = clock()
                stack.pop()
                self.error[i] = self.name_id(type(exc).__name__) + 1
                raise
            self.end[i] = clock()
            stack.pop()
            if tag is not None:
                self.tag[i], self.aux[i] = tag(args, out)
            return out

        return traced


def rebind(original, replacement, module_prefix: str) -> int:
    """Replace every module-level reference to ``original`` in the loaded
    modules named ``module_prefix`` or ``module_prefix.*``: the defining
    module and each ``from .x import f`` copy.  Returns the count."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == module_prefix or mod_name.startswith(module_prefix + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count

