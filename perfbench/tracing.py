"""Layer tracing for the traced benchmark run.

`install` wraps the public functions and methods of each cutstack layer
module in place, so every call that goes through a module or class
attribute opens a span.  Spans (name, start, end, parent, op id) are kept
in flat arrays while the run lasts; `layer_metrics` turns them into the
per-layer metrics that BENCHMARK.json lists, and `write_spans` dumps them.

Nothing under src/ is touched: wrappers are installed from here, before
the workload builds any system, pair or angle.
"""

import functools
import gzip
import inspect
import sys
import time
from array import array

from cutstack import (
    arithmetic,
    digits,
    ergodic,
    induction,
    matching,
    quadratic,
    specs,
    towers,
)

LAYERS = {
    "specs": specs,
    "digits": digits,
    "towers": towers,
    "quadratic": quadratic,
    "arithmetic": arithmetic,
    "induction": induction,
    "matching": matching,
    "ergodic": ergodic,
}

# Stage-data accessors (RankOneSystem.cuts/offsets/height/width and the
# walker's digit/position helpers) stay unwrapped: they run inside every
# walker step, and their cost belongs to the span that calls them.
SKIP = {
    "towers.RankOneSystem.cuts",
    "towers.RankOneSystem.offsets",
    "towers.RankOneSystem.height",
    "towers.RankOneSystem.width",
    "towers.BaseOrbitWalker.position",
    "towers.BaseOrbitWalker.state",
}


class Tracer:
    """Span log in parallel arrays; recording is off until `active`."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        # values counted at span boundaries, by key, for the current run
        self.counts = {}
        self._seen_digits = set()
        self.distinct_digits = 0

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, op):
        self.op = op
        self._seen_digits = set()
        self.active = True

    def end_op(self):
        self.active = False
        self.distinct_digits += len(self._seen_digits)

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def spans(self):
        return len(self.name)


def _seeded_digit_hook(tracer, args, result):
    stream, k = args[0], args[1]
    tracer._seen_digits.add((stream.seed, k))


def _build_frame_hook(tracer, args, frame):
    tracer.count("build_frame.items", len(frame.assignment))


def _interval_union_hook(tracer, args, result):
    tracer.count("interval_union.built")
    tracer.count("interval_union.intervals", len(args[0].intervals))


HOOKS = {
    "digits.SeededDigits.digit": _seeded_digit_hook,
    "matching.build_frame": _build_frame_hook,
    "induction.IntervalUnion.__init__": _interval_union_hook,
}


def _wrap(tracer, span, fn, hook):
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _traceable(attr, span, value):
    """Public functions, plus the Surd and IntervalUnion dunders that the
    metric groups name; other dunders (dataclass __init__, __eq__, repr)
    are left alone."""
    if not inspect.isfunction(value) or inspect.isgeneratorfunction(value):
        return False
    return not attr.startswith("_") or span in TRACED_DUNDERS


def install(tracer):
    """Wrap every layer's public functions and methods.  Module-level
    functions are rebound in every cutstack module that imported them by
    name."""
    replaced = {}
    for layer, mod in LAYERS.items():
        for attr, value in list(vars(mod).items()):
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for mattr, raw in list(vars(value).items()):
                    span = f"{layer}.{value.__name__}.{mattr}"
                    if span in SKIP:
                        continue
                    if isinstance(raw, staticmethod):
                        fn = raw.__func__
                        if _traceable(mattr, span, fn):
                            setattr(value, mattr, staticmethod(
                                _wrap(tracer, span, fn, HOOKS.get(span))))
                    elif _traceable(mattr, span, raw):
                        setattr(value, mattr,
                                _wrap(tracer, span, raw, HOOKS.get(span)))
            elif (inspect.isfunction(value)
                  and value.__module__ == mod.__name__):
                span = f"{layer}.{attr}"
                if span not in SKIP and _traceable(attr, span, value):
                    replaced[id(value)] = (
                        value, _wrap(tracer, span, value, HOOKS.get(span)))
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cutstack"
                               or name.startswith("cutstack.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# Per-layer metrics
#
# Each group is a set of span names.  "calls" counts every span in the
# group, "self" sums span duration minus the time its child spans cover,
# and "incl" sums the duration of the group's outermost spans (spans with
# no ancestor in the same group), so recursion is not counted twice.

WALKER_STEP = tuple(f"towers.BaseOrbitWalker.{m}"
                    for m in ("step", "step_back", "return_time"))
SURD_ARITH = tuple(f"quadratic.Surd.{m}" for m in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__"))
SURD_ORDER = tuple(f"quadratic.Surd.{m}" for m in (
    "sign", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"))
INTERVAL_ALGEBRA = tuple(f"induction.IntervalUnion.{m}" for m in (
    "__init__", "measure", "contains", "union", "intersect", "difference",
    "shift_mod1", "is_empty"))

TRACED_DUNDERS = {
    m for m in SURD_ARITH + SURD_ORDER + INTERVAL_ALGEBRA if "__" in m
} | {"quadratic.Surd.__init__"}

GROUPS = {
    "digits.seeded_digit": ("digits.SeededDigits.digit",),
    "specs.rule": ("specs.StackingSpec.rule",),
    "towers.walker_step": WALKER_STEP,
    "towers.walker_advance": ("towers.BaseOrbitWalker.advance",),
    "towers.apply": ("towers.RankOneSystem.apply",),
    "towers.level_index": ("towers.RankOneSystem.level_index",),
    "towers.point_at": ("towers.RankOneSystem.point_at",),
    "towers.same_point": ("towers.RankOneSystem.same_point",),
    "matching.build_frame": ("matching.build_frame",),
    "matching.return_window": ("matching.return_window",),
    "matching.phi_hat": ("matching.even_match_machine",
                         "matching.even_match_inverse_machine"),
    "matching.height_above_base": ("matching.height_above_base",),
    "matching.formula": ("matching.even_match_formula",
                         "matching.even_match_inverse_formula"),
    "matching.stopping_time": ("matching.stopping_time",),
    "matching.noneven": ("matching.noneven_match", "matching.noneven_in_image",
                         "matching.noneven_inverse"),
    "quadratic.surd_new": ("quadratic.Surd.__init__",),
    "quadratic.surd_arith": SURD_ARITH,
    "quadratic.surd_order": SURD_ORDER,
    "quadratic.surd_floor": ("quadratic.Surd.floor", "quadratic.Surd.frac"),
    "arithmetic.point_value": ("arithmetic.point_value",),
    "arithmetic.first_return": ("arithmetic.first_return_rotation",),
    "induction.interval_algebra": INTERVAL_ALGEBRA,
    "induction.column_decomposition": ("induction.column_decomposition",),
}


def _span_table(tracer):
    """Per span name (calls, self ns); per group the ns of its outermost
    spans; and the ns covered by top-level spans."""
    n = tracer.spans()
    names = tracer.names
    name, parent = tracer.name, tracer.parent
    start, end = tracer.start, tracer.end
    group_bit = [0] * len(names)
    bits = {}
    for g, (group, members) in enumerate(GROUPS.items()):
        bits[group] = 1 << g
        for m in members:
            if m in tracer._ids:
                group_bit[tracer._ids[m]] = 1 << g
    dur = [end[i] - start[i] for i in range(n)]
    child = [0] * n
    above = [0] * n  # group bits of each span's ancestors
    outer = {}
    top = 0
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            above[i] = above[p] | group_bit[name[p]]
        else:
            top += dur[i]
        b = group_bit[name[i]]
        if b and not above[i] & b:
            outer[b] = outer.get(b, 0) + dur[i]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for i in range(n):
        calls[name[i]] += 1
        self_ns[name[i]] += dur[i] - child[i]
    by_name = {names[k]: (calls[k], self_ns[k]) for k in range(len(names))}
    incl = {group: outer.get(b, 0) for group, b in bits.items()}
    return by_name, incl, top


def layer_metrics(tracer, ops, traced_ns, untraced_ns, extras):
    """The per-layer metrics of one traced run over `ops` ops.

    `traced_ns` / `untraced_ns` are the summed op times of the same ops with
    and without tracing; `extras` holds workload-side counts (halves
    resolved by the machine).
    """
    by_name, incl, top_ns = _span_table(tracer)

    def calls(group):
        return sum(by_name.get(m, (0, 0))[0] for m in GROUPS[group])

    def self_ns(group):
        return sum(by_name.get(m, (0, 0))[1] for m in GROUPS[group])

    def layer_self_ns(layer):
        return sum(s for name, (_, s) in by_name.items()
                   if name.split(".", 1)[0] == layer)

    def per_op(x):
        return x / ops

    def ms(ns):
        return ns / 1e6

    def us_per_call(group):
        c = calls(group)
        return self_ns(group) / 1e3 / c if c else 0.0

    m = {}
    for group in ("digits.seeded_digit", "specs.rule", "towers.walker_step",
                  "towers.walker_advance", "towers.apply",
                  "towers.level_index",
                  "towers.point_at", "matching.build_frame",
                  "matching.height_above_base", "quadratic.surd_new",
                  "quadratic.surd_arith", "quadratic.surd_order",
                  "quadratic.surd_floor", "arithmetic.point_value",
                  "induction.interval_algebra"):
        m[f"{group}.calls_per_op"] = per_op(calls(group))
    for group in ("digits.seeded_digit", "specs.rule", "towers.apply",
                  "towers.same_point", "matching.build_frame",
                  "matching.height_above_base", "induction.interval_algebra"):
        m[f"{group}.self_ms_per_op"] = per_op(ms(self_ns(group)))
    for group in ("towers.walker_step", "towers.walker_advance",
                  "quadratic.surd_arith", "quadratic.surd_order"):
        m[f"{group}.self_us_per_call"] = us_per_call(group)
    for group in ("matching.return_window", "matching.formula",
                  "matching.stopping_time", "matching.noneven",
                  "arithmetic.first_return", "induction.column_decomposition"):
        m[f"{group}.ms_per_op"] = per_op(ms(incl[group]))
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = per_op(ms(layer_self_ns(layer)))

    seeded_calls = calls("digits.seeded_digit")
    m["digits.seeded_digit.distinct_frac"] = (
        tracer.distinct_digits / seeded_calls if seeded_calls else 0.0)
    deposit_ms = ms(self_ns("matching.build_frame"))
    m["matching.build_frame.items_per_ms"] = (
        tracer.counts.get("build_frame.items", 0) / deposit_ms
        if deposit_ms else 0.0)
    m["matching.phi_hat.attempts_per_op"] = per_op(calls("matching.phi_hat"))
    halves = extras.get("halves", 0)
    m["matching.machine_resolved_frac"] = (
        extras.get("machine_halves", 0) / halves if halves else 0.0)
    built = tracer.counts.get("interval_union.built", 0)
    m["induction.interval_union.mean_intervals"] = (
        tracer.counts.get("interval_union.intervals", 0) / built
        if built else 0.0)
    m["trace.overhead_frac"] = (traced_ns - untraced_ns) / untraced_ns
    m["trace.unattributed_ms_per_op"] = per_op(ms(traced_ns - top_ns))
    return m


def write_spans(tracer, path):
    """Gzipped TSV of every span: name, start_ns, end_ns, parent, op."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
        names = tracer.names
        for i in range(tracer.spans()):
            f.write(f"{i}\t{names[tracer.name[i]]}\t{tracer.start[i]}\t"
                    f"{tracer.end[i]}\t{tracer.parent[i]}\t"
                    f"{tracer.op_of[i]}\n")
