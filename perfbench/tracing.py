"""Per-layer tracing from outside the library.

``Tracer.install`` wraps every public function defined in a layer module of
polymatkit and rebinds each wrapped name in every ``polymatkit.*``
namespace that holds it (modules import each other's functions by name,
e.g. ``from .linalg import mod_matmul``). ``uninstall`` restores the
originals, so untraced passes run the library untouched.

Each call records a span (name, start, end, parent span, op id) in memory;
self time is the span's duration minus its child spans, and a layer's total
time sums its outermost spans, so it includes the kernels it calls. Meters
add counts computed from call arguments (transform points, multiply-adds)
or from the children a call made (retries, fallbacks). There is one thread, so there
is no waiting time to report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter

LAYERS = ("ntt", "linalg", "poly", "polymat", "approxbasis", "fraction",
          "nullspace", "reconstruct", "solvers", "oracle", "io", "cli")

# constant-matrix Gaussian elimination, reported as one kernel
GAUSS = ("linalg.rref", "linalg.rank", "linalg.det", "linalg.inv",
         "linalg.solve_right", "linalg.left_kernel")

# spans beyond this many are counted but not kept (about 28 bytes each)
MAX_SPANS = 1_000_000


class _Frame:
    __slots__ = ("name", "child", "kids", "notes", "span")

    def __init__(self, name, span):
        self.name, self.span = name, span
        self.child = 0.0
        self.kids = None
        self.notes = None

    def kid(self, name) -> int:
        return self.kids.get(name, 0) if self.kids else 0

    def note(self, key, default=0):
        return self.notes.get(key, default) if self.notes else default

    def set_note(self, key, value):
        if self.notes is None:
            self.notes = {}
        self.notes[key] = value


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# -- meters: counts computed at a layer boundary ---------------------------------
# Each takes (tracer, args, kwargs, frame, parent, duration, exception); every
# solvers function also gets _meter_solver.

def _meter_ntt(t, args, kwargs, fr, parent, dur, exc):
    a = args[0]
    length = a.shape[-1]
    t.extra["ntt.ntt.points"] += a.size
    t.extra["ntt.ntt.butterflies"] += (a.size // 2) * max(length.bit_length() - 1, 0)
    if parent is not None and parent.name == "polymat.pm_mul":
        parent.set_note("ntt_len", length)
        parent.set_note("ntt_s", parent.note("ntt_s", 0.0) + dur)


def _meter_mod_matmul(t, args, kwargs, fr, parent, dur, exc):
    a, b = args[0].shape, args[1].shape
    rows = a[-2] if len(a) > 1 else 1
    cols = b[-1] if len(b) > 1 else 1
    batch = math.prod(_broadcast(a[:-2], b[:-2]))
    t.extra["linalg.mod_matmul.mults"] += 2 * batch * rows * a[-1] * cols  # both split halves


def _broadcast(x, y):
    n = max(len(x), len(y))
    x, y = (1,) * (n - len(x)) + tuple(x), (1,) * (n - len(y)) + tuple(y)
    return [max(i, j) for i, j in zip(x, y)]


def _meter_pm_mul(t, args, kwargs, fr, parent, dur, exc):
    t.extra["pm_mul.time"] += dur
    t.extra["pm_mul.ntt_time"] += fr.note("ntt_s", 0.0)
    if fr.note("ntt_len"):
        a, b = args[0], args[1]
        t.extra["pm_mul.transform_len"] += fr.note("ntt_len")
        t.extra["pm_mul.product_len"] += a.coeffs.shape[0] + b.coeffs.shape[0] - 1


def _meter_mbasis(t, args, kwargs, fr, parent, dur, exc):
    t.extra["approxbasis.mbasis.orders"] += _arg(args, kwargs, 1, "sigma")


def _meter_series_product(t, args, kwargs, fr, parent, dur, exc):
    a, f, order = args[0], args[1], _arg(args, kwargs, 2, "order")
    t.extra["series_product.kept"] += order
    t.extra["series_product.product_len"] += a.coeffs.shape[0] + f.order - 1


def _meter_truncated_inverse(t, args, kwargs, fr, parent, dur, exc):
    if parent is not None:
        parent.set_note("ti_k", max(parent.note("ti_k"), _arg(args, kwargs, 1, "k")))


def _meter_expansion_slice(t, args, kwargs, fr, parent, dur, exc):
    # the baseline expands A^-1 to order h + delta; the fast path only to 2 deg(A) < h
    if _arg(args, kwargs, 4, "fast", False) and fr.note("ti_k") >= _arg(args, kwargs, 2, "h"):
        t.extra["fraction.expansion_slice.fast_fallbacks"] += 1


def _meter_row_reduce(t, args, kwargs, fr, parent, dur, exc):
    t.extra["solvers.row_reduce.shift_tries"] += fr.kid("linalg.det")


def _meter_partial_nullspace(t, args, kwargs, fr, parent, dur, exc):
    t.extra["nullspace.partial_nullspace.retries"] += max(fr.kid("approxbasis.pmbasis") - 1, 0)
    t.extra["nullspace.partial_nullspace.fallbacks"] += fr.kid("nullspace.minimal_vectors_up_to")


def _meter_general_nullspace(t, args, kwargs, fr, parent, dur, exc):
    t.extra["nullspace.general_nullspace.sweeps"] += fr.kid("nullspace.minimal_vectors_up_to")


def _meter_solver(t, args, kwargs, fr, parent, dur, exc):
    if (type(exc).__name__ == "GenericityFailure"
            and not (parent is not None and parent.name.startswith("solvers."))):
        t.extra["solvers.genericity_failures"] += 1


METERS = {
    "ntt.ntt": _meter_ntt,
    "linalg.mod_matmul": _meter_mod_matmul,
    "polymat.pm_mul": _meter_pm_mul,
    "approxbasis.mbasis": _meter_mbasis,
    "approxbasis.series_product": _meter_series_product,
    "fraction.truncated_inverse": _meter_truncated_inverse,
    "fraction.expansion_slice": _meter_expansion_slice,
    "solvers.row_reduce": _meter_row_reduce,
    "nullspace.partial_nullspace": _meter_partial_nullspace,
    "nullspace.general_nullspace": _meter_general_nullspace,
}


def layer_functions():
    """{qualified name: function} for every public function of every layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"polymatkit.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self.total_s = Counter()
        self.depth = Counter()
        self.stack = []
        self.op_id = -1
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self._bindings = []
        functions = layer_functions()
        self._wrappers = {id(fn): (fn, self._wrap(q, fn)) for q, fn in functions.items()}

    # -- spans ---------------------------------------------------------------

    def _open(self, name, start) -> int:
        if len(self.span_start) >= MAX_SPANS:
            self.dropped += 1
            return -1
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_start.append(start - self.origin)
        self.span_end.append(0.0)
        self.span_parent.append(self.stack[-1].span if self.stack else -1)
        self.span_op.append(self.op_id)
        return len(self.span_start) - 1

    def _wrap(self, qual, fn):
        layer = qual.split(".")[0]
        meters = [m for m in (METERS.get(qual), _meter_solver if layer == "solvers" else None) if m]
        clock, stack, calls, self_s = self.clock, self.stack, self.calls, self.self_s
        depth, total_s = self.depth, self.total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            frame = _Frame(qual, self._open(qual, start))
            stack.append(frame)
            depth[layer] += 1
            exc = None
            try:
                return fn(*args, **kwargs)
            except BaseException as e:  # recorded for the meters, then re-raised
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                depth[layer] -= 1
                if not depth[layer]:
                    total_s[layer] += dur
                calls[qual] += 1
                self_s[qual] += dur - frame.child
                if frame.span >= 0:
                    self.span_end[frame.span] = end - self.origin
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child += dur
                    if parent.kids is None:
                        parent.kids = {}
                    parent.kids[qual] = parent.kids.get(qual, 0) + 1
                for meter in meters:
                    meter(self, args, kwargs, frame, parent, dur, exc)

        return wrapper

    def call_op(self, op_id: int, name: str, fn, *args):
        """Run one benchmark op as a root span carrying its op id."""
        self.op_id = op_id
        start = self.clock()
        frame = _Frame("op:" + name, self._open("op:" + name, start))
        self.stack.append(frame)
        try:
            return fn(*args)
        finally:
            self.stack.pop()
            if frame.span >= 0:
                self.span_end[frame.span] = self.clock() - self.origin
            self.op_id = -1

    # -- installation ----------------------------------------------------------

    def install(self):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "polymatkit" or modname.startswith("polymatkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._bindings:
            setattr(mod, attr, val)
        self._bindings.clear()

    # -- output ------------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "name": self.names[self.span_name[i]], "start": self.span_start[i],
                    "end": self.span_end[i], "parent": self.span_parent[i], "op": self.span_op[i],
                }) + "\n")

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for qual, s in self.self_s.items():
            out[qual.split(".")[0]] += s
        return out


def _ratio(num, den):
    return num / den if den else 0.0


FUNCTION_METRICS = {
    # qualified function: extra counters reported next to .calls and .self_share
    "ntt.ntt": ("points", "butterflies"),
    "linalg.mod_matmul": ("mults",),
    "polymat.pm_mul": (),
    "polymat.pm_shift_var": (),
    "polymat.pm_eval": (),
    "approxbasis.mbasis": ("orders",),
    "approxbasis.pmbasis": (),
    "approxbasis.series_product": (),
    "approxbasis.shifted_row_degrees": (),
    "fraction.truncated_inverse": (),
    "fraction.expansion_slice": ("fast_fallbacks",),
    "fraction.proper_tail": (),
    "nullspace.partial_nullspace": ("retries", "fallbacks"),
    "nullspace.general_nullspace": ("sweeps",),
    "nullspace.minimal_vectors_up_to": (),
    "nullspace.rank": (),
    "reconstruct.matfrac_rec": (),
    "solvers.generic_det": (),
    "solvers.generic_inverse": (),
    "solvers.row_reduce": ("shift_tries",),
    "solvers.left_factorization": (),
    "io.parse": (),
    "io.serialize": (),
    "cli.main": (),
}

# name -> (unit, better). Times are reported as shares of the traced pass
# (self_share, total_share): a function a workload never reaches then reads
# 0 as a ratio, not as a time that is the same on every run. The seconds
# per pass go to the results file.
PER_LAYER = {}
for _q, _extras in FUNCTION_METRICS.items():
    PER_LAYER[f"{_q}.calls"] = ("count", "lower")
    PER_LAYER[f"{_q}.self_share"] = ("ratio", "lower")
    for _e in _extras:
        PER_LAYER[f"{_q}.{_e}"] = ("count", "lower")
PER_LAYER.update({
    "polymat.pm_mul.pad_ratio": ("ratio", "lower"),
    "polymat.pm_mul.ntt_share": ("ratio", "lower"),
    "approxbasis.series_product.kept_ratio": ("ratio", "higher"),
    "linalg.gauss.calls": ("count", "lower"),
    "linalg.gauss.self_share": ("ratio", "lower"),
    "solvers.genericity_failures": ("count", "lower"),
    "oracle.calls": ("count", "lower"),
    "poly.calls": ("count", "lower"),
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = ("ratio", "lower")
    PER_LAYER[f"{_layer}.total_share"] = ("ratio", "lower")
PER_LAYER["trace.pass_s"] = ("s", "lower")
PER_LAYER["trace.coverage"] = ("ratio", "higher")
PER_LAYER["trace.overhead"] = ("ratio", "lower")


def per_layer_metrics(t: Tracer, passes: int, traced_pass_s: float, overhead: float):
    """(every PER_LAYER metric, seconds per pass behind each share).

    All values are per traced pass; counts are exact per pass.
    """
    passes = max(passes, 1)
    vals, seconds = {}, {}
    for qual, extras in FUNCTION_METRICS.items():
        vals[f"{qual}.calls"] = t.calls[qual] / passes
        seconds[f"{qual}.self_s"] = t.self_s[qual] / passes
        for e in extras:
            vals[f"{qual}.{e}"] = t.extra[f"{qual}.{e}"] / passes
    vals["polymat.pm_mul.pad_ratio"] = _ratio(t.extra["pm_mul.transform_len"],
                                              t.extra["pm_mul.product_len"])
    vals["polymat.pm_mul.ntt_share"] = _ratio(t.extra["pm_mul.ntt_time"], t.extra["pm_mul.time"])
    vals["approxbasis.series_product.kept_ratio"] = _ratio(t.extra["series_product.kept"],
                                                          t.extra["series_product.product_len"])
    vals["linalg.gauss.calls"] = sum(t.calls[q] for q in GAUSS) / passes
    seconds["linalg.gauss.self_s"] = sum(t.self_s[q] for q in GAUSS) / passes
    vals["solvers.genericity_failures"] = t.extra["solvers.genericity_failures"] / passes
    for layer in ("oracle", "poly"):
        vals[f"{layer}.calls"] = sum(c for q, c in t.calls.items()
                                     if q.startswith(layer + ".")) / passes
    layer_s = t.layer_self_s()
    for layer in LAYERS:
        seconds[f"{layer}.self_s"] = layer_s[layer] / passes
        seconds[f"{layer}.total_s"] = t.total_s[layer] / passes
    for name, sec in seconds.items():
        vals[name[: -len("_s")] + "_share"] = _ratio(sec, traced_pass_s)
    vals["trace.pass_s"] = traced_pass_s
    vals["trace.coverage"] = _ratio(sum(layer_s.values()) / passes, traced_pass_s)
    vals["trace.overhead"] = overhead
    return {k: {"value": vals[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}, seconds
