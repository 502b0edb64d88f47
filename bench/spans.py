"""
Spans and counts at the layer boundaries of ``affinetl``, recorded from
outside the package.

A layer is a module of the package.  A layer boundary is a function that one
module imports from another: ``from .x import f`` binds a separate name in
each importing module, so :func:`install` replaces ``f`` in every module
namespace that binds it, its home module included, so that calls inside a
layer show as well.  Three boundaries that no namespace scan finds are added
by name: ``morphisms._f_image`` (imported inside ``traces._rho_word`` at call
time; its spans are named after the map they serve, ``E_map`` or
``F_map``), ``verify.run_suite`` (reached through the module object by the
CLI) and ``cli.main`` (the benchmark's own entry point).  ``Scalar``
arithmetic is wrapped at class level.

Each call records a span (name, parent span, op index, start, end) in
compact in-memory arrays, written out once, as gzipped JSON, by
:meth:`Tracer.write`.  Self time, a span's duration minus the part covered
by its child spans, is summed as spans close.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "affinetl"
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv",
)
# per-layer metrics that are a peak over calls; the others are sums
PEAKS = ("scalars.max_poly_len", "algebra.peak_terms")
# word-keyed caches whose growth the per-layer metrics report
CACHES = {
    "morphisms.f_image": ("morphisms", "_f_image"),
    "traces.rho_word": ("traces", "_rho_word"),
    "traces.trace_f_word": ("traces", "_trace_f_word"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.op_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []  # open spans: [span index, name, child seconds]
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.stack.append([len(self.start), name, 0.0])
        self.name_of.append(nid)
        self.parent.append(self.stack[-2][0] if len(self.stack) > 1 else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        t = time.perf_counter()
        idx, name, child = self.stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def wrap(self, fn, name, hook=None):
        """``fn`` recording a span per call; ``name`` is a string or a
        function of the call's arguments, ``hook(args, result)`` updates
        counts inside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                self._close()

        return traced

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [n, p, o, round(s - t0, 7), round(e - t0, 7)]
            for n, p, o, s, e in zip(self.name_of, self.parent, self.op_of, self.start, self.end)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "op", "start_s", "end_s"],
                       "spans": spans}, fh, separators=(",", ":"))


def _modules():
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported package in place."""
    mods = _modules()
    boundary: dict = {}
    for mod_name, mod in mods.items():
        for obj in vars(mod).values():
            home = getattr(obj, "__module__", None)
            if callable(obj) and not isinstance(obj, type) and home in mods and home != mod_name:
                boundary[id(obj)] = (obj, f"{home.rpartition('.')[2]}.{obj.__name__}")
    for layer, attr in (("morphisms", "_f_image"), ("verify", "run_suite"), ("cli", "main")):
        obj = getattr(mods[f"{PACKAGE}.{layer}"], attr)
        boundary[id(obj)] = (obj, f"{layer}.{attr}")

    hooks = {
        "algebra.reduce_letters": lambda args, r: tracer.counts.update(
            {"algebra.reduce_letters.letters_in": len(args[1])}),
        "algebra.multiply": lambda args, r: _multiply_hook(tracer, args, r),
        "verify.run_suite": lambda args, r: _run_suite_hook(tracer, r),
    }
    names = {"morphisms._f_image": lambda args: f"morphisms.{args[0]}_map"}
    for obj, name in boundary.values():
        wrapped = tracer.wrap(obj, names.get(name, name), hooks.get(name))
        for mod in mods.values():
            for attr, bound in list(vars(mod).items()):
                if bound is obj:
                    setattr(mod, attr, wrapped)

    scalar_cls = mods[f"{PACKAGE}.scalars"].Scalar
    hook = functools.partial(_scalar_hook, tracer, scalar_cls)
    for op in SCALAR_OPS:
        setattr(scalar_cls, op, tracer.wrap(getattr(scalar_cls, op), f"scalars.Scalar.{op}", hook))


def _multiply_hook(tracer, args, result):
    x, y = args[0], args[1]
    tracer.counts["algebra.multiply.term_pairs"] += len(x.terms) * len(y.terms)
    peak = max(len(x.terms), len(y.terms), len(result.terms))
    if peak > tracer.counts["algebra.peak_terms"]:
        tracer.counts["algebra.peak_terms"] = peak


def _run_suite_hook(tracer, results):
    # "all" runs each suite through run_suite again: count the outermost call
    if not any(frame[1] == "verify.run_suite" for frame in tracer.stack[:-1]):
        tracer.counts["verify.checks_passed"] += sum(1 for r in results if r.ok)


def _scalar_hook(tracer, scalar_cls, args, result):
    if isinstance(result, scalar_cls):
        n = max(len(result.num), len(result.den))
        if n > tracer.counts["scalars.max_poly_len"]:
            tracer.counts["scalars.max_poly_len"] = n


def cache_counts() -> dict:
    """hits, misses and size of the word-keyed caches, by metric name."""
    mods = _modules()
    out = {}
    for metric, (layer, attr) in CACHES.items():
        fn = getattr(mods[f"{PACKAGE}.{layer}"], attr)
        while not hasattr(fn, "cache_info"):  # under a tracing wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out.update({f"{metric}.hits": info.hits, f"{metric}.misses": info.misses,
                    f"{metric}.size": info.currsize})
    return out


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced child, by name."""
    self_s = tracer.self_s
    out = {
        "scalars.ops": sum(c for n, c in tracer.calls.items() if n.startswith("scalars.Scalar.")),
        "scalars.self_s": sum(s for n, s in self_s.items() if n.startswith("scalars.")),
        "scalars.max_poly_len": tracer.counts["scalars.max_poly_len"],
        "coxeter.cartier_foata.calls": tracer.calls["coxeter._cartier_foata_letters"],
        "coxeter.cartier_foata.self_s": self_s["coxeter._cartier_foata_letters"],
        "algebra.reduce_letters.calls": tracer.calls["algebra.reduce_letters"],
        "algebra.reduce_letters.letters_in": tracer.counts["algebra.reduce_letters.letters_in"],
        "algebra.reduce_letters.self_s": self_s["algebra.reduce_letters"],
        "algebra.multiply.calls": tracer.calls["algebra.multiply"],
        "algebra.multiply.term_pairs": tracer.counts["algebra.multiply.term_pairs"],
        "algebra.multiply.self_s": self_s["algebra.multiply"],
        "algebra.peak_terms": tracer.counts["algebra.peak_terms"],
        "morphisms.braid_image.self_s": self_s["morphisms.braid_image"],
        "morphisms.E_map.self_s": self_s["morphisms.E_map"],
        "morphisms.F_map.self_s": self_s["morphisms.F_map"],
        "traces.rho.self_s": self_s["traces.rho"],
        "traces.jones_trace.self_s": self_s["traces.jones_trace"],
        "traces.solve_alpha_beta.self_s": self_s["traces.solve_alpha_beta"],
        "verify.run_suite.self_s": self_s["verify.run_suite"],
        "verify.checks_passed": tracer.counts["verify.checks_passed"],
        "cli.main.self_s": self_s["cli.main"],
    }
    out.update(cache_counts())
    return out
