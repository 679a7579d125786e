"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` replaces the public functions of each logderiv module, and
a few methods, with wrappers, at every place the name is bound: the defining
module, every module that imported the name directly (`cli`, `quotients` and
`engine` do), and the package namespace.  A wrapper records the call count,
the inclusive time of outermost calls (`total_s`) and the self time (`self_s`,
the duration minus the time of wrapped callees), and a span (name, start, end,
parent).  Kernels and the row-basis methods, called tens of thousands of
times, are counted and timed but leave no span; the per-monomial kernels
(`mono_mul`, `mono_div`, `mono_lcm`) are not wrapped, and term-order keys are
only counted.  Everything stays in memory until `write()`.

Figures are gathered per operation and kept only for operations that finish,
so that the counts of an operation cut by its budget, which depend on how far
it got, never enter the totals; such an operation leaves one root span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = (
    "poly", "orders", "kernels", "engine", "exactla", "ideals",
    "divisors", "quotients", "sampling", "jets", "parse", "cli",
)

# term-map kernels, whichever backend is active; the per-monomial ones
# (mono_mul, mono_div, mono_lcm) are far too fine-grained to wrap
KERNELS = ("dict_add", "dict_sub", "dict_scale", "dict_mul", "dict_axpy", "vec_axpy")

# (layer, class, method) pairs wrapped besides module-level functions
METHODS = (
    ("exactla", "RowBasis", "insert"),
    ("exactla", "RowBasis", "reduce"),
    ("poly", "PolyMatrix", "det"),
    ("ideals", "IdealData", "basis_entries"),
    ("quotients", "QuotientAlgebra", "reduce"),
)

# counted and timed, but recorded without a span
NO_SPAN = {
    "kernels.dict_add", "kernels.dict_sub", "kernels.dict_scale",
    "kernels.dict_mul", "kernels.dict_axpy", "kernels.vec_axpy",
    "exactla.insert", "exactla.reduce", "engine.h_comp",
}

REDUCERS = ("engine.division_nf", "engine.mora_nf")
PEAKS = ("engine.peak_terms", "engine.peak_coeff_bits")
COUNTERS = (
    "engine.spair_nf.count", "engine.spair_nf.zero", "engine.reduction_steps",
    "jets.unknowns", "ideals.min_generators.std_calls", "orders.key.calls",
) + PEAKS


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.funcs = {}     # name -> [calls, total_s, self_s], finished operations
        self.counters = {}  # derived counts and peaks, finished operations
        self.spans = []     # (id, name, start, end, parent id, finished?)
        self.names = []     # every wrapped function
        self.next_id = 0
        self._reset_op()

    # -- per-operation bookkeeping --------------------------------------------

    def _reset_op(self):
        self.stack = []
        self.active = {}
        self.op_funcs = {}
        self.op_counters = {}
        self.op_spans = []
        self.key_calls = 0

    def begin_op(self, label):
        self._reset_op()
        self.root = [f"op:{label}", 0.0, self._new_id()]
        self.root_start = time.perf_counter()
        self.stack.append(self.root)

    def end_op(self, ok):
        end = time.perf_counter()
        root_id = self.root[2]
        if ok:
            for name, st in self.op_funcs.items():
                acc = self.funcs.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += st[i]
            self.op_counters["orders.key.calls"] = self.key_calls
            for name, v in self.op_counters.items():
                if name in PEAKS:
                    self.counters[name] = max(self.counters.get(name, 0), v)
                else:
                    self.counters[name] = self.counters.get(name, 0) + v
            self.spans.extend(self.op_spans)
        self.spans.append(
            (root_id, self.root[0], self.root_start - self.origin, end - self.origin, None, ok)
        )
        self._reset_op()

    def _new_id(self):
        self.next_id += 1
        return self.next_id

    def _count(self, name, k=1):
        self.op_counters[name] = self.op_counters.get(name, 0) + k

    def _peak(self, name, v):
        if v > self.op_counters.get(name, 0):
            self.op_counters[name] = v

    # -- hooks: counts that need arguments, results or the caller ---------------

    def _hook(self, name, args, result, parent):
        if name == "engine.normal_form" and parent == "engine.std":
            self._count("engine.spair_nf.count")
            if not result:
                self._count("engine.spair_nf.zero")
        elif name == "kernels.vec_axpy" and parent in REDUCERS:
            self._count("engine.reduction_steps")
            self._peak("engine.peak_terms", len(result))
            bits = 0
            for q in result.values():
                b = max(q.numerator.bit_length(), q.denominator.bit_length())
                if b > bits:
                    bits = b
            self._peak("engine.peak_coeff_bits", bits)
        elif name == "exactla.nullspace" and parent == "jets.jet_derlog":
            self._count("jets.unknowns", len(args[1]))
        elif name == "engine.std" and self.active.get("ideals.min_generators"):
            self._count("ideals.min_generators.std_calls")

    HOOKED = {"engine.normal_form", "kernels.vec_axpy", "exactla.nullspace", "engine.std"}

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name, fn):
        self.names.append(name)
        tracer = self
        perf = time.perf_counter
        with_span = name not in NO_SPAN
        hooked = name in self.HOOKED

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, tracer._new_id() if with_span else None]
            active = tracer.active
            active[name] = active.get(name, 0) + 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth = active[name] - 1
                active[name] = depth
                st = tracer.op_funcs.get(name)
                if st is None:
                    st = tracer.op_funcs[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[2] += dt - frame[1]
                if depth == 0:
                    st[1] += dt
                if parent is not None:
                    parent[1] += dt
                if with_span:
                    tracer.op_spans.append(
                        (frame[2], name, t0 - tracer.origin, t0 + dt - tracer.origin,
                         parent[2] if parent is not None else None, True)
                    )
            if hooked:
                tracer._hook(name, args, result, parent[0] if parent is not None else None)
            return result

        return traced

    def _wrap_key(self, fn):
        tracer = self

        def key(order, e):
            tracer.key_calls += 1
            return fn(order, e)

        return key

    def install(self):
        """Wrap every traced name in every logderiv module loaded."""
        mods = {name: sys.modules[f"logderiv.{name}"] for name in LAYERS}
        loaded = [m for n, m in sys.modules.items() if n == "logderiv" or n.startswith("logderiv.")]
        replace = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if layer == "kernels":
                    wanted = attr in KERNELS
                else:
                    wanted = (
                        inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                    )
                if wanted:
                    replace[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                w = replace.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
        for layer, cls, meth in METHODS:
            klass = getattr(mods[layer], cls)
            setattr(klass, meth, self._wrap(f"{layer}.{meth}", getattr(klass, meth)))
        orders = mods["orders"]
        orders.TermOrder.key = self._wrap_key(orders.TermOrder.key)

    # -- output -----------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, ok in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                if parent is None:
                    rec["ok"] = ok
                fh.write(json.dumps(rec) + "\n")

    def summary(self):
        funcs = {name: self.funcs.get(name, (0, 0.0, 0.0)) for name in sorted(self.names)}
        return {
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in funcs.items()
            },
            "counters": {name: self.counters.get(name, 0) for name in COUNTERS},
        }
