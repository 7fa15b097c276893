"""Per-layer spans recorded from outside the engine.

While installed, a Tracer replaces the engine's layer entry points (listed in
LAYER_FUNCTIONS) with wrappers that record a span per call.  The name is
replaced in every ``bassinv`` module that holds the function, so a call is
caught whichever module made it (``groebner.staircase`` and
``singularity.staircase`` are the same function).  The kernel is wrapped by
patching ``kernel.active()`` to return a proxy of the active backend whose
``reduce_full``, ``spoly`` and ``enumerate_staircase`` record spans.  Nothing
in the engine's files changes, and uninstalling restores every name.

A span is ``[name, start, end, parent index, job index]``; spans stay in
memory and are summarised per pass.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

# Public entry points of each layer.  Left out: polynomials.grevlex_key (a
# sort key called once per term comparison, whose span would cost more than
# its work) and cli's cmd_* functions (reached through a table of
# references, so their time counts in cli.run).
LAYER_FUNCTIONS = {
    "polynomials": ("parse", "partial_derivative", "substitute_parameter",
                    "find_weights", "euler_identity_check"),
    "groebner": ("buchberger", "normal_form", "staircase",
                 "quotient_dimension", "supported_only_at_origin",
                 "graded_staircase_count"),
    "singularity": ("jacobian_ideal", "tjurina_number", "milnor_number",
                    "geometric_genus_qh", "analyze"),
    "resgraph": ("load_graph", "genus_sum", "loop_count",
                 "intersection_matrix", "is_negative_definite"),
    "invariants": ("build_table", "deduce_family", "bass_verdict"),
    "cli": ("run",),
}
KERNEL_FUNCTIONS = ("reduce_full", "spoly", "enumerate_staircase")


class Tracer:
    def __init__(self):
        self.spans = []
        self.results = {}   # span index -> result or argument kept for counters
        self.job = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._proxies = {}

    def _wrap(self, name, fn, keep=None):
        spans, stack, results = self.spans, self._stack, self.results

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.job])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
            if keep is not None:
                results[index] = keep(args, result)
            return result

        return traced

    def _kernel_proxy(self, impl):
        proxy = self._proxies.get(impl)
        if proxy is None:
            attrs = {k: v for k, v in vars(impl).items()
                     if not k.startswith("_")}
            keeps = {"reduce_full": lambda args, result: bool(result[0])}
            for fname in KERNEL_FUNCTIONS:
                attrs[fname] = self._wrap(f"kernel.{fname}", attrs[fname],
                                          keeps.get(fname))
            proxy = self._proxies[impl] = SimpleNamespace(**attrs)
        return proxy

    def install(self):
        from bassinv import kernel
        keeps = {
            "groebner.buchberger": lambda args, result: result,
            "groebner.staircase": lambda args, result: (
                args[0], result.size or 0),
        }
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"bassinv.{layer}"]
            for fname in names:
                original = getattr(module, fname, None)
                if original is not None:
                    key = f"{layer}.{fname}"
                    wrappers[id(original)] = (
                        original, self._wrap(key, original, keeps.get(key)))
        modules = [m for n, m in sys.modules.items()
                   if n == "bassinv" or n.startswith("bassinv.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        active = kernel.active
        self._patched.append((kernel, "active", active))
        kernel.active = lambda: self._kernel_proxy(active())

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def drop(self, first):
        """Forget the spans from index `first` on."""
        del self.spans[first:]
        for index in [i for i in self.results if i >= first]:
            del self.results[index]

    def summary(self, first=0):
        """Per-name totals over spans[first:]: calls, s, self_s and counters."""
        spans = self.spans
        child = defaultdict(float)
        for span in spans[first:]:
            child[span[3]] += span[2] - span[1]
        rows = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        distinct = defaultdict(set)
        extra = defaultdict(int)
        for index in range(first, len(spans)):
            name, start, end, _, job = spans[index]
            row = rows[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[index]
            if index not in self.results:
                continue
            kept = self.results[index]
            if name == "kernel.reduce_full":
                extra[name] += kept
            elif name == "groebner.buchberger":
                distinct[name].add((job, repr(kept)))
            elif name == "groebner.staircase":
                basis, size = kept
                distinct[name].add((job, repr(basis)))
                extra[name] += size
        for name, row in rows.items():
            if name == "kernel.reduce_full":
                row["nonzero_ratio"] = extra[name] / row["calls"]
            elif name == "groebner.buchberger":
                row["distinct_ratio"] = len(distinct[name]) / row["calls"]
            elif name == "groebner.staircase":
                row["distinct_ratio"] = len(distinct[name]) / row["calls"]
                row["monomials"] = extra[name]
        return dict(rows)
