"""Span tracing of multired's layers, installed from outside the package.

`Tracer.install()` replaces each function listed in `TRACED` by a wrapper
that records one span per call: the layer's name, start and end times,
the enclosing span and the benchmark operation (query or trial) it served.
A function is replaced in every `multired` module namespace that holds it,
so calls through names imported with `from .reduction import apply_left`
are traced as well; `MonoidContext` methods are replaced on the class, so
recursion through `self` is traced.  Spans live in typed arrays while the
workload runs and are written out once, by `write_spans`, at the end.

Some layers also count work at the same boundary: memo growth across a
call (`MEMOS`; a call that adds nothing to the memo is a hit), and moves
that applied, graph nodes and reduction steps (`RESULTS`).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, owner, attribute).  owner is a class name inside the module, or
# None for a module-level function.
TRACED = (
    ("monoid", "MonoidContext", "basic_table"),
    ("monoid", "MonoidContext", "lcm_oracle"),
    ("monoid", "MonoidContext", "multiples"),
    ("monoid", "MonoidContext", "canonical"),
    ("monoid", "MonoidContext", "divides"),
    ("monoid", "MonoidContext", "multiply"),
    ("monoid", "MonoidContext", "lcm"),
    ("monoid", "MonoidContext", "gcd"),
    ("monoid", "MonoidContext", "divisors"),
    ("reduction", None, "apply_left"),
    ("reduction", None, "apply_right"),
    ("reduction", None, "reduct_graph"),
    ("reduction", None, "reduce_left"),
    ("reduction", None, "red_tame"),
    ("reduction", None, "reducers"),
    ("reduction", None, "within_step_bound"),
    ("harness", None, "assemble_cross"),
    ("harness", None, "lcm_expand"),
    ("harness", None, "validate_certificate"),
    ("harness", None, "run_trial"),
    ("cli", None, "main"),
    ("multifraction", None, "parse_multifraction"),
    ("multifraction", None, "format_multifraction"),
    ("vankampen", None, "van_kampen"),
)

# Layers of the package that no workload reaches at a measurable rate.
UNMEASURED = ("presentation", "signedwords")


# Memo layers: name -> the MonoidContext memo it fills.  A call that leaves
# the memo's size unchanged is a hit; `added` sums the growth.
MEMOS = {
    "monoid.canonical": "_canon",
    "monoid.divides": "_divides",
    "monoid.lcm": "_lcm",
}

# Layers counted by their result: name -> (counter, amount for one result).
RESULTS = {
    "reduction.apply_left": ("applied", lambda result: result is not None),
    "reduction.apply_right": ("applied", lambda result: result is not None),
    "reduction.reduct_graph": ("nodes", lambda result: len(result.nodes)),
    "reduction.reduce_left": ("steps", lambda result: len(result.moves)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counters: dict[str, int] = {}
        self.op = -1  # current operation; -1 while setting up
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, name: str, fn):
        if name == "monoid.basic_table":
            # one span name per side: the RIGHT build is the expensive one
            ids = {side: self._name_id(f"{name}.{side}") for side in ("left", "right")}
            span_id = lambda args: ids[args[1].value]
        else:
            nid = self._name_id(name)
            span_id = lambda args: nid
        stack = self._stack
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_op = self.span_parent, self.span_op
        clock = time.perf_counter
        tracer = self

        def open_span(args):
            k = len(s_start)
            s_name.append(span_id(args))
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(tracer.op)
            s_end.append(0.0)
            stack.append(k)
            s_start.append(clock())
            return k

        def close_span(k):
            s_end[k] = clock()
            stack.pop()

        counters = self.counters
        if name in MEMOS:
            memo, hits, added = MEMOS[name], f"{name}.hits", f"{name}.added"
            counters[hits] = counters[added] = 0

            def wrapper(*args, **kwargs):
                before = len(getattr(args[0], memo, ()))
                k = open_span(args)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(k)
                growth = len(getattr(args[0], memo, ())) - before
                counters[hits] += growth == 0
                counters[added] += growth
                return result
        elif name in RESULTS:
            counter, amount = RESULTS[name]
            key = f"{name}.{counter}"
            counters[key] = 0

            def wrapper(*args, **kwargs):
                k = open_span(args)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(k)
                counters[key] += amount(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                k = open_span(args)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(k)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function wherever the package binds it."""
        for mod_name in {m for m, _, _ in TRACED}:
            importlib.import_module(f"multired.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "multired" or n.startswith("multired.")]
        for mod_name, owner_name, attr in TRACED:
            module = sys.modules[f"multired.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part child spans cover.

        Spans nest (one thread), so the covered part of a span is the sum
        of its children's durations."""
        n = len(self.span_start)
        own = array("d", (self.span_end[k] - self.span_start[k] for k in range(n)))
        out = [0.0] * len(self.names)
        parent = self.span_parent
        for k in range(n):
            p = parent[k]
            if p >= 0:
                own[p] -= self.span_end[k] - self.span_start[k]
        for k in range(n):
            out[self.span_name[k]] += own[k]
        return dict(zip(self.names, out))

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: number of calls and total (inclusive) duration."""
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        for k in range(len(self.span_start)):
            nid = self.span_name[k]
            calls[nid] += 1
            inclusive[nid] += self.span_end[k] - self.span_start[k]
        return dict(zip(self.names, calls)), dict(zip(self.names, inclusive))

    def write_spans(self, path: str) -> None:
        """Columnar dump: a JSON header line, then the five arrays as raw
        native-endian bytes in header order."""
        columns = [
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
            ("op", self.span_op),
        ]
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, a in columns:
                a.tofile(fh)
