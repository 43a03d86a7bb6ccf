"""Tracing from outside the program: spans around calls into each layer.

install() wraps every public function that a steintile layer module defines
and rebinds the wrapper wherever the function is bound, in its own module and
in every module that imported it by name (group_tiling.quotient,
lattice.cyclic_subgroups, ...). Intra-module calls go through the module's
globals, so they are traced too.

Each call becomes a span (name, start, end, parent, request id) kept in
memory in flat arrays and written out at the end. A layer's self time is the
sum of its spans' durations minus the durations of their direct children.
Work counters are taken at the same boundaries from arguments and results;
<layer>.calls counts calls that returned and <layer>.errors calls that raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("abelian", "copula", "exactlp", "group_tiling", "lattice", "pp1d", "density", "cli")

ROOT_SPAN = "bench.request"


def _size(x):
    return getattr(x, "order", 0)


# qualified name -> f(args, kwargs, result) -> iterable of (counter, amount)
COUNTERS = {
    "copula.transportation_feasible":
        lambda a, k, r: (("copula.patterns_tried", 1), ("copula.feasible", int(bool(r)))),
    "exactlp.feasible_nonnegative":
        lambda a, k, r: (("exactlp.columns", len(a[0][0]) if a[0] else 0),
                         ("exactlp.feasible", int(r is not None))),
    "abelian.quotient": lambda a, k, r: (("abelian.elements", _size(a[0])),),
    "abelian.cyclic_subgroups": lambda a, k, r: (("abelian.elements", _size(a[0])),),
    "abelian.subgroup_from_generators": lambda a, k, r: (("abelian.elements", r.order),),
    "pp1d.convolve": lambda a, k, r: (("pp1d.pieces_out", len(r.pieces)),),
    "pp1d.fold": lambda a, k, r: (("pp1d.pieces_out", len(r.pieces)),),
    "lattice.make_lattice": lambda a, k, r: (("lattice.lattices_out", 1),),
    "lattice.dual": lambda a, k, r: (("lattice.lattices_out", 1),),
    "lattice.sum_and_intersection": lambda a, k, r: (("lattice.lattices_out", 2),),
    "lattice.many_relations_family":
        lambda a, k, r: (("lattice.lattices_out", len(r.lattices)),),
    "density.multiples_density_exact":
        lambda a, k, r: (("density.subsets", 2 ** int(a[0]) - 1),),
    "density.multiples_count_sieve":
        lambda a, k, r: (("density.sieve_cells", int(a[1] if len(a) > 1 else k["X"])),),
    "cli.render": lambda a, k, r: (("cli.bytes_out", len(r.encode())),),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counters = Counter()
        self._stack = []
        self._request_id = -1
        self._patched = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name, layer):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return i

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def request_span(self, request_id, fn):
        """Run fn() as the root span of one request."""
        self._request_id = request_id
        idx = self._open(self._name_id(ROOT_SPAN, "bench"))
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        name_id = self._name_id(qual, layer)
        hook = COUNTERS.get(qual)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{layer}.errors"] += 1
                raise
            finally:
                self._close(idx)
            counters[f"{layer}.calls"] += 1
            if hook is not None:
                for key, amount in hook(args, kwargs, result):
                    counters[key] += amount
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"steintile.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "steintile" and not modname.startswith("steintile."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        selft = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                selft[p] -= dur[i]
        return dur, selft

    def layer_self_s(self, request_id=None):
        _, selft = self.self_times()
        out = Counter()
        for i, s in enumerate(selft):
            if request_id is None or self.request[i] == request_id:
                out[self.layer_of[self.name[i]]] += s
        return out

    def write(self, directory):
        """Write spans as flat binary columns plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        columns = {"name": self.name, "start": self.start, "end": self.end,
                   "parent": self.parent, "request": self.request}
        for key, col in columns.items():
            with open(os.path.join(directory, f"{key}.{col.typecode}"), "wb") as fh:
                col.tofile(fh)
        with open(os.path.join(directory, "index.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.name), "names": self.names,
                       "layers": self.layer_of, "byteorder": sys.byteorder,
                       "columns": {k: f"{k}.{c.typecode}" for k, c in columns.items()}},
                      fh, indent=1)


def layer_metrics(counters, selfs):
    """Every per-layer metric as {name: (value, unit)}, zero where a layer
    was idle, from work counters and per-layer self seconds."""
    c = Counter(counters)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
        m[f"{layer}.calls"] = (c[f"{layer}.calls"], "count")
        m[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
    tried = c["copula.patterns_tried"]
    m["copula.patterns_tried"] = (tried, "count")
    m["copula.feasible_ratio"] = (c["copula.feasible"] / tried if tried else 0.0, "ratio")
    calls = c["exactlp.calls"]
    m["exactlp.columns"] = (c["exactlp.columns"], "count")
    m["exactlp.feasible_ratio"] = (c["exactlp.feasible"] / calls if calls else 0.0, "ratio")
    for key in ("abelian.elements", "pp1d.pieces_out", "lattice.lattices_out",
                "density.subsets", "density.sieve_cells"):
        m[key] = (c[key], "count")
    m["cli.bytes_out"] = (c["cli.bytes_out"], "bytes")
    return m
