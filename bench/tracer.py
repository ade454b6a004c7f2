"""Traced runs: wrap each roughalg module's public functions from outside.

Modules import kernels by name (`from .approx import approximate`), so each
wrapper replaces the original in *every* roughalg module namespace that
holds it.  Calls aggregate into a call tree keyed by (parent node,
function): a leaf called millions of times costs one node, not one record
per call.  Commands and suite/search calls additionally get a span (name,
start, end, parent).  A node's self time is its busy time minus its
children's busy time; per-layer self times plus the time spent outside any
roughalg call add up to the traced wall time.

Module imports are timed the same way (each module's exec, minus the
submodules it imports), so a layer's self time includes its import cost.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time

PACKAGE = "roughalg"
LAYERS = ("scenario", "approx", "algebra", "rough_structures", "morphisms",
          "enumeration", "report", "cli", "fixtures")
# Calls that get a span of their own, besides the command (cli.main).
SPAN_FUNCS = {("enumeration", "approx_law_suite"), ("enumeration", "p22_suite"),
              ("enumeration", "composition_suite_result"), ("enumeration", "search"),
              ("cli", "main")}


class Node:
    __slots__ = ("layer", "name", "count", "busy", "children")

    def __init__(self, layer: str, name: str):
        self.layer, self.name = layer, name
        self.count = 0
        self.busy = 0.0
        self.children: dict[str, Node] = {}

    def child(self, layer: str, name: str) -> "Node":
        key = f"{layer}.{name}"
        node = self.children.get(key)
        if node is None:
            node = self.children[key] = Node(layer, name)
        return node


class Tracer:
    def __init__(self):
        self.root = Node("harness", "run")
        self.stack = [self.root]
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.span_stack = [-1]
        self.clock = time.perf_counter

    # import timing

    def install_import_timer(self) -> None:
        sys.meta_path.insert(0, _TimedFinder(self))

    # function wrapping

    def _wrap(self, layer: str, name: str, fn):
        tracer, clock = self, self.clock
        spanned = (layer, name) in SPAN_FUNCS

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                node = tracer.stack[-1].child(layer, name)
                node.count += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer.stack.append(node)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        node.busy += clock() - t0
                        tracer.stack.pop()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = tracer.stack[-1].child(layer, name)
            tracer.stack.append(node)
            if spanned:
                sid = len(tracer.spans)
                tracer.spans.append((f"{layer}.{name}", clock(), 0.0, tracer.span_stack[-1]))
                tracer.span_stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                node.busy += t1 - t0
                node.count += 1
                tracer.stack.pop()
                if spanned:
                    tracer.span_stack.pop()
                    s = tracer.spans[sid]
                    tracer.spans[sid] = (s[0], s[1], t1, s[3])
        return wrapper

    def patch(self) -> None:
        """Wrap every public function of every roughalg module, in place."""
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(layer, name, obj)
        for mod in list(modules.values()) + [sys.modules[PACKAGE]]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, name, wrapped[id(obj)])

    # reports

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per layer, and call counts per layer.function."""
        selfs: dict[str, float] = {}
        counts: dict[str, int] = {}

        def walk(node: Node) -> None:
            own = node.busy - sum(c.busy for c in node.children.values())
            selfs[node.layer] = selfs.get(node.layer, 0.0) + own
            key = f"{node.layer}.{node.name}"
            counts[key] = counts.get(key, 0) + node.count
            for c in node.children.values():
                walk(c)

        for c in self.root.children.values():
            walk(c)
        return selfs, counts


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, tracer: Tracer, inner, layer: str):
        self.tracer, self.inner, self.layer = tracer, inner, layer

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module):
        node = self.tracer.stack[-1].child(self.layer, "import")
        self.tracer.stack.append(node)
        t0 = self.tracer.clock()
        try:
            self.inner.exec_module(module)
        finally:
            node.busy += self.tracer.clock() - t0
            node.count += 1
            self.tracer.stack.pop()


class _TimedFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        layer = "package" if fullname == PACKAGE else fullname.rsplit(".", 1)[1]
        spec.loader = _TimedLoader(self.tracer, spec.loader, layer)
        return spec
