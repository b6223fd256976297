"""Outside-in per-layer attribution for the benchmark's traced run.

The tracer wraps the public entry points of each layer of ``repro`` — the
public functions of the layer's modules and the public methods of the
public classes they define — from outside the library: nothing under
``src/`` is edited.  A wrapper records a span around the call; a layer's
*self time* is its spans' duration minus the part covered by spans of
other layers nested inside them.  Time spent outside every layer (the
protocol wrappers, the logic package, the benchmark's own code) is
reported as ``outside``.

A wrapper stands down when its own layer is the innermost active span, so
the kernel's public recursion (``BDD.ite`` calling ``self.ite``) costs one
extra Python call per node rather than a span per node.  Functions are
re-bound wherever a module holds them, because callers import names with
``from ... import``.  Generators returned by wrapped functions are
iterated in the caller's span.
"""

import functools
import sys
import time
import types

#: ``(layer, module prefixes)``; a module belongs to the layer with the
#: longest matching prefix.
LAYERS = (
    ("spec", ("repro.spec",)),
    ("systems", ("repro.systems", "repro.modeling")),
    ("engine", ("repro.engine",)),
    ("symbolic.compile", ("repro.symbolic",)),
    ("symbolic.bdd", ("repro.symbolic.bdd",)),
    ("interpretation", ("repro.interpretation",)),
    ("temporal", ("repro.temporal",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)


def layer_of(module_name):
    """The layer a module belongs to, or ``None``."""
    best, best_length = None, -1
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            matches = module_name == prefix or module_name.startswith(prefix + ".")
            if matches and len(prefix) > best_length:
                best, best_length = layer, len(prefix)
    return best


class LayerTracer:
    """Per-layer call counts and self time, collected by wrappers
    installed with :meth:`install` and removed with :meth:`uninstall`."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        # Frames are ``[layer, time covered by child spans]``; the root
        # frame collects the time of the outermost spans.
        self._root = [None, 0.0]
        self._stack = [self._root]
        self._patches = []

    def layer_time(self):
        """Seconds spent inside any layer so far."""
        return self._root[1]

    def _wrap(self, layer, function):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if stack[-1][0] is layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return traced

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, extra_modules=()):
        """Wrap every layer's public entry points in the modules loaded now,
        and re-bind the wrapped functions in every ``repro`` module and in
        ``extra_modules``."""
        wrappers = {}
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and name.startswith("repro")
        ]
        for module in modules:
            layer = layer_of(module.__name__)
            if layer is None:
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrappers[value] = self._wrap(layer, value)
                elif isinstance(value, type):
                    self._wrap_class(layer, value)
        for module in modules + list(extra_modules):
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(module, name, wrappers[value])

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, types.FunctionType):
                self._patch(cls, name, self._wrap(layer, raw))
            elif isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, name, type(raw)(self._wrap(layer, raw.__func__)))

    def uninstall(self):
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
