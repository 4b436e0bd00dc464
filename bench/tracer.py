"""Spans around calls into puremeasure, recorded from outside the package.

`Tracer.install()` rebinds every public function and public method of the
eight package modules to a wrapper that times the call as a span of its
module's layer.  A layer's self time is its spans' time minus the time of
the spans they caused.  Counts are taken at the same boundaries:

- `calls`: spans opened in the layer, nested ones included;
- `points`: rows of the sample block passed in, counted when the call
  enters the layer from another one (geometry, expressions);
- quadrature `samples`, `hits` and `capped` from each estimator call;
- density_engine `levels`: per-level reference boxes built (`_level_bbox`);
- surface_rep `nodes`: parametric boundary nodes built.

Closures that a layer builds and hands to the estimator (the per-level
reference weight, finite-difference gradients) are timed as spans of the
layer that built them, so their sampling work is charged there.

Spans are aggregated as they close, so memory stays flat however many
calls a pass makes.  Generator functions are not wrapped: their work runs
while the caller iterates and is charged to the caller.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "geometry",
    "quadrature",
    "expressions",
    "density_engine",
    "trace_gradient",
    "surface_rep",
    "fa_lattice",
    "cli",
)
INTEGRAND = "integrand"  # the benchmark's own integrands and weights


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.by_function = defaultdict(lambda: [0, 0.0])  # qualname -> [calls, self seconds]
        self._stack: list[list] = []  # open spans: [layer, child seconds]

    def wrap(self, layer: str, name: str, fn):
        """Return fn timed as a span `name` of `layer`."""
        stack = self._stack
        on_return = _ON_RETURN.get(name)

        def traced(*args, **kwargs):
            entering = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                self.self_s[layer] += own
                self.calls[layer] += 1
                stats = self.by_function[name]
                stats[0] += 1
                stats[1] += own
            if entering and layer in _POINT_LAYERS:
                self.counts[f"{layer}.points"] += _rows(args)
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind puremeasure's public callables to traced wrappers, in place."""
        package = importlib.import_module("puremeasure")
        modules = {layer: importlib.import_module(f"puremeasure.{layer}") for layer in LAYERS}
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        wrapped: dict[int, object] = {}

        def replacement(fn, layer):
            if id(fn) not in wrapped:
                key = f"{layer}.{fn.__qualname__}"
                inner = self.wrap(layer, key, fn) if _public(fn) else fn
                if key in _COUNTERS:
                    inner = self._counted(_COUNTERS[key], inner)
                if key in _FACTORIES:
                    inner = self._factory(layer, key, inner)
                wrapped[id(fn)] = inner
            return wrapped[id(fn)]

        def selected(fn) -> bool:
            if not (inspect.isfunction(fn) and fn.__module__ in layer_of):
                return False
            key = f"{layer_of[fn.__module__]}.{fn.__qualname__}"
            return _public(fn) or key in _COUNTERS or key in _FACTORIES

        for layer, module in modules.items():
            for cls in vars(module).values():
                if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                    continue
                for attr, member in list(vars(cls).items()):
                    if isinstance(member, (classmethod, staticmethod)) and selected(member.__func__):
                        setattr(cls, attr, type(member)(replacement(member.__func__, layer)))
                    elif selected(member):
                        setattr(cls, attr, replacement(member, layer))

        for module in (package, *modules.values()):
            for name, fn in list(vars(module).items()):
                if selected(fn):
                    setattr(module, name, replacement(fn, layer_of[fn.__module__]))

    def _counted(self, count, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, result)
            return result

        return counted

    def _factory(self, layer: str, key: str, fn):
        def factory(*args, **kwargs):
            return self.wrap(layer, f"{key}.<result>", fn(*args, **kwargs))

        return factory

    def metrics(self) -> dict:
        out = {}
        for layer in (*LAYERS, INTEGRAND):
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counts)
        return out

    def functions(self) -> dict:
        return {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(self.by_function.items())}


_POINT_LAYERS = ("geometry", "expressions")


def _public(fn) -> bool:
    public = not fn.__name__.startswith("_") or fn.__name__ == "__call__"
    return public and not inspect.isgeneratorfunction(fn)


def _rows(args) -> int:
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape is not None and len(shape) == 2:
            return int(shape[0])
    return 0


def _estimator_counts(counts, args, kwargs, result) -> None:
    spec = kwargs.get("spec")
    if spec is None:
        spec = next(a for a in args if type(a).__name__ == "SampleSpec")
    counts["quadrature.samples"] += 2 * spec.pairs
    counts["quadrature.hits"] += int(result.hits)
    counts["quadrature.capped"] += int(getattr(result, "capped", getattr(result, "nonfinite", 0)))


_ON_RETURN = {
    f"quadrature.{name}": _estimator_counts
    for name in ("mc_volume", "mc_integral", "mc_weighted_mean", "ess_range")
}


def _count_level(counts, bbox) -> None:
    counts["density_engine.levels"] += 1


def _count_nodes(counts, quadrature) -> None:
    counts["surface_rep.nodes"] += len(quadrature[0])


# Private helpers counted at each call, without a span of their own.
_COUNTERS = {
    "density_engine._level_bbox": _count_level,
    "surface_rep._boundary_quadrature": _count_nodes,
}

# Callables whose returned closure is traced as a span of the same layer.
_FACTORIES = {
    "density_engine._reference_weight",
    "trace_gradient.ScalarField.gradient_at_scale",
    "trace_gradient._DerivedField.gradient_at_scale",
}
