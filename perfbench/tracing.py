"""Layer spans and boundary counters for a traced benchmark run.

``Tracer.install`` wraps the public functions and methods of every wavelab
module (the layers), from outside the program: each module-level function
is replaced in every module namespace that binds it (``ifs_filters`` and
``solenoid`` import ``multiply`` by name, for instance), and each method is
replaced on its class.  A call that enters a layer from a different layer
opens a span (name, start, end, parent); calls inside the same layer run
unwrapped apart from their counters, so a layer's self time is the time of
its spans minus the time covered by their child spans.

Spans are kept in memory and written out only when the run ends.
Counters are computed from the arguments (or result) at the boundary and
repeat exactly from run to run.  They read plain attributes only, and the
time they take is booked to no layer.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "cli",
    "jsonio",
    "code_space",
    "ifs_filters",
    "circle_filters",
    "classic_mra",
    "solenoid",
    "rkhs_kernels",
    "examples_geometry",
)

# dunder methods that do a layer's work and so count as its public surface
_OPERATORS = {
    "__init__", "__post_init__", "__call__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__",
}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _probe_cells(fn, args, kwargs, result) -> int:
    # verify_filter / endomorphism_check build N**p x N**p indicator-probe blocks
    a = _bound(fn, args, kwargs)
    return a["bank"].spec.N ** (2 * a["probe_depth"])


def _coeff_products(fn, args, kwargs, result) -> int:
    a, b = args
    return len(a._coeffs) * len(b._coeffs) if type(b) is type(a) else 0


def _chaos_steps(fn, args, kwargs, result) -> int:
    a = _bound(fn, args, kwargs)
    return a["samples"] + a["burn_in"]


# (layer, qualified name) -> (counter, count(fn, args, kwargs, result))
COUNTERS = {
    ("code_space", "CylinderFn.__post_init__"):
        ("code_space.cells", lambda fn, a, k, r: a[0].spec.N ** a[0].depth),
    ("code_space", "ruelle_apply"):
        ("code_space.transfer_applies", lambda fn, a, k, r: 1),
    ("ifs_filters", "verify_filter"): ("ifs_filters.probe_cells", _probe_cells),
    ("ifs_filters", "endomorphism_check"): ("ifs_filters.probe_cells", _probe_cells),
    ("circle_filters", "unit_circle_grid"):
        ("circle_filters.grid_points", lambda fn, a, k, r: len(r)),
    ("circle_filters", "LaurentPoly.__call__"):
        ("circle_filters.poly_evals", lambda fn, a, k, r: np.size(a[1])),
    ("circle_filters", "LaurentPoly.__mul__"): ("circle_filters.coeff_products", _coeff_products),
    ("circle_filters", "LaurentPoly.__rmul__"): ("circle_filters.coeff_products", _coeff_products),
    ("classic_mra", "cascade"):
        ("classic_mra.samples_refined", lambda fn, a, k, r: r.iterations * len(r.samples)),
    ("classic_mra", "wavelet_detail"):
        ("classic_mra.samples_refined", lambda fn, a, k, r: len(r)),
    ("examples_geometry", "chaos_game"): ("examples_geometry.chaos_steps", _chaos_steps),
    ("rkhs_kernels", "KernelMatrix.__post_init__"):
        ("rkhs_kernels.kernel_cells", lambda fn, a, k, r: a[0].matrix.size),
    ("jsonio", "load_file"):
        ("jsonio.bytes_in", lambda fn, a, k, r: os.path.getsize(a[0] if a else k["path"])),
    ("jsonio", "dumps"): ("jsonio.bytes_out", lambda fn, a, k, r: len(r.encode("utf-8"))),
}

COUNTER_NAMES = tuple(dict.fromkeys(name for name, _ in COUNTERS.values()))


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.startswith("jsonio.bytes") else "count"


class Tracer:
    """Spans and counters for one session at a time."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [layer, time not its own, span id]
        self.begin()

    def begin(self) -> None:
        """Start a new session: clear spans, self times, calls and counters."""
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        counter = COUNTERS.get((layer, name))
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                span_id = len(self.spans)
                parent = stack[-1][2] if stack else -1
                self.spans.append(None)
                self.calls[layer] += 1
                frame = [layer, 0.0, span_id]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    self.self_s[layer] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                    self.spans[span_id] = (f"{layer}.{name}", start, end, parent)
            if counter is not None:
                start = clock()
                self.counts[counter[0]] += counter[1](fn, args, kwargs, result)
                if stack:  # counting is not the enclosing layer's work
                    stack[-1][1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer's public functions and methods wherever they are bound.

        Generator functions stay unwrapped: their work runs in the caller's loop.
        """
        modules = {layer: importlib.import_module(f"wavelab.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind each wrapped function in every namespace that holds it
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, name, wrapped[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(member, (classmethod, staticmethod)):
                inner = member.__func__
                self._patch(cls, name, type(member)(self._wrap(inner, layer, qualname)))
            elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                self._patch(cls, name, self._wrap(member, layer, qualname))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------
    def session_metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, plus every boundary counter."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTER_NAMES:
            out[name] = self.counts[name]
        return out
