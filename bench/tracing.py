"""Span and count tracing of vacuumlab from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
module (one module of ``src/vacuumlab/`` per layer) with wrappers, on every
name a caller looks up: a function imported by name into another module
(``integrate.vacuum_velocity``) or fetched at call time
(``from .particle import _q_em_terms``) is replaced wherever it is bound.
``uninstall`` puts the originals back.

A span records name, start, end and parent.  Every span adds to
per-name aggregates (calls, total time, self time); spans outside the hot
set are also kept as records.  The hot set (scalar field methods,
particle helpers, geometry functions) runs millions of times per pass, so
only its aggregates are kept.  ``Vec3`` arithmetic and
``lagrangian_density`` are counted, not timed: a span per call would
multiply the traced run's cost, and their time stays in the caller's self
time.

Self time is a span's duration minus the durations of its direct
children.  All spans nest inside harness job spans on one thread, so the
self times of one traced pass add up to the summed job-span durations.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = (
    "cli",
    "integrate",
    "particle",
    "potentials",
    "geometry",
    "strings",
    "conformal",
    "conformal_cases",
    "variational",
)

# integrate: only the three entry points.  The tuple RK4 steppers,
# _pack/_unpack and the audit bookkeeping are integrate_particle's self time.
INTEGRATE_SPANS = ("integrate_particle", "integrate_string", "relax_elliptic")
PRIVATE_SPANS = {"particle": ("_q_em_terms",)}
COUNT_ONLY = {"variational": ("lagrangian_density",)}
VEC3_OPS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__",
    "dot", "cross", "norm2", "norm", "as_array", "is_finite",
)
SCALAR_FIELD_CALLS = ("wbar", "grad_wbar", "dwbar_dt", "vecpot", "grad_vecpot", "dvecpot_dt")
ARRAY_FIELD_CALLS = ("wbar_many", "grad_wbar_many", "dwbar_dt_many")


def _is_hot(layer: str, qualname: str) -> bool:
    if layer in ("particle", "geometry"):
        return "." not in qualname or qualname.startswith("Projector3.")
    return layer == "potentials" and "." in qualname and not qualname.endswith("_many")


def _targets(layer: str, module):
    """(owner, attribute, function, span name) of everything wrapped in a layer."""
    if layer == "integrate":
        return [(module, n, getattr(module, n), f"integrate.{n}") for n in INTEGRATE_SPANS]
    out = []
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not attr.startswith("_") or attr in PRIVATE_SPANS.get(layer, ()):
                out.append((module, attr, obj, f"{layer}.{attr}"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
            for mattr, mobj in vars(obj).items():
                if not inspect.isfunction(mobj):
                    continue  # properties, static and class methods stay as they are
                if mattr.startswith("_") and not (attr == "Vec3" and mattr in VEC3_OPS):
                    continue
                out.append((obj, mattr, mobj, f"{layer}.{attr}.{mattr}"))
    return out


class Tracer:
    """Wraps the vacuumlab layers; collects spans and counts in memory."""

    def __init__(self):
        self.clock = time.perf_counter
        # frame: [start, child time, id of the nearest recorded span]
        self.stack: List[list] = [[0.0, 0.0, 0]]
        self.aggregates: Dict[str, list] = {}   # name -> [calls, total s, self s]
        self.counts: Dict[str, int] = {}
        self.records: List[tuple] = []          # (id, name, start, end, parent id)
        self._next_id = 1
        self._restore: List[tuple] = []
        self._cells: Dict[str, list] = {}

    # --- wrappers -------------------------------------------------------------

    def _span(self, fn: Callable, name: str, record: bool, on_result=None) -> Callable:
        stack, clock = self.stack, self.clock
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        records = self.records
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[2]
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                parent[1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if record:
                    records.append((span_id, name, frame[0], end, parent[2]))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn: Callable, name: str) -> Callable:
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a recorded span (the harness job span)."""
        return self._span(fn, name, record=True)(*args)

    def _add_count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "integrate.integrate_particle": lambda tr: self._add_count("integrate.steps", len(tr.samples) - 1),
            "integrate.integrate_string": lambda tr: self._add_count("integrate.steps", len(tr.samples) - 1),
            "integrate.relax_elliptic": lambda res: self._add_count("integrate.relax_sweeps", res.iterations),
        }
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vacuumlab.{layer}")
            for owner, attr, fn, name in _targets(layer, module):
                if fn not in replacement:
                    qualname = name.split(".", 1)[1]
                    if layer == "geometry" and qualname.startswith("Vec3."):
                        wrapper = self._counter(fn, "geometry.vec3_ops")
                    elif qualname in COUNT_ONLY.get(layer, ()):
                        wrapper = self._counter(fn, name)
                    else:
                        wrapper = self._span(fn, name, not _is_hot(layer, qualname), hooks.get(name))
                    replacement[fn] = wrapper
                if owner is not module:  # methods live on their class only
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, replacement[fn])
        # every module-level binding of a wrapped function, in every vacuumlab module
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "vacuumlab" or modname.startswith("vacuumlab.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, replacement[obj])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        for name, cell in self._cells.items():
            self._add_count(name, cell[0])
            cell[0] = 0

    # --- summaries --------------------------------------------------------------

    def self_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, (_, _, self_s) in self.aggregates.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def total(self, *names: str) -> float:
        return sum(self.aggregates.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, predicate: Callable[[str], bool]) -> float:
        return sum(a[2] for n, a in self.aggregates.items() if predicate(n))

    def calls(self, predicate: Callable[[str], bool]) -> int:
        return sum(a[0] for n, a in self.aggregates.items() if predicate(n))

    def outermost_time(self, names) -> float:
        """Time covered by recorded spans in ``names``, nested ones counted once."""
        names = set(names)
        by_id = {rec[0]: rec for rec in self.records}
        total = 0.0
        for span_id, name, start, end, parent in self.records:
            if name not in names:
                continue
            ancestor: Optional[tuple] = by_id.get(parent)
            while ancestor is not None and ancestor[1] not in names:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                total += end - start
        return total
