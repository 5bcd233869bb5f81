"""In-process tracing of the srloc layers, installed from outside the package.

``Tracer.install`` replaces every public function of every loaded
``srloc`` module with a timing wrapper, in every srloc namespace that
binds it: ``cli`` imports ``gaussian_pipeline`` by name, so patching
``srloc.sld`` alone would miss those calls.  It also puts counting
proxies on ``numpy.linalg``; a call counts the matrices it factors (a
stacked call counts N) and is attributed to the module of the innermost
open span.  Nothing under ``src/`` changes.

Spans are kept in memory as columns (name, operation id, parent span,
start, end) and written out once, at the end of the run.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LINALG = ("cholesky", "inv", "eigh", "eigvalsh", "solve")

# Return-value taps: span name -> what to count from its result.
ROUTE_OF = {
    "closed_forms.evaluate_gaussian_closed":
        lambda result: result[2] if isinstance(result, tuple) and len(result) > 2 else "unknown",
}


class Tracer:
    """Span and count recorder; ``on`` gates recording while installed."""

    def __init__(self) -> None:
        self.on = False
        self.op_id = 0
        self.names: list[str] = []
        self.layer: list[str] = []          # module of each name
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("H")
        self.span_op = array("I")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.linalg: Counter = Counter()    # (layer, function) -> matrices
        self.routes: Counter = Counter()
        self._open: list[int] = []          # span ids
        self._open_layer: list[str] = []
        self._child_s: list[float] = []     # time covered by children, per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[object, object] = {}
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "srloc" or modname.startswith("srloc.")):
                continue
            for attr, value in list(vars(module).items()):
                if not (inspect.isfunction(value) and value.__module__.startswith("srloc")
                        and not value.__name__.startswith("_")):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = self._wrap(value, name)
                self._patch(module, attr, wrappers[value])
        linalg = sys.modules["numpy.linalg"]
        for fn in LINALG:
            self._patch(linalg, fn, self._proxy(getattr(linalg, fn), fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.layer.append(name.split(".", 1)[0])
        self.calls.append(0)
        self.errors.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        idx = self._index(name)
        layer = self.layer[idx]
        tap = ROUTE_OF.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_op.append(tracer.op_id)
            tracer.span_parent.append(tracer._open[-1] if tracer._open else -1)
            tracer._open.append(sid)
            tracer._open_layer.append(layer)
            tracer._child_s.append(0.0)
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(math.nan)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[idx] += 1
                raise
            finally:
                end = clock()
                tracer.span_end[sid] = end
                tracer._open.pop()
                tracer._open_layer.pop()
                duration = end - start
                tracer.self_s[idx] += duration - tracer._child_s.pop()
                tracer.calls[idx] += 1
                if tracer._child_s:
                    tracer._child_s[-1] += duration
            if tap is not None:
                tracer.routes[tap(result)] += 1
            return result

        return wrapper

    def _proxy(self, fn, fn_name: str):
        tracer = self

        @functools.wraps(fn)
        def proxy(a, *args, **kwargs):
            if tracer.on:
                layer = tracer._open_layer[-1] if tracer._open_layer else "none"
                tracer.linalg[(layer, fn_name)] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return proxy

    # -- results ----------------------------------------------------------

    def totals(self, names) -> tuple[int, int, float] | None:
        """(calls, errors, self seconds) summed over ``names``; None if none exist."""
        found = [i for i, n in enumerate(self.names) if n in names]
        if not found:
            return None
        return (sum(self.calls[i] for i in found), sum(self.errors[i] for i in found),
                sum(self.self_s[i] for i in found))

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            op=np.frombuffer(self.span_op, dtype=np.uint32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
