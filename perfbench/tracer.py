"""Span tracing of magbeam's public functions, installed from outside.

Every public function of every magbeam module is wrapped, and the
wrapper is bound under each name that any magbeam module uses to look it
up (``equilibrium`` imports ``tip_wrench`` by name, ``calibration``
imports ``sweep`` by name, ``cli`` imports almost everything by name).
``uninstall`` puts the original objects back.

Spans live in memory until ``write`` dumps them once. A span started on a
thread whose own stack is empty (a calibration pool worker) takes the
innermost open span of the installing thread as its parent, which is the
call that handed the work to the pool.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# Spans of these functions keep their arguments and result, which the
# per-layer metrics and the per-call probes read after the run.
KEEP = {"equilibrium.solve_tip_pose", "calibration.grid_search_calibrate"}


@dataclass
class Span:
    id: int
    name: str
    t0: float
    t1: float
    parent: int | None
    thread: int
    args: tuple | None = None
    kwargs: dict | None = None
    result: object = None
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._root_thread = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        keep = name in KEEP

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._root_stack[-1] if self._root_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            result = error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = Span(sid, name, t0, t1, parent, threading.get_ident())
                if keep:
                    span.args, span.kwargs = args, kwargs
                    span.result, span.error = result, error
                elif error is not None:
                    span.error = error
                self.spans.append(span)

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap the public functions of every loaded magbeam module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_thread = threading.get_ident()
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "magbeam" or name.startswith("magbeam.")}
        wrappers = {}
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path):
        """Dump every span, one JSON object per line, without the kept
        arguments and results."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "t0": s.t0, "t1": s.t1,
                    "parent": s.parent, "thread": s.thread, "error": s.error,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children of one span may run concurrently on pool threads, so the
    covered part is the length of the union of their intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = -float("inf")
        for a, b in sorted(children.get(s.id, ())):
            a = max(a, end, s.t0)
            b = min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = (s.t1 - s.t0) - covered
    return out
