"""Layer spans for the traced replay, recorded from outside the package.

``Tracer.install`` wraps every public function of each cryptoflow layer
module, and the export methods of ``StabilityMap`` and ``Trajectory``, in
every cryptoflow namespace that holds a reference to them (the package uses
``from .x import f``, so each importing module has its own binding).
``uninstall`` puts the originals back.

Spans are aggregated in memory per function: call count, total time and self
time (total minus the part of the span its child spans cover).  Spans opened
on a worker thread while the main thread waits inside a span (the
``--threads`` pools) count as children of that span; their intervals are
merged before subtraction, so parallel children are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter

LAYERS = ("model", "stability", "criteria", "simulate", "sweep", "gbm", "cli")
METHODS = (("sweep", "StabilityMap", ("to_json", "to_csv", "to_svg")),
           ("simulate", "Trajectory", ("to_csv",)))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Per-function span statistics for one traced replay."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_exit=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_exit(tracer, result, error)`` records counts at the boundary.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0, None]  # same-thread child time, worker-thread intervals
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                # Worker spans attach to this frame only while the main thread
                # waits inside it, and they finish before that wait returns.
                covered = frame[0] + (_union_length(frame[1]) if frame[1] else 0.0)
                with self._lock:
                    if stack:
                        stack[-1][0] += t1 - t0
                    elif stack is not self._main_stack and self._main_stack:
                        owner = self._main_stack[-1]
                        if owner[1] is None:
                            owner[1] = []
                        owner[1].append((t0, t1))
                    self.calls[name] += 1
                    self.total[name] += t1 - t0
                    self.self_time[name] += t1 - t0 - covered
                    if on_exit is not None:
                        on_exit(self, result, error)

        return traced

    def install(self, hooks: dict) -> None:
        """Wrap every layer's public functions; ``hooks`` maps span names to
        ``on_exit`` callbacks."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cryptoflow.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "cryptoflow" and not module_name.startswith("cryptoflow."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        for layer, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(f"cryptoflow.{layer}"), cls_name)
            for method in methods:
                name = f"{layer}.{cls_name}.{method}"
                self._patch(cls, method,
                            self.wrap(name, getattr(cls, method), hooks.get(name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def mean(self, *names: str) -> float:
        """Mean span time per call over the named functions; 0 when never called."""
        calls = sum(self.calls[n] for n in names)
        return sum(self.total[n] for n in names) / calls if calls else 0.0
