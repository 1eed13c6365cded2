"""Span tracer that wraps a program's public functions from outside.

A target is a function looked up by name on the module whose code calls
it, for example ``("paptrack.harness", "perceive")``: replacing that
attribute makes every call the module makes go through the wrapper. The
wrapper passes arguments and results through untouched. It records one
span per call (name, start, end and the span that was open when it
started) in flat arrays, so that a million calls cost tens of megabytes,
not a Python object each.

A target name that no longer exists is recorded in ``missing`` instead of
raising, so a program that renames a function loses that span, not the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.missing: list[str] = []
        # counts[(span, key)] is summed over calls; a count whose observer
        # failed on the program's current types is listed in missing_counts
        self.counts: dict[tuple[str, str], float] = {}
        self.missing_counts: set[str] = set()
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets: dict) -> None:
        """Wrap each ``span: (module, attribute, observe)`` target.

        `observe` is ``None`` or a function called with the call's
        positional arguments before the call; it returns a function that
        takes the result and returns a dict of counts for this call.
        """
        for span, (module_name, attr, observe) in targets.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(span)
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn, observe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, span: str, fn, observe):
        name_id = len(self.names)
        self.names.append(span)
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = self._observe_before(span, observe, args) if observe is not None else None
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if finish is not None:
                self._observe_after(span, finish, result)
            return result

        return wrapper

    # observers read the program's objects, whose types may change; a
    # failing observer drops its counts rather than the call it watches
    _OBSERVER_ERRORS = (AttributeError, IndexError, KeyError, TypeError)

    def _observe_before(self, span, observe, args):
        try:
            return observe(args)
        except self._OBSERVER_ERRORS:
            self.missing_counts.add(span)
            return None

    def _observe_after(self, span, finish, result) -> None:
        try:
            counts = finish(result)
        except self._OBSERVER_ERRORS:
            self.missing_counts.add(span)
            return
        for key, value in counts.items():
            self.counts[(span, key)] = self.counts.get((span, key), 0) + value

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns: name id, parent span id (-1 for none), start, end."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self, root: str) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, over spans under `root` spans.

        A span's self time is its duration minus the durations of its
        direct children. Only spans whose outermost ancestor is named
        `root` count, so work outside the runs of interest stays out.
        """
        cols = self.arrays()
        name, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        n = len(dur)
        if n == 0 or root not in self.names:
            return {}
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_sum
        # parents always precede their children, so pointer jumping ends
        # with each span pointing at its outermost ancestor
        top = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = top[top]
            if np.array_equal(nxt, top):
                break
            top = nxt
        keep = name[top] == self.names.index(root)
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        total = np.bincount(name[keep], weights=dur[keep], minlength=k)
        selft = np.bincount(name[keep], weights=self_time[keep], minlength=k)
        return {
            span: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selft[i])}
            for i, span in enumerate(self.names)
            if calls[i] > 0
        }
