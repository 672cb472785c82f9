"""Spans around gradss entry points, recorded from outside the library.

A `Tracer` replaces selected library functions and methods with wrappers.
Each call becomes one span: name, start, end, parent span and op id.  Spans
are appended to flat arrays while the run goes on and are written out once,
as a compressed `.npz` file, when the run is over.

Self time of a span is its duration minus the durations of its direct
children.  The benchmark is one thread, so children nest strictly inside
their parent and never overlap each other; the self times of an op's spans
therefore add up to the op's own duration.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.name_ids = array("i")
        self.op_ids = array("i")
        # counters move at the traced call sites; an op keeps the change
        # that happened while it ran (see `op`)
        self.counters: Counter = Counter()
        self.op_counters: Counter = Counter()
        self._stack = [-1]
        self._current_op = [-1]
        self._undo: list = []
        self._root = self._wrap(ROOT, lambda fn, *args: fn(*args))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, around=None):
        nid = self._name_id(name)
        start, end, parent, names, ops = (
            self.starts, self.ends, self.parents, self.name_ids, self.op_ids
        )
        stack, current_op = self._stack, self._current_op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(current_op[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, args, kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, name: str, module, attr: str, around=None):
        """Wrap module.attr, and every gradss module's reference to it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, around)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gradss" or mod_name.startswith("gradss.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def patch_method(self, name: str, cls, attr: str, around=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, around))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span of op `op_id`.

        Spans opened and counter changes made during the call belong to it.
        """
        before = Counter(self.counters)
        self._current_op[0] = op_id
        try:
            return self._root(fn, *args)
        finally:
            self._current_op[0] = -1
            self.op_counters.update(self.counters - before)

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "name": np.frombuffer(self.name_ids, dtype=np.int32),
            "op": np.frombuffer(self.op_ids, dtype=np.int32),
        }

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans) -> tuple:
    """(duration, self time) of every span, given the arrays of `Tracer.arrays`."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur, dur - child


def summarize(tracer: Tracer) -> dict:
    """Per-name self time and calls over op spans, plus per-op durations.

    Returns {"self_s": {name: s}, "calls": {name: n}, "op_s": [s per op],
    "op_self_sum_s": [sum of non-root self times per op], "min_self_s"}.
    """
    a = tracer.arrays()
    dur, self_time = self_times(a)
    in_op = a["op"] >= 0
    root_id = tracer.names.index(ROOT) if ROOT in tracer.names else -1
    self_s, calls = {}, {}
    for nid, name in enumerate(tracer.names):
        sel = in_op & (a["name"] == nid)
        if name != ROOT:
            self_s[name] = float(self_time[sel].sum())
            calls[name] = int(sel.sum())
    roots = in_op & (a["name"] == root_id)
    op_ids = a["op"][roots]
    op_s = dur[roots]
    layer = in_op & (a["name"] != root_id)
    op_self_sum = np.zeros(int(op_ids.max()) + 1 if op_ids.size else 0)
    np.add.at(op_self_sum, a["op"][layer], self_time[layer])
    return {
        "self_s": self_s,
        "calls": calls,
        "op_s": [float(x) for x in op_s],
        "op_self_sum_s": [float(op_self_sum[i]) for i in op_ids],
        "min_self_s": float(self_time[in_op].min()) if in_op.any() else 0.0,
    }
