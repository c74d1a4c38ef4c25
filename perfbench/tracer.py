"""Span and count recorder for defaultlab's layers, installed from outside the package.

`install` rebinds each layer's public functions, in every defaultlab module
namespace that holds them, to wrappers that record a span (name, start, end,
parent) and per-layer counts.  `from .x import f` copies a reference, so the
rebinding walks every module, not only the one that defines `f`.

Classes are never rebound: coefficients dispatches on
`isinstance(carrier, ScenarioTree/PathBundle)`, and a wrapped class would
break that dispatch.  Tree construction is timed through the
`suites.build_tree_world` span instead.

Spans stay in memory; `Tracer.summary` folds them into per-function self and
inclusive times once the traced process is done.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
import weakref

# The modules of src/defaultlab whose public functions are spans.  calculus
# is on no CLI path and errors holds only exception classes.
LAYERS = (
    "grids",
    "survival",
    "tree",
    "coefficients",
    "family",
    "default_measure",
    "suites",
    "ioutil",
    "config",
    "cli",
)

PACKAGE = "defaultlab"


def now() -> float:
    # CLOCK_MONOTONIC is one clock for the whole machine, so times taken in
    # the benchmark's parent and in the traced child can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def package_modules() -> list:
    prefix = PACKAGE + "."
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None]


def rebind(old, new) -> None:
    """Replace every module-level reference to `old` in the package by `new`."""
    for mod in package_modules():
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def resolve(qualname: str):
    """`"family.build_family"` -> the object currently bound there."""
    mod, attr = qualname.rsplit(".", 1)
    return getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)


def mark_first_call(qualname: str, marks: dict, stop_exc=None) -> None:
    """Record in `marks["battery"]` when `qualname` is first entered.

    With `stop_exc` set, raise it there instead of calling through, which
    ends a set-up-only probe at the battery's door.
    """
    target = resolve(qualname)

    @functools.wraps(target)
    def marked(*args, **kwargs):
        marks.setdefault("battery", now())
        if stop_exc is not None:
            raise stop_exc()
        return target(*args, **kwargs)

    rebind(target, marked)


# ---------------------------------------------------------------------------
# counts taken at the layer boundaries


def _points(*arrays) -> int:
    import numpy as np

    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _f_points(args, result, extra):
    return {"points": _points(args[2], args[3])}


def _clamp_points(args, result, extra):
    import numpy as np

    return {"points": int(np.size(args[0]))}


def _solve_cells(args, result, extra):
    pair, u = args[0], int(args[2])
    # trees return a level list with None below u, bundles a (paths, n+1) array
    if isinstance(result, list):
        cells = sum(len(level) for level in result[u + 1 :])
    else:
        cells = int(result.shape[0]) * (int(result.shape[1]) - 1 - u)
    return {"state_cells": cells, "_member": (pair, u, cells)}


def _csv_size(args, result, extra):
    path, rows = args[0], args[2]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _rss_rise(args, result, extra):
    return {"rss_rise_mb": max(0.0, maxrss_mb() - extra)}


COUNTERS = {
    "coefficients.evaluate_f": _f_points,
    "coefficients.evaluate_f_x": _f_points,
    "coefficients.smooth_clamp": _clamp_points,
    "coefficients.smooth_clamp_deriv": _clamp_points,
    "family.solve_natural": _solve_cells,
    "ioutil.write_csv": _csv_size,
    "family.build_family": _rss_rise,
    "coefficients.build_y": _rss_rise,
}

# counters whose hook needs a value taken before the call
_BEFORE = {"family.build_family": maxrss_mb, "coefficients.build_y": maxrss_mb}


class Tracer:
    """In-memory span list plus per-function counts."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.counts = {}  # name -> {counter: value}
        self.members = {}  # id(pair) -> (weakref to pair, {u: cells})
        self._retired = []  # {u: cells} of pairs that were freed
        self._stack = []
        self.wrapped = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        before = _BEFORE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = before() if before is not None else None
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if counter is not None:
                self._count(name, counter(args, result, extra))
            return result

        return traced

    def _count(self, name, values):
        slot = self.counts.setdefault(name, {})
        member = values.pop("_member", None)
        if member is not None:
            self._add_member(*member)
        for key, val in values.items():
            if key == "rss_rise_mb":
                slot[key] = max(slot.get(key, 0.0), val)
            else:
                slot[key] = slot.get(key, 0) + val

    def _add_member(self, pair, u, cells):
        # a family member is one (pair, start index); a weak reference tells
        # a live pair from a later one that reuses a freed pair's id, without
        # keeping the pair's arrays alive
        entry = self.members.get(id(pair))
        if entry is None or entry[0]() is not pair:
            if entry is not None:
                self._retired.append(entry[1])
            entry = self.members[id(pair)] = (weakref.ref(pair), {})
        entry[1].setdefault(u, cells)

    def install(self) -> None:
        """Wrap the public functions of every layer, listing them in `wrapped`."""
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # imported from another layer; wrapped there
                name = f"{layer}.{attr}"
                rebind(fn, self.wrap(name, fn))
                self.wrapped.append(name)

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, counts, and the
        seconds covered by root spans."""
        child_time = [0.0] * len(self.spans)
        out = {}
        root_s = 0.0
        for name, parent, start, end in self.spans:
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
            else:
                root_s += dur
        for i, (name, parent, start, end) in enumerate(self.spans):
            slot = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            slot["calls"] += 1
            slot["total_s"] += end - start
            slot["self_s"] += (end - start) - child_time[i]
        for name, counts in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(counts)
        per_pair = self._retired + [us for _, us in self.members.values()]
        members = sum(len(us) for us in per_pair)
        member_cells = sum(sum(us.values()) for us in per_pair)
        return {
            "functions": out,
            "root_s": root_s,
            "spans": len(self.spans),
            "wrapped": self.wrapped,
            "members": members,
            "member_cells": member_cells,
        }
