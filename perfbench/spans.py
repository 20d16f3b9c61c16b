"""In-memory span tracer that wraps functions by rebinding attributes.

A span records (name, start, end, parent). Spans live in flat arrays until
the run ends; nothing is written while the traced code runs. Wrappers are
installed by rebinding a module or class attribute, and every other module
attribute that is bound to the same function object, so that names imported
with ``from .x import f`` are traced too. ``Tracer.installed`` restores the
original bindings on exit, so code run afterwards is untouched.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array


class Tracer:
    """The spans of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flagged: set[int] = set()   # span indices an observer marked
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_of)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_name(self, i: int) -> str:
        return self.names[self.name_of[i]]

    def wrap(self, name: str, fn, observe=None):
        """A function that runs fn inside a span named name.

        observe(tracer, span_index, args, kwargs, result) runs after the span
        has closed, so its cost is charged to the caller, not to fn.
        """
        nid = self.name_id(name)
        clock, stack = self.clock, self._stack
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, i, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets, package: str = "gatesim"):
        """Trace targets for the duration of the block.

        targets: iterable of (owner, attribute, span name, observer or None),
        where owner is a module or a class that defines the attribute.
        """
        with contextlib.ExitStack() as stack:
            for owner, attr, name, observe in targets:
                traced = self.wrap(name, vars(owner)[attr], observe)
                stack.enter_context(rebound(owner, attr, traced, package))
            yield self


@contextlib.contextmanager
def rebound(owner, attr: str, replacement, package: str = "gatesim"):
    """Bind replacement wherever owner.attr's current object is bound, for
    the duration of the block: on owner itself and in every loaded module of
    package. The original bindings come back on exit, also after an error.
    """
    original = vars(owner)[attr]
    holders = [(owner, attr)]
    for mod_name, module in list(sys.modules.items()):
        if module is owner or module is None:
            continue
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        holders += [(module, a) for a, v in vars(module).items() if v is original]
    try:
        for holder, a in holders:
            setattr(holder, a, replacement)
        yield
    finally:
        for holder, a in reversed(holders):
            setattr(holder, a, original)


def self_times(tracer: Tracer) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never double-counts and never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            children.setdefault(p, []).append((tracer.start[i], tracer.end[i]))
    out = []
    for i in range(len(tracer)):
        s, e = tracer.start[i], tracer.end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s), min(hi, e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time (s)."""
    selfs = self_times(tracer)
    out: dict[str, dict] = {}
    for i, own in enumerate(selfs):
        row = out.setdefault(tracer.span_name(i), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += tracer.end[i] - tracer.start[i]
        row["self_s"] += own
    return out
