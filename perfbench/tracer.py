"""Outside-in tracer: wraps polycount's public functions and methods from here.

Nothing under src/ knows it is traced.  Each probe replaces one function or
method with a wrapper that records a span (name, start, end, parent span,
query id, thread) and optional counters.  Module-level functions are
replaced at every binding site, because polycount imports them by value
(`counting.build_tower`, `verify.brute_p_m`, `oracle.min_poly`, ...).

Spans stay in memory until the round ends.  A span's self time is its
duration minus the part of it that its child spans cover, so work done by
pool threads under `oracle.brute_scan` is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, name, start, end, parent, query, thread)
        self.counters: dict[str, int] = defaultdict(int)
        self.query = -1
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper of fn that records a span named `name`.

        before(args, kwargs) runs just before the call and returns a state;
        after(state, args, kwargs, result) returns {counter: increment}.
        """
        spans, counters, stacks, ids, main = self.spans, self.counters, self._stacks, self._ids, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            if stack:
                parent = stack[-1]
            elif tid != main and stacks.get(main):
                parent = stacks[main][-1]  # a pool thread working for the main thread's open span
            else:
                parent = -1
            sid = next(ids)
            state = before(args, kwargs) if before else None
            stack.append(sid)
            start = _now()
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    result = iter(list(result))  # the generator's work belongs to this span
            finally:
                end = _now()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.query, tid))
            if after:
                for key, inc in after(state, args, kwargs, result).items():
                    counters[key] += inc
            return result

        return traced

    def patch_function(self, module, attr, name, before=None, after=None):
        """Replace module.attr wherever a polycount module binds that object."""
        original = getattr(module, attr)
        rebind(original, self.wrap(name, original, before, after))

    def patch_method(self, cls, attrs, name, before=None, after=None):
        """Replace cls.<attr> for each attr (aliases such as __rmul__ share one wrapper)."""
        raw = cls.__dict__[attrs[0]]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self.wrap(name, raw.__func__, before, after))
        else:
            wrapper = self.wrap(name, raw, before, after)
        for attr in attrs:
            setattr(cls, attr, wrapper)

    # -- analysis --

    def layer_metrics(self) -> dict[str, dict]:
        """Per span name: calls, time_s (outermost spans summed), self_s, and busy_s
        (the wall time any span of that name covers)."""
        by_sid = {s[0]: s for s in self.spans}
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "intervals": []})
        for sid, name, start, end, parent, _, _ in self.spans:
            rec = out[name]
            rec["calls"] += 1
            dur = end - start
            rec["self_s"] += (dur - _covered(children.get(sid, ()), start, end)) / 1e9
            if not _has_ancestor_named(by_sid, parent, name):
                rec["time_s"] += dur / 1e9
                rec["intervals"].append((start, end))
        for rec in out.values():
            rec["busy_s"] = _covered(rec.pop("intervals"), None, None) / 1e9
        return dict(out)

    def root_time_s(self) -> float:
        return sum(end - start for _, _, start, end, parent, _, _ in self.spans if parent < 0) / 1e9

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("sid\tname\tstart_ns\tend_ns\tparent\tquery\tthread\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")


def rebind(original, replacement) -> None:
    """Point every name bound to `original` in a polycount module at `replacement`."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "polycount":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _has_ancestor_named(by_sid, parent, name) -> bool:
    while parent >= 0:
        span = by_sid[parent]
        if span[1] == name:
            return True
        parent = span[4]
    return False


def _covered(intervals, lo, hi) -> int:
    """Length of the union of intervals, clipped to [lo, hi] when given."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
