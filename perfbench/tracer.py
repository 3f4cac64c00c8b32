"""In-memory span tracer that wraps a program's functions from outside.

The tracer never edits the program: :meth:`Tracer.instrument` swaps a
timing wrapper in for a function everywhere the program can reach it (the
owning class, every module attribute and module-level dict entry that holds
the same object) and :meth:`Tracer.restore` puts the originals back.

Each wrapped call is timed.  Calls classified as spans are also kept as a
record (id, parent id, name, start, end, self time, run id); calls that are
too frequent to keep individually (the jet kernels, expression evaluation)
only update their per-name totals.  Either way a call's duration is charged
to its caller's child time, so self time is a frame's duration minus the
time its timed callees took.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``classify(*args, **kwargs)`` names the call, or returns None to run it
    untimed; ``observe(result, *args, **kwargs)``, when given, sees every
    timed call's result.  ``span`` keeps a record per call.
    """

    owner: object
    attr: str
    classify: object
    span: bool = True
    observe: object = None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[list] = []  # [span id or None, child seconds, parent span id]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def _enter(self, span: bool) -> list:
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, 0.0, self._parent_id() if span else None]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        duration = t1 - t0
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        own = duration - frame[1]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += own
        if frame[0] is not None:
            self.spans.append(
                (frame[0], frame[2], name, t0 - self.origin, t1 - self.origin, own, self.run_id)
            )

    @contextmanager
    def span(self, name: str):
        frame = self._enter(True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, t0, time.perf_counter())

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def remember(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, target: Target, fn):
        classify, observe, span = target.classify, target.observe, target.span
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = classify(*args, **kwargs)
            if name is None:
                return fn(*args, **kwargs)
            frame = enter(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame, t0, clock())
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    def instrument(self, targets, package: str) -> None:
        """Wrap every target that exists; missing attributes are skipped."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")
        ]
        for target in targets:
            if isinstance(target.owner, type):
                original = target.owner.__dict__.get(target.attr)
            else:
                original = getattr(target.owner, target.attr, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            if isinstance(target.owner, type):
                setattr(target.owner, target.attr, wrapper)
                self._patched.append((target.owner, target.attr, original))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                self._patched.append((value, key, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    @contextmanager
    def active(self, targets, package: str):
        self.instrument(targets, package)
        try:
            yield self
        finally:
            self.restore()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: id, parent, name, start, end, self (s), run id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def summary(self) -> dict:
        return {
            "run_id": self.run_id,
            "stats": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": len(self.spans),
        }
