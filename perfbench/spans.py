"""Stdlib span tracer for the traced run.

:class:`Patches` swaps a function or method for a timing wrapper where
the name is looked up and puts the exact original back afterwards;
:class:`Tracer` keeps, per span name, the call count, inclusive seconds
and self seconds (a span's duration minus the part its child spans
cover), counters fed by result hooks, and the coarse spans for a Chrome
trace-event file that opens in Perfetto.  Spans nest through one stack:
the wrapped calls of every workload happen on one thread.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self, origin: Optional[float] = None):
        self.origin = time.perf_counter() if origin is None else origin
        self._stack: List[List[float]] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: Closed root spans: (name, seconds, seconds covered by children).
        self.roots: List[Tuple[str, float, float]] = []
        self.events: List[Tuple[str, float, float]] = []

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A root span around one pass; its direct children are the
        pass's top-level stage spans."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.roots.append((name, elapsed, frame[0]))
            self.events.append((name, start, elapsed))

    def wrap(self, name, fn, chrome=True, transparent=False, on_result=None):
        """A timing wrapper around ``fn`` recording spans named ``name``.

        ``transparent`` times the call without opening a frame, so the
        spans inside it count as children of the enclosing span (the
        grid's ``run``, keeping stage spans top-level under the pass).
        """
        stack = self._stack
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        events = self.events if chrome else None
        clock = time.perf_counter

        def finish(start, elapsed, covered):
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - covered
            if events is not None:
                events.append((name, start, elapsed))

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    finish(start, elapsed, frame[0])
        elif transparent:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(start, clock() - start, 0.0)
        else:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    finish(start, elapsed, frame[0])
                if on_result is not None:
                    on_result(result)
                return result
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper


def write_chrome_trace(path: os.PathLike, tracers: List[Tuple[str, Tracer]]) -> None:
    """One Chrome trace-event file; each tracer becomes its own track."""
    pid = os.getpid()
    events: List[dict] = []
    for tid, (label, tracer) in enumerate(tracers, start=1):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": label}})
        events.extend(
            {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
             "ts": (start - tracer.origin) * 1e6, "dur": seconds * 1e6,
             "pid": pid, "tid": tid}
            for name, start, seconds in tracer.events
        )
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class Patches:
    """Attribute swaps that can be undone exactly; :meth:`leftovers`
    lists any whose undo did not take."""

    def __init__(self) -> None:
        self._applied: List[tuple] = []
        self._undone: List[tuple] = []

    def replace(self, owner, attr: str, new) -> None:
        own = vars(owner)
        had = attr in own
        self._applied.append((owner, attr, own[attr] if had else getattr(owner, attr), had))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._applied:
            owner, attr, original, had = entry = self._applied.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
            self._undone.append(entry)

    def leftovers(self) -> List[str]:
        stale = [attr for _owner, attr, _orig, _had in self._applied]
        for owner, attr, original, had in self._undone:
            own = vars(owner)
            if (had and own.get(attr) is not original) or (not had and attr in own):
                stale.append(attr)
        return stale

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def wrap_attribute(patches: Patches, tracer: Tracer, owner, attr: str, name: str, **options) -> None:
    """Wrap ``owner.attr`` in a span, keeping a classmethod a classmethod."""
    raw = vars(owner).get(attr, getattr(owner, attr))
    if isinstance(raw, classmethod):
        new = classmethod(tracer.wrap(name, raw.__func__, **options))
    else:
        new = tracer.wrap(name, raw, **options)
    patches.replace(owner, attr, new)
