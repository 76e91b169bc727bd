"""In-memory span tracing of tinymm from outside the package.

`Tracer.install()` replaces every public function of every loaded tinymm
module with a timing wrapper, at each module attribute where the function
is bound, so calls through an alias (`graph.quantize_array`,
`cli.build_sensitivity_table`) are seen too. Each span keeps its parent's
id and the id of the root span (one request, set-up or compress cycle) it
belongs to. `remove()` restores the original functions.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float
    work: float = 0.0  # MACs, frames or bytes, where the function has a counter

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, counters: dict | None = None):
        # counters: span name -> fn(args, result) giving the span's work
        self.counters = counters or {}
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.paused = False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, parent.sid if parent else None, parent.root if parent else sid,
                    name, time.perf_counter(), 0.0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    @contextmanager
    def pause(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _wrap(self, fn, name: str):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if counter is not None:
                s.work = counter(args, out)
            return out

        return traced

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self.active:
            return
        wrapped: dict[int, object] = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tinymm" or mod_name.startswith("tinymm.")):
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__name__.startswith("_") or not fn.__module__.startswith("tinymm.")):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, f"{fn.__module__.split('.')[-1]}.{fn.__name__}")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])

    def remove(self) -> None:
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        self._saved.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return {s.sid: s.seconds - child[s.sid] for s in spans}


def by_function(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds and summed work."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["busy"] += s.seconds
        row["self"] += selfs[s.sid]
        row["work"] += s.work
    return dict(out)


def request_breakdown(spans: list[Span], prefix: str) -> dict:
    """Self time per function, averaged over root spans named prefix*.

    The rows plus `unattributed` (root time outside any tinymm call) add up
    to the mean root duration exactly.
    """
    roots = {s.sid: s for s in spans if s.parent is None and s.name.startswith(prefix)}
    if not roots:
        return {"requests": 0, "mean_ms": 0.0, "rows": {}, "unattributed_ms": 0.0}
    selfs = self_times(spans)
    rows: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.root in roots and s.sid not in roots:
            rows[s.name] += selfs[s.sid]
    n = len(roots)
    return {
        "requests": n,
        "mean_ms": 1e3 * sum(r.seconds for r in roots.values()) / n,
        "rows": {k: 1e3 * v / n for k, v in sorted(rows.items(), key=lambda kv: -kv[1])},
        "unattributed_ms": 1e3 * sum(selfs[sid] for sid in roots) / n,
    }
