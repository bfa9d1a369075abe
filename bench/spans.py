"""Spans around the calls into each layer of ofdm_spm, recorded from outside.

Tracer replaces module attributes (such as ofdm_spm.harness.fft_unitary,
the name the harness calls) with timing wrappers for the length of a
`with` block and puts the originals back afterwards. The program is not
changed. An attribute that a refactor has removed is listed in `absent`
instead of failing the run; its work then lands in the self time of the
span that called it. Spans stay in memory until the caller writes them.

The tracer keeps one stack, so it is only valid in a single process:
traced runs use workers=1.
"""
from __future__ import annotations

import concurrent.futures
import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "round"


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """Wrap `module.attr` in a span called `span`.

    count(args, kwargs) gives the work a call does (samples, symbols);
    returns_span, when set, also wraps the callable that the call returns
    (a factory such as monte_carlo_objective) in a span of that name.
    """

    module: str
    attr: str
    span: str
    count: object = None
    returns_span: str | None = None


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, returns_span=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                work = count(args, kwargs) if count else 0
                self.spans[sid] = Span(sid, parent, name, start, end, work)
            if returns_span is not None and callable(result):
                result = self.wrap(returns_span, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore all of them on exit."""
        saved = []
        try:
            for t in self.targets:
                try:
                    module = importlib.import_module(t.module)
                except ImportError:
                    module = None
                original = getattr(module, t.attr, None)
                if not callable(original):
                    label = f"{t.module}.{t.attr}"
                    if label not in self.absent:
                        self.absent.append(label)
                    continue
                saved.append((module, t.attr, original))
                setattr(module, t.attr, self.wrap(t.span, original, t.count, t.returns_span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_root(self, fn):
        """Call fn() under the root span; returns its result."""
        return self.wrap(ROOT, fn)()


@dataclass
class Summary:
    self_s: float = 0.0
    calls: int = 0
    work: int = 0
    durations: list = field(default_factory=list)


def summarize(spans) -> dict:
    """Self time, calls, summed count and inclusive durations per span name."""
    child_time = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        summary = out.setdefault(s.name, Summary())
        summary.self_s += s.duration - child_time.get(s.id, 0.0)
        summary.calls += 1
        summary.work += s.count
        summary.durations.append(s.duration)
    return out


class PoolCounter:
    """Counts ProcessPoolExecutor starts while installed."""

    def __init__(self):
        self.starts = 0

    @contextmanager
    def installed(self):
        original = concurrent.futures.ProcessPoolExecutor
        counter = self

        class Counted(original):
            def __init__(self, *args, **kwargs):
                counter.starts += 1
                super().__init__(*args, **kwargs)

        concurrent.futures.ProcessPoolExecutor = Counted
        try:
            yield self
        finally:
            concurrent.futures.ProcessPoolExecutor = original
