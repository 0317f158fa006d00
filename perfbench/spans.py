"""In-memory spans around wrapped functions, and self time over span trees.

A :class:`Tracer` records one :class:`Span` per call of a wrapped function:
its name, start, end, the index of the span that was open when it started
(its parent), and optional attributes such as byte or operation counts.
Spans stay in memory until the caller writes them out.

:func:`patched` installs wrappers on module attributes for the duration of a
``with`` block.  A function imported with ``from module import name`` is bound
in several modules at once, so every binding of the same function object
inside ``PACKAGES`` is replaced, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# the packages whose modules may hold ``from module import name`` bindings
PACKAGES = ("eitdisk",)


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._open[-1] if self._open else -1
        record = Span(name, self.clock(), parent=parent, attrs=attrs)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return dicts of span attributes; they run outside the timed call.
        The wrapper returns exactly what ``fn`` returns.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, **attrs) as record:
                result = fn(*args, **kwargs)
            if after:
                record.attrs.update(after(result, *args, **kwargs))
            return result
        return traced


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
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


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(spans[k].start, span.start), min(spans[k].end, span.end))
                   for k in kids]
        out.append(span.duration - _covered(clipped))
    return out


@dataclass(frozen=True)
class Target:
    """A function to trace: ``"package.module:attr"`` or ``"module:Class.attr"``."""

    name: str
    where: str
    before: object = None
    after: object = None


def _resolve(where):
    module_name, _, attr = where.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(tracer, targets):
    """Wrap every target in ``tracer`` spans until the block exits.

    Module-level functions are replaced in their defining module and in every
    loaded module under ``PACKAGES`` that binds the same object.  A target on
    a class must be a classmethod; it is replaced on the class only.
    """
    saved = []
    try:
        for target in targets:
            owner, attr = _resolve(target.where)
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                wrapped = classmethod(tracer.wrap(target.name, raw.__func__,
                                                  target.before, target.after))
                holders = [owner]
            else:
                wrapped = tracer.wrap(target.name, raw, target.before, target.after)
                holders = [owner] + [
                    mod for name, mod in list(sys.modules.items())
                    if mod is not owner and name.split(".")[0] in PACKAGES
                    and getattr(mod, "__dict__", {}).get(attr) is raw]
            for holder in holders:
                saved.append((holder, attr, raw))
                setattr(holder, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, raw in reversed(saved):
            setattr(holder, attr, raw)
