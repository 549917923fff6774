"""Spans around the program's public entry points, installed from outside.

Nothing here edits the program: :class:`Tracer` replaces a method or a
module-level function with a wrapper that records one span per call and
then calls the original, and :meth:`Tracer.uninstall` puts every
original back.  A span is ``[name, start, end, parent]`` with
``perf_counter`` times, kept in memory; ``parent`` is the index of the
span that was open when this one started (-1 for none).  The open span
lives in a :class:`contextvars.ContextVar`, so parents stay correct
across asyncio tasks, which each carry their own copy of the context.

A call made while a span of the *same name* is open is passed through
without a span of its own.  That keeps ``super().__init__`` chains and
wrapping controllers (one ``update`` delegating to another) at one span
per logical call, so ``*_calls`` counts stay one per entry.
"""

from __future__ import annotations

import contextvars
import functools
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_open_span: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_open_span", default=-1
)


class Tracer:
    """Records spans for one traced repetition, then restores the program."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap_sync(self, fn: Callable, name: str) -> Callable:
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _open_span.get()
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, parent]
            index = len(spans)
            spans.append(span)
            token = _open_span.set(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                _open_span.reset(token)

        return traced

    def _wrap_async(self, fn: Callable, name: str) -> Callable:
        spans = self.spans

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent = _open_span.get()
            if parent >= 0 and spans[parent][0] == name:
                return await fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, parent]
            index = len(spans)
            spans.append(span)
            token = _open_span.set(index)
            try:
                return await fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                _open_span.reset(token)

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def method(self, cls: type, attr: str, name: str, is_async: bool = False) -> None:
        """Span every definition of ``attr`` in ``cls`` and its subclasses."""
        wrap = self._wrap_async if is_async else self._wrap_sync
        for klass in _class_tree(cls):
            if attr in klass.__dict__:
                self._set(klass, attr, wrap(klass.__dict__[attr], name))

    def function(self, module: Any, attr: str, name: str) -> None:
        """Span a module function wherever it was imported by name."""
        original = getattr(module, attr)
        traced = self._wrap_sync(original, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get(attr) is original:
                self._set(mod, attr, traced)

    def after(self, cls: type, attr: str, hook: Callable[[Any], None]) -> None:
        """Call ``hook(self_of_call)`` after each return of ``cls.attr``."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapped(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            hook(obj)
            return result

        self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of it that its
        child spans cover (children may overlap under asyncio, so the
        covered part is the union of their intervals).
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - _covered(children.get(index, ()))
        return out

    def dump(self) -> Dict[str, Any]:
        """Spans in a compact columnar form (times relative to the first)."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [code[n], round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3), p]
                for n, s, e, p in self.spans
            ],
        }


def _class_tree(cls: type) -> List[type]:
    seen: List[type] = []
    stack = [cls]
    while stack:
        klass = stack.pop()
        if klass not in seen:
            seen.append(klass)
            stack.extend(klass.__subclasses__())
    return seen


def _covered(intervals) -> float:
    total = 0.0
    reach: Optional[float] = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
