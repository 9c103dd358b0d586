"""In-memory spans around the program's public callables.

The program under ``src/repro`` is not edited: the traced run swaps a
callable for a wrapper that records one span per call — name, start,
end, the span that caused it, and the unit (iteration or job) it belongs
to — and swaps it back afterwards.  A layer's time is its *self time*:
its span's duration minus the part its child spans cover, so nested
layers never count the same nanosecond twice.

Two ways a callable is reached decide how it is swapped:

* through a class (``SharedArray.gather``): the class attribute is
  replaced (:meth:`Tracer.patch_method`);
* by a name imported into other modules (``from .getd import getd``):
  every loaded ``repro`` module whose namespace holds that very object is
  rebound (:meth:`Tracer.patch_function`).
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

# One span is a list so the wrapper can fill the end time in place:
# [name, start_ns, end_ns, parent span or None, unit, extra]
NAME, START, END, PARENT, UNIT, EXTRA = range(6)


def self_times(spans: Iterable[list]) -> List[int]:
    """Self time of each span, in the order given: its duration minus
    the durations of its direct children."""
    spans = list(spans)
    index = {id(span): i for i, span in enumerate(spans)}
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is not None and id(parent) in index:
            own[index[id(parent)]] -= span[END] - span[START]
    return own


def unit_of(span: list):
    """The unit a span belongs to: its own, or its nearest ancestor's."""
    while span is not None:
        if span[UNIT] is not None:
            return span[UNIT]
        span = span[PARENT]
    return None


def aggregate(spans: Iterable[list]) -> Dict[object, Dict[str, dict]]:
    """Fold spans into ``{unit: {name: {calls, self_ns, total_ns, elems}}}``."""
    spans = list(spans)
    out: Dict[object, Dict[str, dict]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(unit_of(span), {}).setdefault(
            span[NAME], {"calls": 0, "self_ns": 0, "total_ns": 0, "elems": 0}
        )
        row["calls"] += 1
        row["self_ns"] += own
        row["total_ns"] += span[END] - span[START]
        if isinstance(span[EXTRA], int):
            row["elems"] += span[EXTRA]
    return out


class Tracer:
    """Records spans and owns the swap/restore of the wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._patches: List[tuple] = []  # (holder, attribute, original)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        elems: Optional[Callable] = None,
        unit: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``elems(args, kwargs)`` gives the span its element count;
        ``unit(args, kwargs)`` names the unit a root span starts;
        ``after(span, result)`` may fill in either once ``fn`` returned.
        """
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [
                name,
                0,
                0,
                stack[-1] if stack else None,
                unit(args, kwargs) if unit is not None else None,
                elems(args, kwargs) if elems is not None else None,
            ]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(span, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def span(self, name: str, unit=None):
        """Record one span around a block of the benchmark's own code
        (the root of an iteration)."""
        stack = self._stack()
        span = [name, 0, 0, stack[-1] if stack else None, unit, None]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[END] = time.perf_counter_ns()
            stack.pop()

    def drain(self) -> List[list]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans[:] = list(self.spans), []
        return spans

    # -- swapping callables in and out ---------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Replace ``cls.attr`` (function, classmethod or staticmethod)."""
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(self.wrap(original.__func__, name, **hooks))
        else:
            wrapper = self.wrap(original, name, **hooks)
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def patch_function(self, module, attr: str, name: str, **hooks) -> List[str]:
        """Rebind ``module.attr`` in every loaded ``repro`` module that
        holds the same object under any name; returns those modules."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **hooks)
        holders = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
                    holders.append(mod_name)
        return holders

    def restore(self) -> None:
        """Put every original back and check, by identity, that it is."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        leaked = [
            f"{getattr(holder, '__name__', holder)}.{attr}"
            for holder, attr, original in self._patches
            if vars(holder)[attr] is not original
        ]
        self._patches.clear()
        if leaked:
            raise RuntimeError(f"wrapped callables not restored: {leaked}")
