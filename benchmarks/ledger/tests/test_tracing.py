"""Span arithmetic and the swap/restore of wrapped callables."""

import pytest

from tracing import Tracer, aggregate, self_times, unit_of


def span(name, start, end, parent=None, unit=None, extra=None):
    return [name, start, end, parent, unit, extra]


def test_self_time_is_duration_minus_direct_children():
    root = span("root", 0, 100, unit="it0")
    a = span("a", 10, 40, root)
    grandchild = span("k", 15, 25, a, extra=7)
    b = span("a", 50, 90, root)
    spans = [root, a, grandchild, b]
    assert self_times(spans) == [30, 20, 10, 40]
    # every nanosecond of the root is attributed exactly once
    assert sum(self_times(spans)) == 100


def test_aggregate_groups_by_the_root_unit_and_sums_elements():
    root = span("root", 0, 100, unit="it0")
    a = span("a", 10, 40, root)
    k = span("k", 15, 25, a, extra=7)
    b = span("a", 50, 90, root)
    other = span("root", 200, 210, unit="it1")
    rows = aggregate([root, a, k, b, other])
    assert unit_of(k) == "it0"
    assert rows["it0"]["a"] == {"calls": 2, "self_ns": 60, "total_ns": 70, "elems": 0}
    assert rows["it0"]["k"]["elems"] == 7
    assert rows["it1"]["root"]["self_ns"] == 10


def test_wrapper_records_nesting_and_survives_exceptions():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    inner_t = tracer.wrap(inner, "inner", elems=lambda args, kwargs: args[0])
    outer_t = tracer.wrap(lambda x: inner_t(x) * 2, "outer")
    with tracer.span("iteration", unit=3):
        assert outer_t(4) == 10
        with pytest.raises(ValueError):
            outer_t(-1)
        assert inner_t(0) == 1  # the stack unwound: this is a child of the root again
    names = [s[0] for s in tracer.spans]
    assert names == ["iteration", "outer", "inner", "outer", "inner", "inner"]
    root = tracer.spans[0]
    assert tracer.spans[2][3] is tracer.spans[1] and tracer.spans[5][3] is root
    assert all(unit_of(s) == 3 for s in tracer.spans)
    assert all(s[2] >= s[1] > 0 for s in tracer.spans)
    assert tracer.spans[2][5] == 4
    assert tracer.drain() and tracer.spans == []


class Thing:
    def method(self):
        return "m"

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def helper():
        return "h"


def test_patch_method_restores_the_very_same_objects():
    originals = {name: vars(Thing)[name] for name in ("method", "make", "helper")}
    tracer = Tracer()
    for name in originals:
        tracer.patch_method(Thing, name, f"thing.{name}")
    assert isinstance(Thing.make(), Thing) and Thing.helper() == "h" and Thing().method() == "m"
    assert {s[0] for s in tracer.spans} == {"thing.make", "thing.helper", "thing.method"}
    assert all(vars(Thing)[name] is not originals[name] for name in originals)
    tracer.restore()
    assert all(vars(Thing)[name] is originals[name] for name in originals)
    assert tracer._patches == []


def test_restore_reports_a_callable_it_could_not_put_back():
    class Stubborn(type):
        def __setattr__(cls, name, value):
            if getattr(cls, "_frozen", False):
                return  # swallow the restore
            super().__setattr__(name, value)

    class Holder(metaclass=Stubborn):
        def method(self):
            return 1

    tracer = Tracer()
    tracer.patch_method(Holder, "method", "holder.method")
    Holder._frozen = True
    with pytest.raises(RuntimeError, match="not restored"):
        tracer.restore()
