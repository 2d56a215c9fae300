"""Self times from span trees, and wrappers installed in every namespace."""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_nested_tree():
    clock = Clock()
    tr = spans.Tracer(clock)
    a, b, c = tr.intern("a"), tr.intern("b"), tr.intern("c")
    # a [0, 10) with children b [1, 4) and b [5, 9); c [2, 3) inside the first b
    top = tr.open(a)
    clock.now = 1
    first = tr.open(b)
    clock.now = 2
    inner = tr.open(c)
    clock.now = 3
    tr.close(inner)
    clock.now = 4
    tr.close(first)
    clock.now = 5
    second = tr.open(b)
    clock.now = 9
    tr.close(second)
    clock.now = 10
    tr.close(top)
    totals = tr.totals()
    assert totals["a"] == {"calls": 1, "busy_s": 3.0, "value": 0}
    assert totals["b"]["calls"] == 2 and totals["b"]["busy_s"] == pytest.approx(2.0 + 4.0)
    assert totals["c"]["busy_s"] == 1.0
    assert sum(t["busy_s"] for t in totals.values()) == 10.0


def test_overlapping_children_are_covered_once():
    tr = spans.Tracer()
    parent = tr.intern("p")
    kid = tr.intern("k")
    for nid, start, end, par in ((parent, 0, 10, -1), (kid, 1, 5, 0), (kid, 3, 7, 0), (kid, 8, 12, 0)):
        tr.start.append(start)
        tr.end.append(end)
        tr.name.append(nid)
        tr.parent.append(par)
        tr.query.append(0)
        tr.value.append(0)
    # children cover [1, 7) and [8, 10) of the parent: 8 of its 10 seconds
    assert tr.self_times()[0] == 2.0


def _namespaces():
    a = types.ModuleType("a")
    exec("def helper(n):\n    return n * 2\n\n\ndef work(n):\n    return helper(n) + 1\n", vars(a))
    b = types.ModuleType("b")
    b.work = a.work  # "from .a import work" copies the binding
    b.alias = a.work
    return {"a": a, "b": b}


def test_a_wrapper_is_installed_in_every_namespace_that_binds_it():
    mods = _namespaces()
    orig = mods["a"].work
    tr = spans.Tracer()
    undo = spans.install(tr, mods, spans=[("a", "work", "a.work", None)], counters=[])
    assert mods["a"].work is mods["b"].work is mods["b"].alias
    assert mods["a"].work is not orig
    assert mods["b"].work(1) == 3 and mods["a"].work(2) == 5 and mods["b"].alias(0) == 1
    assert tr.totals()["a.work"]["calls"] == 3
    spans.uninstall(undo)
    assert mods["a"].work is mods["b"].work is mods["b"].alias is orig


def test_methods_are_wrapped_on_their_class_and_values_recorded():
    class Box:
        def items(self, n):
            return list(range(n))

    mod = types.ModuleType("m")
    mod.Box = Box
    tr = spans.Tracer()
    undo = spans.install(tr, {"m": mod}, spans=[("m", "Box.items", "m.items", spans._len)], counters=[])
    Box().items(3)
    Box().items(4)
    assert tr.totals()["m.items"]["value"] == 7
    spans.uninstall(undo)
    assert "items" in Box.__dict__ and not hasattr(Box.items, "__wrapped__")


def test_counters_and_child_values():
    mods = _namespaces()
    tr = spans.Tracer()
    spans.install(tr, mods, spans=[], counters=[("a", "helper", "a.helper")])
    mods["b"].work(1)
    mods["a"].helper(1)
    assert tr.counts["a.helper"] == 2
    assert tr.totals() == {}


def test_saved_spans_merge_under_one_query(tmp_path):
    clock = Clock()
    child = spans.Tracer(clock)
    outer = child.open(child.intern("x"))
    clock.now = 1
    inner = child.open(child.intern("y"))
    clock.now = 3
    child.close(inner, 5)
    clock.now = 4
    child.close(outer)
    child.bump("cli.startup_s", 0.25)
    child.save(tmp_path / "q.bin")
    parent = spans.Tracer()
    parent.intern("y")
    parent.merge_file(tmp_path / "q.bin", 7)
    parent.merge_file(tmp_path / "q.bin", 8)
    totals = parent.totals()
    assert totals["x"] == {"calls": 2, "busy_s": 4.0, "value": 0}
    assert totals["y"] == {"calls": 2, "busy_s": 4.0, "value": 10}
    assert list(parent.query) == [7, 7, 8, 8]
    assert parent.counts["cli.startup_s"] == 0.5
    assert parent.child_value("x", "y") == 10


def test_a_module_imported_later_is_wrapped_when_its_import_runs(tmp_path, monkeypatch):
    pkg = tmp_path / "lazypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "early.py").write_text("def base(n):\n    return n + 1\n")
    (pkg / "late.py").write_text(
        "from .early import base\n\n\ndef top(n):\n    return base(n) * 2\n"
    )
    (pkg / "cli.py").write_text(
        "def main(n):\n    from .late import top\n    return top(n)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import lazypkg.cli

    targets = [("early", "base", "early.base", None), ("late", "top", "late.top", None)]
    tr = spans.Tracer()
    hook = spans.install_lazily(tr, "lazypkg", spans=targets, counters=[])
    try:
        assert "lazypkg.late" not in sys.modules
        assert lazypkg.cli.main(1) == 4
    finally:
        sys.meta_path.remove(hook)
        for name in [m for m in sys.modules if m.startswith("lazypkg")]:
            del sys.modules[name]
    totals = tr.totals()
    assert totals["late.top"]["calls"] == 1 and totals["early.base"]["calls"] == 1
    assert list(tr.parent) == [-1, 0]  # early.base ran inside late.top
