#!/usr/bin/env python3
"""Print the lines of src/semikernel that no tier-1 test runs.

    python3 tools/untraced_lines.py [PYTEST ARGS...]

Runs the tier-1 suite in this process under a stdlib line tracer
(sys.settrace and threading.settrace).  Every Python child that the tests
start with the inherited environment, such as the CLI tests' `python -m
semikernel.cli` runs, is traced too: a sitecustomize module put first on
PYTHONPATH starts the tracer there and writes what it saw when the child
exits.  A child given a PYTHONPATH of its own runs untraced.

Then it prints, file by file, the lines of src/semikernel/*.py that start a
statement in the compiled code (`dis.findlinestarts`) and that no process
ran, and their total.  Arguments go to pytest after the tier-1 defaults,
e.g. `--deselect` for a test whose CPU bound tracing breaks.  The exit
status is pytest's.
"""
from __future__ import annotations

import atexit
import dis
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semikernel"
PREFIX = str(SRC) + os.sep
SITECUSTOMIZE = """import os, sys
sys.path.insert(0, {tools!r})
import untraced_lines
untraced_lines.trace_child(os.environ["UNTRACED_LINES_DIR"])
"""


def trace_into(seen):
    """Trace this process from now on, adding each (file, line) run in
    src/semikernel to seen."""

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PREFIX) else None

    threading.settrace(trace)
    sys.settrace(trace)


def trace_child(out_dir):
    """trace_into, writing the lines seen to out_dir/<pid>.json at exit."""
    seen = set()

    def dump():
        sys.settrace(None)
        Path(out_dir, f"{os.getpid()}.json").write_text(json.dumps(sorted(seen)))

    atexit.register(dump)
    trace_into(seen)


def statement_lines(path):
    """The lines that start a statement in the compiled code of path."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # a module's code starts at line 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def ranges(lines):
    """Sorted lines as 'a-b' runs of consecutive numbers."""
    runs = []
    for n in sorted(lines):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv):
    import pytest  # not at the top: every traced child imports this module

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    seen = set()
    with tempfile.TemporaryDirectory() as out_dir:
        site = Path(out_dir, "site")
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(tools=str(ROOT / "tools")))
        os.environ["UNTRACED_LINES_DIR"] = out_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        trace_into(seen)
        try:
            status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for dump in Path(out_dir).glob("*.json"):
            seen.update(map(tuple, json.loads(dump.read_text())))
    total = 0
    for path in sorted(SRC.glob("*.py")):
        unrun = statement_lines(path) - {n for f, n in seen if f == str(path)}
        total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} lines: {ranges(unrun)}")
    print(f"{total} statement lines of src/semikernel ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
