"""Spans and counters recorded around semikernel's public functions.

The wrappers live here, outside the program: ``install`` replaces each
target function in every module namespace that binds it (``from .x import
f`` copies the binding) and each target method on its class.  Spans are kept
in flat arrays in memory and written to a file when a run ends; the per-layer
numbers are derived from the spans afterwards.
"""
from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import sys
import time
from array import array


# values recorded with a span, computed from its arguments and result

def _len(tracer, name, args, out):
    return len(out)


def _classes(tracer, name, args, out):
    result = args[0].result
    return len(result.atoms[0].elements()) if result is not None else 0


def _colinear(tracer, name, args, out):
    pair = (id(args[0]), id(args[1]))
    if pair in tracer._seen_pairs:
        tracer.bump(name + ".repeats")
    else:
        tracer._seen_pairs.add(pair)
        tracer._keep.append(args[:2])  # ids stay unique while the objects live
    return len(out)


# (module, attribute, span name, value recorded with the span)
SPANS = [
    ("presentations", "MonoidPresentation._complete", "presentations.complete", None),
    ("presentations", "MonoidPresentation.reduce", "presentations.reduce", None),
    ("presentations", "MonoidPresentation.enumerate_quotient", "presentations.enumerate_quotient", None),
    ("tensors", "SaturationTensor.__init__", "tensors.saturation", _classes),
    ("tensors", "TensorProduct.map_of", "tensors.map_of", None),
    ("structured", "rule_tensor", "structured.rule_tensor", None),
    ("semimodules", "span", "semimodules.span", None),
    ("semimodules", "enumerate_submodules", "semimodules.enumerate_submodules", _len),
    ("semimodules", "hom_enumerate", "semimodules.hom_enumerate", _len),
    ("semimodules", "find_isomorphism", "semimodules.find_isomorphism", None),
    ("semimodules", "enumerate_modules", "semimodules.enumerate_modules", None),
    ("semimodules", "module_congruence_closure", "semimodules.module_congruence_closure", None),
    ("semimodules", "exactness_check", "semimodules.exactness_check", None),
    ("semimodules", "check_semimodule_axioms", "semimodules.check_semimodule_axioms", None),
    ("semicomodules", "colinear_maps", "semicomodules.colinear_maps", _colinear),
    ("semicomodules", "comodule_hom_check", "semicomodules.comodule_hom_check", None),
    ("semicomodules", "comodule_coequalizer", "semicomodules.comodule_coequalizer", None),
    ("semicomodules", "comodule_equalizer", "semicomodules.comodule_equalizer", None),
    ("semicomodules", "verify_coequalizer_universal", "semicomodules.verify_coequalizer_universal", None),
    ("semicomodules", "verify_equalizer_universal", "semicomodules.verify_equalizer_universal", None),
    ("semicomodules", "check_comodule", "semicomodules.check_comodule", None),
    ("semicorings", "check_semicoring", "semicorings.check_semicoring", None),
    ("semicorings", "dual_semiring", "semicorings.dual_semiring", None),
    ("semicorings", "coideal_check", "semicorings.coideal_check", None),
    ("semirings", "check_semiring_axioms", "semirings.check_semiring_axioms", None),
    ("gallery", "mutation_corpus", "gallery.mutation_corpus", None),
    ("pairings", "rational_part", "pairings.rational_part", None),
    ("pairings", "alpha_check", "pairings.alpha_check", None),
    ("pairings", "canonical_dual_pairing", "pairings.canonical_dual_pairing", None),
    ("textio", "parse_document", "textio.parse_document", None),
    ("textio", "RunReport.to_jsonl", "textio.report_render", None),
    ("textio", "RunReport.to_markdown", "textio.report_render", None),
    ("cli", "main", "cli.main", None),
]

# (module, attribute, counter name): called too often for a span each
COUNTERS = [
    ("util", "ordkey", "util.ordkey"),
    ("tensors", "FreeTensor.__init__", "tensors.free"),
]

MODULES = (
    "__init__", "atoms", "cli", "errors", "gallery", "pairings", "presentations",
    "semicomodules", "semicorings", "semimodules", "semirings", "structured",
    "tensors", "textio", "util",
)


class Tracer:
    """Spans (name, start, end, parent span, query id, value) in flat arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.query = array("l")
        self.value = array("q")
        self.counts = {}
        self.query_id = -1
        self._stack = []
        self._seen_pairs = set()
        self._keep = []

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.value.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx, value=0):
        self.end[idx] = self.clock()
        self.value[idx] = value
        self._stack.pop()

    def bump(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, value=None):
        """fn recorded as a span; value(tracer, name, args, result) is kept with it."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            recorded = 0
            try:
                out = fn(*args, **kwargs)
                if value is not None:
                    recorded = value(self, name, args, out)
                return out
            finally:
                self.close(idx, recorded)

        return traced

    def counter(self, fn, name):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- persistence ------------------------------------------------------

    def save(self, path):
        header = json.dumps({"names": self.names, "counts": self.counts, "n": len(self.start)}).encode()
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in (self.start, self.end, self.name, self.parent, self.query, self.value):
                arr.tofile(fh)

    def merge_file(self, path, query_id):
        """Append the spans a child process saved, as spans of query_id."""
        with open(path, "rb") as fh:
            size = int.from_bytes(fh.read(8), "little")
            header = json.loads(fh.read(size))
            n = header["n"]
            cols = []
            for code in ("d", "d", "l", "l", "l", "q"):
                col = array(code)
                col.fromfile(fh, n)
                cols.append(col)
        start, end, name, parent, _, value = cols
        remap = [self.intern(nm) for nm in header["names"]]
        base = len(self.start)
        self.start.extend(start)
        self.end.extend(end)
        self.name.extend(remap[i] for i in name)
        self.parent.extend(p + base if p >= 0 else -1 for p in parent)
        self.query.extend([query_id] * n)
        self.value.extend(value)
        for k, v in header["counts"].items():
            self.bump(k, v)

    # -- derived numbers --------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the part of it its children cover."""
        children = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            spans = sorted((max(self.start[k], lo), min(self.end[k], hi)) for k in kids)
            covered = 0.0
            cur_s = cur_e = None
            for s, e in spans:
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[p] -= covered
        return out

    def totals(self):
        """Per span name: calls, self time, summed values."""
        own = self.self_times()
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        values = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            busy[nid] += own[i]
            values[nid] += self.value[i]
        return {
            nm: {"calls": calls[i], "busy_s": busy[i], "value": values[i]}
            for i, nm in enumerate(self.names)
        }

    def child_value(self, parent_name, child_name):
        """Sum of values of child_name spans whose direct parent is parent_name."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        total = 0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if nid == cid and p >= 0 and self.name[p] == pid:
                total += self.value[i]
        return total


def install(tracer, modules, spans=SPANS, counters=COUNTERS):
    """Wrap every target whose module is in ``modules``; returns the bindings
    replaced, for ``uninstall``."""
    undo = []

    def replace(modname, attr, make):
        owner = modules.get(modname)
        if owner is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(owner, attr)
        wrapped = make(orig)
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    for modname, attr, name, value in spans:
        replace(modname, attr, functools.partial(tracer.wrap, name=name, value=value))
    for modname, attr, name in counters:
        replace(modname, attr, functools.partial(tracer.counter, name=name))
    return undo


def uninstall(undo):
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def loaded_modules(package="semikernel"):
    """The package's modules imported so far, by short name."""
    prefix = package + "."
    return {
        ("__init__" if name == package else name[len(prefix):]): mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    }


class WrapOnImport(importlib.abc.MetaPathFinder):
    """Installs the wrappers of each package module as it is imported.

    The CLI imports some modules only inside its commands; this wraps them
    when that import runs, so that the import itself keeps its cost and its
    place in the CLI's own time.
    """

    def __init__(self, tracer, package="semikernel", spans=SPANS, counters=COUNTERS):
        self.tracer = tracer
        self.package = package
        self.spans = spans
        self.counters = counters

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith(self.package + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        load = spec.loader.exec_module
        short = fullname.rsplit(".", 1)[1]

        def exec_module(module):
            load(module)
            install(
                self.tracer, loaded_modules(self.package),
                spans=[t for t in self.spans if t[0] == short],
                counters=[t for t in self.counters if t[0] == short],
            )

        spec.loader.exec_module = exec_module
        return spec


def install_lazily(tracer, package="semikernel", spans=SPANS, counters=COUNTERS):
    """Wrap the package's loaded modules now and the others when imported.

    Returns the import hook, for ``sys.meta_path.remove``.
    """
    install(tracer, loaded_modules(package), spans, counters)
    hook = WrapOnImport(tracer, package, spans, counters)
    sys.meta_path.insert(0, hook)
    return hook


def package_modules():
    """Import every semikernel module; the namespaces ``install`` rebinds in."""
    return {
        m: importlib.import_module("semikernel" if m == "__init__" else f"semikernel.{m}")
        for m in MODULES
    }


def src_lines(src_dir):
    """Physical lines (newline characters, as ``wc -l`` counts) per module file."""
    return {m: (src_dir / f"{m}.py").read_bytes().count(b"\n") for m in MODULES}


def _metric_module(m):
    return "init" if m == "__init__" else m


# per-layer metrics: (name, unit, better)
BUSY = [
    "presentations.complete", "presentations.reduce", "presentations.enumerate_quotient",
    "tensors.saturation", "tensors.map_of", "structured.rule_tensor",
    "semimodules.span", "semimodules.enumerate_submodules", "semimodules.hom_enumerate",
    "semimodules.find_isomorphism", "semimodules.enumerate_modules",
    "semimodules.module_congruence_closure", "semimodules.exactness_check",
    "semimodules.check_semimodule_axioms", "semicomodules.colinear_maps",
    "semicomodules.comodule_hom_check", "semicomodules.comodule_coequalizer",
    "semicomodules.comodule_equalizer", "semicomodules.verify_coequalizer_universal",
    "semicomodules.verify_equalizer_universal", "semicomodules.check_comodule",
    "semicorings.check_semicoring", "semicorings.dual_semiring", "semicorings.coideal_check",
    "semirings.check_semiring_axioms", "gallery.mutation_corpus", "pairings.rational_part",
    "pairings.alpha_check", "pairings.canonical_dual_pairing", "textio.parse_document",
    "textio.report_render",
]
CALLS = [
    "presentations.complete", "presentations.reduce", "tensors.saturation",
    "structured.rule_tensor", "semimodules.span", "semimodules.hom_enumerate",
    "semicomodules.colinear_maps", "semicorings.check_semicoring",
]
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in CALLS]
    + [(f"{n}.busy_s", "s", "lower") for n in BUSY]
    + [
        ("presentations.budget_units", "units", "lower"),
        ("tensors.result_elems", "count", "higher"),
        ("tensors.fastpath_ratio", "ratio", "higher"),
        ("semimodules.enumerate_submodules.found", "count", "higher"),
        ("semimodules.hom_enumerate.maps", "count", "higher"),
        ("semicomodules.colinear_yield", "ratio", "higher"),
        ("semicomodules.colinear_maps.repeat_ratio", "ratio", "lower"),
        ("cli.startup_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("util.ordkey.calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    + [(f"{_metric_module(m)}.src_lines", "lines", "lower") for m in MODULES]
)


def layer_metrics(tracer, lines, overhead_ratio):
    """Every PER_LAYER value from a finished traced run, as {name: (value, unit)}.

    Besides the spans, the run adds to ``tracer.counts``: the work units its
    budgets used (``presentations.budget_units``) and, for CLI children, the
    time from spawn to the entry of ``main`` (``cli.startup_s``).
    """
    totals = tracer.totals()

    def total(name, field):
        return totals.get(name, {}).get(field, 0)

    counts = tracer.counts
    values = {f"{n}.calls": total(n, "calls") for n in CALLS}
    values.update({f"{n}.busy_s": total(n, "busy_s") for n in BUSY})
    tensor_calls = counts.get("tensors.free", 0) + total("tensors.saturation", "calls")
    homs_inside = tracer.child_value("semicomodules.colinear_maps", "semimodules.hom_enumerate")
    colinear_calls = total("semicomodules.colinear_maps", "calls")
    values.update({
        "presentations.budget_units": counts.get("presentations.budget_units", 0),
        "tensors.result_elems": total("tensors.saturation", "value"),
        "tensors.fastpath_ratio": counts.get("tensors.free", 0) / tensor_calls if tensor_calls else 0.0,
        "semimodules.enumerate_submodules.found": total("semimodules.enumerate_submodules", "value"),
        "semimodules.hom_enumerate.maps": total("semimodules.hom_enumerate", "value"),
        "semicomodules.colinear_yield": (
            total("semicomodules.colinear_maps", "value") / homs_inside if homs_inside else 0.0
        ),
        "semicomodules.colinear_maps.repeat_ratio": (
            counts.get("semicomodules.colinear_maps.repeats", 0) / colinear_calls if colinear_calls else 0.0
        ),
        "cli.startup_s": counts.get("cli.startup_s", 0.0),
        "cli.main.self_s": total("cli.main", "busy_s"),
        "util.ordkey.calls": counts.get("util.ordkey", 0),
        "trace.overhead_ratio": overhead_ratio,
    })
    values.update({f"{_metric_module(m)}.src_lines": n for m, n in lines.items()})
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
