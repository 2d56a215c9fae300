"""Command line driver.

Exit codes: 0 all pass, 1 failure (with witnesses), 2 undecided (budget),
3 input error (usage errors too).  Reports are byte-stable across runs apart
from timings.  Each verb is declared once, in VERBS; the argparse subparsers
are built from it, and argv and report commands share one resolver.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import NamedTuple

from .errors import FormatError, KernelError, UndecidedError
from .presentations import Budget
from .semimodules import MODES, LinearMap, Semimodule, check_semimodule_axioms
from .semimodules import exactness_check, span
from .semirings import Semiring
from .textio import Document, RunReport, elem_from_json, elem_to_json, parse_document

REQUIRED = object()


class Param(NamedTuple):
    """A verb parameter, named by its report key and argparse dest.  Without a
    default it is required (positional on argv), with one it is the option
    ``flag`` (``--name`` unless given).  kind is a key of KINDS, or of DECLS:
    the name of such a declaration, or a word in choices."""

    name: str
    kind: str
    default: object = REQUIRED
    choices: tuple = ()
    flag: str = None


class Ref(NamedTuple):
    name: str  # as written
    value: object  # the declaration; None for a word in choices


class Context(NamedTuple):
    doc: Document
    budget: Budget


def _is_coring(d):
    # the layers above semimodules load only in the verbs that need them
    from .semicorings import Semicoring, StructuredSemicoring

    return isinstance(d, (Semicoring, StructuredSemicoring))


def _is_pairing(d):
    from .pairings import MeasuringPairing

    return isinstance(d, MeasuringPairing)


# other kinds -> (what a value must be, how argparse reads one)
KINDS = {
    "choice": ("one of {}", {}),
    "flag": ("true or false", {"action": "store_true"}),
    "elements": ("a list of carrier elements", {"action": "append", "type": json.loads}),
    "maps": ("a non-empty list of map names", {"nargs": "+"}),
}
# reference kind -> (noun, test on the declaration)
DECLS = {
    "decl": ("declaration", lambda d: d is not None),
    "module": ("semimodule", lambda d: isinstance(d, Semimodule)),
    "coring": ("semicoring", _is_coring),
    "pairing": ("measuring pairing", _is_pairing),
    "map": ("linear map", lambda d: isinstance(d, LinearMap)),
}


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(str(e)) from e


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, int((time.perf_counter() - t0) * 1000)


def _record(cmd, subject, verdict, elapsed_ms=None, detail=None, witness=None):
    """One report record; detail is a message or a JSON value to dump."""
    rec = {"cmd": cmd, "subject": subject, "verdict": verdict}
    if elapsed_ms is not None:
        rec["elapsed_ms"] = elapsed_ms
    if isinstance(detail, str):
        rec["detail"] = detail
    elif detail is not None:
        rec["detail"] = json.dumps(detail, sort_keys=True, default=str)
    if witness is not None:
        rec["witness"] = repr(witness)
    return rec


def _checked(cmd, subject, check):
    """The record of a check that returns a Report."""
    rep, ms = _timed(check)
    witness = None if rep.ok else rep.first_witness()
    return _record(cmd, subject, "pass" if rep.ok else "fail", ms, witness=witness)


def _module_axioms(M, budget):
    """check_semimodule_axioms(M), undecided above the budget's units left."""
    pairs = math.prod(a.size() for a in M.atoms) ** 2 if M.is_finite else 0
    units = budget.limit - budget.used
    if pairs > units:
        raise UndecidedError(f"{M.name} has {pairs} pairs to check, more than the {units} budget units left")
    return check_semimodule_axioms(M)


def _validate(name, v, budget):
    if isinstance(v, Semiring):
        return v.axiom_report  # checked on first read, on the sample a check would draw
    if isinstance(v, Semimodule):
        return _module_axioms(v, budget)
    if isinstance(v, LinearMap):
        return v.check()
    if _is_coring(v):
        from .semicorings import check_semicoring

        return check_semicoring(v)
    if _is_pairing(v):
        return v.verify()
    raise FormatError(f"{name}: nothing to validate")


def cmd_validate(ctx, target):
    for name, v in [target] if target else sorted(ctx.doc.env.items()):
        try:
            yield _checked("validate", name, lambda name=name, v=v: _validate(name, v, ctx.budget))
        except UndecidedError as e:
            yield _record("validate", name, "undecided", detail=str(e))


def cmd_tensor(ctx, left, right):
    from .structured import rule_tensor
    from .tensors import FreeTensor, tensor

    M, N, budget = left.value, right.value, ctx.budget

    def run():
        for ref in (left, right):  # saturation presumes the laws, which a table may break
            rep = any(a.kind == "TABLE" for a in ref.value.atoms) and _module_axioms(ref.value, budget)
            if rep and not rep.ok:
                raise FormatError(f"{ref.name}: semimodule axioms fail: {rep.first_witness()}")
        # a factor that is not finitely generated (Q/Z) leaves only the rule lane
        saturate = all(a.kind != "QMODZ" for a in M.atoms + N.atoms)
        T = tensor(M, N, budget=budget) if saturate else rule_tensor(M, N)
        if isinstance(T, FreeTensor):
            # listing a free tensor spends nothing, so check its size first
            size = len(T.over.elements) ** len(T.pairs)
            units = budget.limit - budget.used
            if size > units:
                raise UndecidedError(
                    f"free tensor has {size} elements, more than the {units} budget units left"
                )
        els = T.result.elements()
        return {
            "cardinality": None if els is None else len(els),
            "atoms": [a.describe() for a in T.result.atoms],
        }

    subject = f"{left.name}(x){right.name}"
    try:
        info, ms = _timed(run)
    except UndecidedError as e:
        yield _record("tensor", subject, "undecided", detail=str(e))
    else:
        yield _record("tensor", subject, "pass", ms, info)


def cmd_dual(ctx, coring, side):
    from .semicorings import dual_semiring

    D, ms = _timed(lambda: dual_semiring(coring.value, side))
    yield _record("dual", coring.name, "pass", ms, {"cardinality": len(D.homs), "side": side})


def cmd_coideal(ctx, coring, generators):
    from .semicorings import coideal_check

    C = coring.value
    K = span(C.carrier, generators)
    info, ms = _timed(lambda: coideal_check(C, K))
    verdict = "pass" if info["is_coideal"] is True else "fail"
    yield _record("coideal", coring.name, verdict, ms, info)


def cmd_rational(ctx, pairing, module):
    from .pairings import dual_of_asemiring, rational_part

    P = pairing.value
    M = dual_of_asemiring(P) if module.name == "dual" else module.value
    r, ms = _timed(lambda: rational_part(P, M))
    info = {"cardinality": len(r.elements)}
    info["elements"] = sorted(json.dumps(elem_to_json(e)) for e in r.elements)
    yield _record("rational", f"Rat({module.name})", "pass", ms, info)


def cmd_exact(ctx, maps, mode):
    (ok, joints), ms = _timed(lambda: exactness_check([f.value for f in maps], mode))
    yield _record("exact", "->".join(f.name for f in maps), "pass" if ok else "fail", ms, joints)


def cmd_gallery(ctx, skip_mutations):
    from .gallery import GALLERY_NAMES, gallery_coring, mutation_corpus
    from .semicorings import check_semicoring

    for name in GALLERY_NAMES:
        yield _checked("gallery", name, lambda name=name: check_semicoring(gallery_coring(name)))
    if not skip_mutations:
        muts, ms = _timed(mutation_corpus)
        bad = [mname for mname, C in muts if check_semicoring(C).ok]
        subject, verdict = f"mutation-corpus({len(muts)})", "pass" if not bad else "fail"
        yield _record("gallery", subject, verdict, ms, {"unexpectedly_passing": bad})


# verb -> (handler, parameters)
VERBS = {
    "validate": (cmd_validate, [Param("target", "decl", None)]),
    "tensor": (cmd_tensor, [Param("left", "module"), Param("right", "module")]),
    "dual": (cmd_dual, [Param("coring", "coring"), Param("side", "choice", "left", ("left", "right", "two"))]),
    "coideal": (cmd_coideal, [Param("coring", "coring"), Param("generators", "elements", (), flag="--gen")]),
    "rational": (cmd_rational, [Param("pairing", "pairing"), Param("module", "module", choices=("dual",))]),
    "exact": (cmd_exact, [Param("maps", "maps"), Param("mode", "choice", "exact", MODES)]),
    "gallery": (cmd_gallery, [Param("skip_mutations", "flag", False)]),
}


def _value(p, v, env, out, where):
    if (p.kind == "choice" and v in p.choices) or (p.kind == "flag" and isinstance(v, bool)):
        return v
    if p.kind == "maps" and isinstance(v, list) and v:
        return [_value(p._replace(kind="map"), name, env, out, where) for name in v]
    if p.kind == "elements" and isinstance(v, list):
        v = [elem_from_json(g) for g in v]
        els = out["coring"].value.carrier.elements()
        if els is None or all(g in els for g in v):
            return v
    if p.kind in DECLS:
        noun, test = DECLS[p.kind]
        if v in p.choices:
            return Ref(v, None)
        if isinstance(v, str) and test(env.get(v)):
            return Ref(v, env[v])
        raise FormatError(f"{where}{p.name}: {v!r} names no {noun}")
    wants = KINDS[p.kind][0].format(", ".join(p.choices))
    raise FormatError(f"{where}{p.name}: {v!r} is not {wants}")


def _resolve(verb, raw, env, where=""):
    """Check raw parameter values (report keys or argparse dests) against the
    verb's row of VERBS and return them resolved, or raise a FormatError."""
    out = {}
    for p in VERBS[verb][1]:
        if p.name in raw:
            out[p.name] = _value(p, raw[p.name], env, out, where)
        elif p.default is REQUIRED:
            raise FormatError(f"{where}{verb} needs key {p.name!r}")
        else:
            out[p.name] = p.default
    return out


def cmd_report(ctx):
    calls = []  # every command is checked before the first one runs
    for i, c in enumerate(ctx.doc.commands):
        verb = c.get("cmd")  # None when missing
        if not isinstance(verb, str) or verb not in VERBS:
            raise FormatError(f"command {i}: unknown cmd {verb!r}")
        calls.append((VERBS[verb][0], _resolve(verb, c, ctx.doc.env, f"command {i}: ")))
    for handler, params in calls:
        yield from handler(ctx, **params)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error (exit 3); argparse's own exit 2 means undecided here
        raise FormatError(message)


def _parser():
    parser = _Parser(prog="semikernel")
    parser.add_argument(
        "--budget",
        type=int,
        default=os.environ.get("SEMIKERNEL_BUDGET", "1000000"),
        help="saturation work budget (nodes)",
    )
    parser.add_argument("--format", choices=("md", "jsonl"), default="md")
    parser.add_argument("--family", help="extra document of family declarations")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, params) in VERBS.items():
        p = sub.add_parser(verb)
        if any(q.kind in DECLS or q.kind == "maps" for q in params):
            p.add_argument("doc")  # a verb that names declarations reads them from a document
        for q in params:
            kw = dict(KINDS[q.kind][1]) if q.kind in KINDS else {}  # _resolve checks choices
            if q.default is REQUIRED:
                p.add_argument(q.name, **kw)
            else:  # an absent option stays absent, so _resolve supplies every default
                flag = q.flag or "--" + q.name.replace("_", "-")
                p.add_argument(flag, dest=q.name, default=argparse.SUPPRESS, **kw)
    sub.add_parser("report").add_argument("doc")
    return parser


def main(argv=None):
    report = RunReport()
    try:
        args = _parser().parse_args(argv)
        doc = _load(args.doc) if "doc" in args else Document({}, [])
        if args.family:
            doc.env.update(_load(args.family).env)
        ctx = Context(doc, Budget(args.budget))
        if args.verb == "report":
            records = cmd_report(ctx)
        else:
            records = VERBS[args.verb][0](ctx, **_resolve(args.verb, vars(args), doc.env))
        for record in records:
            report.add(record)
    except FormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except UndecidedError as e:
        code, error = 2, f"undecided: {e}"
    except KernelError as e:
        code, error = 1, f"error: {e}"
    else:
        code, error = report.exit_code, None
    if report.records or error is None:  # the records made before an error still stand
        sys.stdout.write(report.to_jsonl() if args.format == "jsonl" else report.to_markdown())
    if error is not None:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
