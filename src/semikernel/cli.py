"""Command line driver.

Exit codes: 0 all pass, 1 failure (with witnesses), 2 undecided (budget),
3 input error.  Reports are byte-stable across runs apart from timings.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import FormatError, KernelError, UndecidedError
from .presentations import Budget
from .textio import Document, RunReport, elem_from_json, elem_to_json, parse_document


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as e:
        raise FormatError(str(e)) from e


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, int((time.perf_counter() - t0) * 1000)


def cmd_validate(doc, args, budget, report):
    from .semicorings import check_semicoring
    from .semimodules import Semimodule, check_semimodule_axioms
    from .semirings import Semiring, check_semiring_axioms
    from .semicorings import Semicoring

    targets = [args.target] if args.target else sorted(doc.env)
    for name in targets:
        v = doc.env.get(name)
        if v is None:
            raise FormatError(f"unknown declaration {name!r}")

        def run(v=v):
            if isinstance(v, Semiring):
                return check_semiring_axioms(v)
            if isinstance(v, Semimodule):
                return check_semimodule_axioms(v)
            if isinstance(v, Semicoring) or getattr(v, "structured", False):
                return check_semicoring(v)
            from .semimodules import LinearMap

            if isinstance(v, LinearMap):
                return v.check()
            raise FormatError(f"{name}: nothing to validate")

        rep, ms = _timed(run)
        record = {
            "cmd": "validate",
            "subject": name,
            "verdict": "pass" if rep.ok else "fail",
            "elapsed_ms": ms,
        }
        if not rep.ok:
            record["witness"] = repr(rep.first_witness())
        report.add(record)


def cmd_tensor(doc, args, budget, report):
    from .tensors import FreeTensor, tensor

    M = doc.env.get(args.left)
    N = doc.env.get(args.right)
    if M is None or N is None:
        raise FormatError("unknown module reference")

    def run():
        if M.gens() is None or N.gens() is None:
            # not finitely generated (Q/Z): only the rule lane can answer
            from .structured import rule_tensor

            T = rule_tensor(M, N)
        else:
            T = tensor(M, N, budget=budget)
        if isinstance(T, FreeTensor):
            # listing a free tensor spends nothing, so check its size first
            size = len(T.over.elements) ** len(T.pairs)
            left = budget.limit - budget.used
            if size > left:
                raise UndecidedError(
                    f"free tensor has {size} elements, more than the {left} budget units left"
                )
        els = T.result.elements()
        return {
            "cardinality": None if els is None else len(els),
            "atoms": [a.describe() for a in T.result.atoms],
        }

    try:
        info, ms = _timed(run)
        report.add(
            {
                "cmd": "tensor",
                "subject": f"{args.left}(x){args.right}",
                "verdict": "pass",
                "detail": json.dumps(info, sort_keys=True),
                "elapsed_ms": ms,
            }
        )
    except UndecidedError as e:
        report.add(
            {
                "cmd": "tensor",
                "subject": f"{args.left}(x){args.right}",
                "verdict": "undecided",
                "detail": str(e),
            }
        )


def cmd_dual(doc, args, budget, report):
    from .semicorings import dual_semiring

    C = doc.env.get(args.coring)
    if C is None:
        raise FormatError(f"unknown coring {args.coring!r}")

    def run():
        D = dual_semiring(C, args.side)
        return {"cardinality": len(D.homs), "side": args.side}

    info, ms = _timed(run)
    report.add(
        {
            "cmd": "dual",
            "subject": args.coring,
            "verdict": "pass",
            "detail": json.dumps(info, sort_keys=True),
            "elapsed_ms": ms,
        }
    )


def cmd_coideal(doc, args, budget, report):
    from .semicorings import coideal_check
    from .semimodules import span

    C = doc.env.get(args.coring)
    if C is None:
        raise FormatError(f"unknown coring {args.coring!r}")
    gens = [elem_from_json(json.loads(g)) for g in args.gen or []]
    K = span(C.carrier, gens)
    info, ms = _timed(lambda: coideal_check(C, K))
    verdict = "pass" if info["is_coideal"] is True else "fail"
    report.add(
        {
            "cmd": "coideal",
            "subject": args.coring,
            "verdict": verdict,
            "detail": json.dumps(
                {k: v for k, v in info.items() if k != "tensor"}, sort_keys=True, default=str
            ),
            "elapsed_ms": ms,
        }
    )


def cmd_rational(doc, args, budget, report):
    from .pairings import dual_of_asemiring, rational_part

    P = doc.env.get(args.pairing)
    if P is None:
        raise FormatError("unknown pairing reference")
    if args.module == "dual":
        M = dual_of_asemiring(P)
    else:
        M = doc.env.get(args.module)
    if M is None:
        raise FormatError("unknown module reference")

    def run():
        r = rational_part(P, M)
        return {
            "cardinality": len(r.elements),
            "elements": sorted(
                (json.dumps(elem_to_json(e)) for e in r.elements)
            ),
        }

    info, ms = _timed(run)
    report.add(
        {
            "cmd": "rational",
            "subject": f"Rat({args.module})",
            "verdict": "pass",
            "detail": json.dumps(info, sort_keys=True),
            "elapsed_ms": ms,
        }
    )


def cmd_exact(doc, args, budget, report):
    from .semimodules import exactness_check

    maps = []
    for name in args.maps:
        f = doc.env.get(name)
        if f is None:
            raise FormatError(f"unknown map {name!r}")
        maps.append(f)
    (ok, joints), ms = _timed(lambda: exactness_check(maps, args.mode))
    report.add(
        {
            "cmd": "exact",
            "subject": "->".join(args.maps),
            "verdict": "pass" if ok else "fail",
            "detail": json.dumps(joints, sort_keys=True, default=str),
            "elapsed_ms": ms,
        }
    )


def cmd_gallery(doc, args, budget, report):
    from .gallery import GALLERY_NAMES, gallery_coring, mutation_corpus
    from .semicorings import check_semicoring

    for name in GALLERY_NAMES:
        rep, ms = _timed(lambda name=name: check_semicoring(gallery_coring(name)))
        record = {
            "cmd": "gallery",
            "subject": name,
            "verdict": "pass" if rep.ok else "fail",
            "elapsed_ms": ms,
        }
        if not rep.ok:
            record["witness"] = repr(rep.first_witness())
        report.add(record)
    if not args.skip_mutations:
        muts, ms = _timed(mutation_corpus)
        bad = []
        for mname, C in muts:
            if check_semicoring(C).ok:
                bad.append(mname)
        report.add(
            {
                "cmd": "gallery",
                "subject": f"mutation-corpus({len(muts)})",
                "verdict": "pass" if not bad else "fail",
                "detail": json.dumps({"unexpectedly_passing": bad}, sort_keys=True),
                "elapsed_ms": ms,
            }
        )


# keys each report command reads without a default
REQUIRED_KEYS = {
    "validate": (),
    "tensor": ("left", "right"),
    "dual": ("coring",),
    "coideal": ("coring",),
    "rational": ("pairing", "module"),
    "exact": ("maps",),
    "gallery": (),
}


def cmd_report(doc, args, budget, report):
    dispatch = {
        "validate": lambda c: cmd_validate(doc, argparse.Namespace(target=c.get("target")), budget, report),
        "tensor": lambda c: cmd_tensor(doc, argparse.Namespace(left=c["left"], right=c["right"]), budget, report),
        "dual": lambda c: cmd_dual(doc, argparse.Namespace(coring=c["coring"], side=c.get("side", "left")), budget, report),
        "coideal": lambda c: cmd_coideal(
            doc,
            argparse.Namespace(coring=c["coring"], gen=[json.dumps(g) for g in c.get("generators", [])]),
            budget,
            report,
        ),
        "rational": lambda c: cmd_rational(doc, argparse.Namespace(pairing=c["pairing"], module=c["module"]), budget, report),
        "exact": lambda c: cmd_exact(doc, argparse.Namespace(maps=c["maps"], mode=c.get("mode", "exact")), budget, report),
        "gallery": lambda c: cmd_gallery(doc, argparse.Namespace(skip_mutations=c.get("skip_mutations", False)), budget, report),
    }
    for i, c in enumerate(doc.commands):
        kind = c["cmd"]
        if kind not in dispatch:
            raise FormatError(f"command {i}: unknown cmd {kind!r}")
        missing = [k for k in REQUIRED_KEYS[kind] if k not in c]
        if missing:
            raise FormatError(f"command {i}: {kind} needs key {missing[0]!r}")
        dispatch[kind](c)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="semikernel")
    parser.add_argument(
        "--budget",
        type=int,
        default=int(os.environ.get("SEMIKERNEL_BUDGET", "1000000")),
        help="saturation work budget (nodes)",
    )
    parser.add_argument("--format", choices=("md", "jsonl"), default="md")
    parser.add_argument("--family", help="extra document of family declarations")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate")
    p.add_argument("doc")
    p.add_argument("--target")
    p = sub.add_parser("tensor")
    p.add_argument("doc")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("dual")
    p.add_argument("doc")
    p.add_argument("coring")
    p.add_argument("--side", choices=("left", "right", "two"), default="left")
    p = sub.add_parser("coideal")
    p.add_argument("doc")
    p.add_argument("coring")
    p.add_argument("--gen", action="append")
    p = sub.add_parser("rational")
    p.add_argument("doc")
    p.add_argument("pairing")
    p.add_argument("module")
    p = sub.add_parser("exact")
    p.add_argument("doc")
    p.add_argument("maps", nargs="+")
    p.add_argument("--mode", choices=("exact", "semi", "proper", "quasi"), default="exact")
    p = sub.add_parser("gallery")
    p.add_argument("--skip-mutations", action="store_true")
    p = sub.add_parser("report")
    p.add_argument("doc")

    args = parser.parse_args(argv)
    budget = Budget(args.budget)
    report = RunReport()
    try:
        if args.verb == "gallery":
            doc = Document({}, [])
        else:
            doc = _load(args.doc)
        if args.family:
            fam = _load(args.family)
            doc.env.update(fam.env)
        handler = {
            "validate": cmd_validate,
            "tensor": cmd_tensor,
            "dual": cmd_dual,
            "coideal": cmd_coideal,
            "rational": cmd_rational,
            "exact": cmd_exact,
            "gallery": cmd_gallery,
            "report": cmd_report,
        }[args.verb]
        handler(doc, args, budget, report)
    except FormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except UndecidedError as e:
        print(f"undecided: {e}", file=sys.stderr)
        return 2
    except KernelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = report.to_jsonl() if args.format == "jsonl" else report.to_markdown()
    sys.stdout.write(out)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
