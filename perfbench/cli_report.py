"""Workload ``cli-report``: one CLI child process per query, one at a time.

Each query is a seeded JSON document or one verb, run as
``python -m semikernel.cli --format jsonl ...``, so every query pays the
cold start a command-line user pays.  Exit codes are checked against the
0/1/2/3 contract, verdicts and cardinalities against the oracle, and each
report record against the seed commit's digest.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import digests
import oracle
from query import Query

IN_PROCESS = False
# A round of 105 cold starts takes about 30 s; two would not fit the run.
MIN_ROUNDS = 1
HERE = Path(__file__).resolve().parent

CEILING_S = 5.0  # every well-behaved query but the gallery verb ends within 1 s
GALLERY_CEILING_S = 30.0  # the gallery verb takes about 2.4 s
MUTATIONS_CEILING_S = 90.0  # with the mutation corpus, about 9 s
GALLERY = ["gallery", "--skip-mutations"]
# The timed rounds run the gallery verb with --skip-mutations: checking the
# 57 mutants adds about 9 s to a round of 105 cold starts.  The traced run
# adds one gallery verb with the mutation corpus after its round (see
# ``traced_extras``), so the corpus's layer is measured and checked there.
MEMORY_CEILING = 512 << 20  # bytes of address space; well-behaved children use < 100 MiB

# One round: the gallery verb, REPORT_COPIES copies of every report command
# dealt into documents of COMMANDS_PER_REPORT, HEAVY_REPORTS documents of
# HEAVY_REPORT (they hold the 90th percentile), every report command once as
# a single verb, and every contract document once.  The multiset of queries
# is the same on every seed, so a round's work is too; the seed deals the
# commands into documents and orders the documents and the queries.
REPORT_COPIES = 2
COMMANDS_PER_REPORT = 3
HEAVY_REPORTS = 19
HEAVY_REPORT = (
    "validate C4", "validate C6", "tensor C7 C7", "dual P1 left", "dual P1 right", "rational PGL dual",
)

# declarations by name, in dependency order
DECLARATIONS = {
    "B": {"kind": "semiring", "builtin": "BOOL"},
    "N0": {"kind": "semiring", "builtin": "NAT"},
    "Z2": {"kind": "semiring", "builtin": "ZMOD", "n": 2},
    "Z3": {"kind": "semiring", "builtin": "ZMOD", "n": 3},
    **{f"C{n}": {"kind": "semimodule", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": n}]} for n in range(1, 9)},
    **{
        f"F{s}{r}": {"kind": "semimodule", "base": s, "atoms": [{"kind": "FREE", "rank": r}]}
        for s in ("B", "Z2", "Z3")
        for r in (1, 2)
    },
    "ZB": {"kind": "semimodule", "base": "B", "atoms": []},
    "GL": {"kind": "coring", "gallery": "grouplike_bool_2"},
    "CXB": {"kind": "coring", "gallery": "coext_bool"},
    "CXZ": {"kind": "coring", "gallery": "coext_zmod2"},
    "SW": {"kind": "coring", "gallery": "sweedler_id"},
    "P1": {"kind": "coring", "gallery": "poly1_zmod2_3"},
    "P2": {"kind": "coring", "gallery": "poly2_zmod2_3"},
    "CE": {"kind": "coring", "gallery": "counterexample_4"},
    "PGL": {"kind": "pairing", "dual_of": "GL"},
    # maps between ZB = 0 and FB1 = B, for exactness questions
    "zin": {"kind": "map", "source": "ZB", "target": "FB1", "pairs": [[[], [[0]]]]},
    "idB": {"kind": "map", "source": "FB1", "target": "FB1", "pairs": [[[[0]], [[0]]], [[[1]], [[1]]]]},
    "zB": {"kind": "map", "source": "FB1", "target": "FB1", "pairs": [[[[0]], [[0]]], [[[1]], [[0]]]]},
    "zout": {"kind": "map", "source": "FB1", "target": "ZB", "pairs": [[[[0]], []], [[[1]], []]]},
}
NEEDS = {  # direct dependencies of each declaration
    **{f"C{n}": ["N0"] for n in range(1, 9)},
    **{f"F{s}{r}": [s] for s in ("B", "Z2", "Z3") for r in (1, 2)},
    "ZB": ["B"],
    "PGL": ["GL"],
    "zin": ["ZB", "FB1"], "idB": ["FB1"], "zB": ["FB1"], "zout": ["FB1", "ZB"],
}
SIZES = {"B": 2, "Z2": 2, "Z3": 3}


def _commands():
    """Every report command: key -> (command, declarations, verdict, cardinality or None)."""
    out = {}
    for target in ("B", "Z2", "Z3", "C4", "C6", "FB2", "FZ22", "GL", "CXB", "CXZ", "SW", "P1", "P2", "CE"):
        # builtins and gallery corings satisfy their axioms by construction
        out[f"validate {target}"] = ({"cmd": "validate", "target": target}, [target], "pass", None)
    for a, b in ((2, 3), (4, 6), (6, 8), (3, 6), (5, 5), (8, 4), (7, 7), (1, 5)):
        cmd = {"cmd": "tensor", "left": f"C{a}", "right": f"C{b}"}
        out[f"tensor C{a} C{b}"] = (cmd, [f"C{a}", f"C{b}"], "pass", oracle.cyclic_tensor_size(a, b))
    for s in ("B", "Z2", "Z3"):
        for a, b in ((1, 2), (2, 2)):
            cmd = {"cmd": "tensor", "left": f"F{s}{a}", "right": f"F{s}{b}"}
            out[f"tensor F{s}{a} F{s}{b}"] = (cmd, [f"F{s}{a}", f"F{s}{b}"], "pass", SIZES[s] ** (a * b))
    # the dual of the grouplike coalgebra on two points is BOOL^2 (4 elements)
    out["dual GL left"] = ({"cmd": "dual", "coring": "GL", "side": "left"}, ["GL"], "pass", 4)
    for coring in ("CXB", "SW", "P1"):
        for side in ("left", "right"):
            cmd = {"cmd": "dual", "coring": coring, "side": side}
            out[f"dual {coring} {side}"] = (cmd, [coring], "pass", None)
    # {0} is a coideal of every semicoring; the whole carrier is not (counit)
    out["coideal GL 0"] = ({"cmd": "coideal", "coring": "GL", "generators": []}, ["GL"], "pass", None)
    out["coideal GL all"] = (
        {"cmd": "coideal", "coring": "GL", "generators": [[[1, 0]], [[0, 1]]]}, ["GL"], "fail", None,
    )
    out["rational PGL dual"] = ({"cmd": "rational", "pairing": "PGL", "module": "dual"}, ["PGL"], "pass", 4)
    # 0 -> B -> B -> 0 is exact with the identity and not with the zero map
    out["exact id"] = ({"cmd": "exact", "maps": ["zin", "idB", "zout"]}, ["zin", "idB", "zout"], "pass", None)
    out["exact zero"] = ({"cmd": "exact", "maps": ["zin", "zB", "zout"]}, ["zin", "zB", "zout"], "fail", None)
    return out


COMMANDS = _commands()

# tensors that need more than 4 units of work: the CLI must answer "undecided"
STARVED_PAIRS = ((5, 5), (4, 6), (6, 6), (7, 7), (8, 8), (6, 8), (3, 3), (4, 4))

# documents the contract says are input errors (exit 3)
MALFORMED_DOCS = {
    "syntax": "{broken",
    "not-an-object": "[]",
    "unknown-cmd": json.dumps({"commands": [{"cmd": "frobnicate"}]}),
    "missing-cmd": json.dumps({"commands": [{"left": "C4"}]}),
    "dangling-base": json.dumps({"declarations": [dict(DECLARATIONS["C4"], name="C4")]}),
    "unknown-gallery": json.dumps({"declarations": [{"kind": "coring", "name": "X", "gallery": "nope"}]}),
    "free-over-nat": json.dumps({"declarations": [
        dict(DECLARATIONS["N0"], name="N0"),
        {"kind": "semimodule", "name": "F", "base": "N0", "atoms": [{"kind": "FREE", "rank": 2}]},
    ]}),
    "unknown-kind": json.dumps({"declarations": [{"kind": "sheaf", "name": "X"}]}),
    "unknown-module": json.dumps({
        "declarations": [dict(DECLARATIONS["N0"], name="N0")],
        "commands": [{"cmd": "tensor", "left": "M", "right": "N"}],
    }),
    "unknown-target": json.dumps({
        "declarations": [dict(DECLARATIONS["B"], name="B")],
        "commands": [{"cmd": "validate", "target": "X"}],
    }),
}

# ROADMAP item-4 defects: (flags, document, contract exit code, cardinality)
DEFECTS = {
    "tensor-missing-right": (
        [],
        json.dumps({
            "declarations": [dict(DECLARATIONS["N0"], name="N0"), dict(DECLARATIONS["C4"], name="C4")],
            "commands": [{"cmd": "tensor", "left": "C4"}],
        }),
        3,
        None,
    ),
    "qmodz-tensor": (
        [],
        json.dumps({
            "declarations": [
                dict(DECLARATIONS["N0"], name="N0"),
                {"kind": "semimodule", "name": "QZ", "base": "N0", "atoms": [{"kind": "QMODZ"}]},
                dict(DECLARATIONS["C4"], name="C4"),
            ],
            # Q/Z is divisible and C_4 is torsion, so Q/Z (x) C_4 = 0: pass
            "commands": [{"cmd": "tensor", "left": "QZ", "right": "C4"}],
        }),
        0,
        1,
    ),
    "free3-zmod6-budget": (
        ["--budget", "50"],
        json.dumps({
            "declarations": [
                {"kind": "semiring", "name": "Z6", "builtin": "ZMOD", "n": 6},
                {"kind": "semimodule", "name": "F", "base": "Z6", "atoms": [{"kind": "FREE", "rank": 3}]},
            ],
            # 6^9 elements: the budget must run out before they exist
            "commands": [{"cmd": "tensor", "left": "F", "right": "F"}],
        }),
        2,
        None,
    ),
}


def _closure(names):
    need = set()

    def visit(n):
        if n not in need:
            need.add(n)
            for m in NEEDS.get(n, ()):
                visit(m)

    for n in names:
        visit(n)
    return [n for n in DECLARATIONS if n in need]


def document(keys):
    decls = _closure([d for k in keys for d in COMMANDS[k][1]])
    return {
        "declarations": [dict(DECLARATIONS[n], name=n) for n in decls],
        "commands": [COMMANDS[k][0] for k in keys],
    }


def _verb_argv(key, path):
    """The single verb that runs report command key on the document at path."""
    cmd = COMMANDS[key][0]
    kind = cmd["cmd"]
    if kind == "validate":
        return ["validate", path, "--target", cmd["target"]]
    if kind == "tensor":
        return ["tensor", path, cmd["left"], cmd["right"]]
    if kind == "dual":
        return ["dual", path, cmd["coring"], "--side", cmd["side"]]
    if kind == "coideal":
        gens = []
        for g in cmd["generators"]:
            gens += ["--gen", json.dumps(g)]
        return ["coideal", path, cmd["coring"], *gens]
    if kind == "rational":
        return ["rational", path, cmd["pairing"], cmd["module"]]
    return ["exact", path, *cmd["maps"]]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))


def run_cli(state, argv, ceiling, spans_path=None):
    """One child, waited for; returns exit code, records, stderr and ceiling hit."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "semikernel.cli", "--format", "jsonl", *argv]
    else:
        cmd = [sys.executable, str(HERE / "launch.py"), str(spans_path), repr(time.time()),
               "--format", "jsonl", *argv]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=ceiling, cwd=state.root,
            env=state.env, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"exit": None, "records": [], "stderr": "", "ceiling": True}
    records = []
    for line in proc.stdout.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            records.append({"unparsed": line})
            continue
        rec.pop("elapsed_ms", None)
        records.append(rec)
    return {"exit": proc.returncode, "records": records, "stderr": proc.stderr, "ceiling": False}


def _answer(result):
    # what is compared with the seed commit: exit code and records
    return {"exit": result["exit"], "records": result["records"]}


def _contract_failure(result, expected_exit):
    if result["ceiling"]:
        return "hit the per-query ceiling"
    if "Traceback" in result["stderr"]:
        return f"traceback (exit {result['exit']}): {result['stderr'].strip().splitlines()[-1]}"
    if result["exit"] != expected_exit:
        return f"exit {result['exit']}, contract says {expected_exit}"
    return None


def _cardinality(record):
    return json.loads(record.get("detail", "{}")).get("cardinality")


def _check_records(keys, result):
    expected_exit = oracle.exit_code([COMMANDS[k][2] for k in keys])
    reason = _contract_failure(result, expected_exit)
    if reason:
        return reason
    records = result["records"]
    if len(records) != len(keys):
        return f"{len(records)} records for {len(keys)} commands"
    for key, rec in zip(keys, records):
        _, _, verdict, size = COMMANDS[key]
        if rec.get("verdict") != verdict:
            return f"{key}: verdict {rec.get('verdict')!r}, expected {verdict!r}"
        if size is not None and _cardinality(rec) != size:
            return f"{key}: detail {rec.get('detail')}, expected cardinality {size}"
        reason = digests.check("cli-report", f"cmd:{key}", rec)
        if reason:
            return reason
    return None


class State:
    def __init__(self, ctx):
        self.root = ctx.root
        self.work = ctx.work
        self.trace_dir = None
        self.spans_files = {}
        self.next_doc = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ctx.src) + (os.pathsep + path if path else ""))

    def write(self, text):
        path = self.work / f"doc{self.next_doc}.json"
        self.next_doc += 1
        path.write_text(text, encoding="utf-8")
        return str(path)


def setup(ctx):
    return State(ctx)


def _query(state, name, argv, check, ceiling=CEILING_S, heavy=False):
    def run():
        spans_path = None
        if state.trace_dir is not None:
            # traced children save their spans for the parent to merge
            spans_path = state.trace_dir / f"q{len(state.spans_files)}.bin"
            state.spans_files[len(state.spans_files)] = spans_path
        return run_cli(state, argv, ceiling, spans_path)

    return Query(name, run, check, heavy=heavy)


def _report(state, keys):
    path = state.write(json.dumps(document(keys)))
    return _query(state, "report " + " | ".join(keys), ["report", path], lambda r: _check_records(keys, r))


def _verb(state, key):
    path = state.write(json.dumps(document([key])))
    return _query(state, f"verb {key}", _verb_argv(key, path), lambda r: _check_records([key], r))


def _gallery(state, mutations=False):
    key = "gallery+mutations" if mutations else "gallery"

    def check(result):
        reason = _contract_failure(result, 0)
        if reason:
            return reason
        # the mutation-corpus record passes when every mutant is rejected
        bad = [r for r in result["records"] if r.get("verdict") != "pass"]
        if bad:
            return f"gallery records that did not pass: {bad}"
        if mutations and not any(r["subject"].startswith("mutation-corpus") for r in result["records"]):
            return "no mutation-corpus record"
        return digests.check("cli-report", key, _answer(result))

    if mutations:
        return _query(state, key, ["gallery"], check, ceiling=MUTATIONS_CEILING_S, heavy=True)
    return _query(state, key, GALLERY, check, ceiling=GALLERY_CEILING_S, heavy=True)


def traced_extras(state):
    """Queries the traced run adds after its round, outside the overhead ratio."""
    return [_gallery(state, mutations=True)]


def _starved_doc(a, b):
    return json.dumps({
        "declarations": [dict(DECLARATIONS[n], name=n) for n in _closure([f"C{a}", f"C{b}"])],
        "commands": [{"cmd": "tensor", "left": f"C{a}", "right": f"C{b}"}],
    })


def _starved(state, a, b):
    path = state.write(_starved_doc(a, b))

    def check(result):
        reason = _contract_failure(result, 2)
        if reason:
            return reason
        return digests.check("cli-report", f"starved:C{a}:C{b}", _answer(result))

    return _query(state, f"starved C{a}(x)C{b}", ["--budget", "4", "report", path], check)


def _malformed(state, key):
    path = state.write(MALFORMED_DOCS[key])

    def check(result):
        reason = _contract_failure(result, 3)
        if reason:
            return reason
        if not result["stderr"].startswith("input error"):
            return f"stderr {result['stderr']!r} is not an input error"
        return None

    return _query(state, f"malformed {key}", ["report", path], check)


def build_round(state, rng):
    queries = [_gallery(state)]
    pool = sorted(COMMANDS) * REPORT_COPIES
    rng.shuffle(pool)
    queries += [_report(state, pool[i:i + COMMANDS_PER_REPORT]) for i in range(0, len(pool), COMMANDS_PER_REPORT)]
    queries += [_report(state, rng.sample(HEAVY_REPORT, len(HEAVY_REPORT))) for _ in range(HEAVY_REPORTS)]
    queries += [_verb(state, key) for key in sorted(COMMANDS)]
    queries += [_starved(state, a, b) for a, b in STARVED_PAIRS]
    queries += [_malformed(state, key) for key in sorted(MALFORMED_DOCS)]
    rng.shuffle(queries)
    return queries


def merge_spans(state, tracer):
    for i, path in state.spans_files.items():
        if path.exists():
            tracer.merge_file(path, i)


def defect_probe(state):
    """Run the known defect documents once, outside the timed phase."""
    lines = []
    for name, (flags, text, expected_exit, size) in DEFECTS.items():
        result = run_cli(state, [*flags, "report", state.write(text)], CEILING_S)
        reason = _contract_failure(result, expected_exit)
        if reason is None and size is not None and [_cardinality(r) for r in result["records"]] != [size]:
            reason = f"records {result['records']}, expected cardinality {size}"
        status = "KNOWN DEFECT" if reason else "FIXED"
        lines.append(f"{status} {name}: {reason or 'answers as the contract says'}")
    return lines


def reference_answers(ctx):
    """The seed commit's answer to every digest-checked query a seed can draw."""
    state = State(ctx)
    out = {}
    for key in COMMANDS:
        result = run_cli(state, ["report", state.write(json.dumps(document([key])))], CEILING_S)
        out[f"cmd:{key}"] = result["records"][0]
    out["gallery"] = _answer(run_cli(state, GALLERY, GALLERY_CEILING_S))
    out["gallery+mutations"] = _answer(run_cli(state, ["gallery"], MUTATIONS_CEILING_S))
    for a, b in STARVED_PAIRS:
        result = run_cli(state, ["--budget", "4", "report", state.write(_starved_doc(a, b))], CEILING_S)
        out[f"starved:C{a}:C{b}"] = _answer(result)
    return out
