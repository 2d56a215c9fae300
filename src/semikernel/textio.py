"""Text format (JSON surface) for declarations, commands and reports.

Formal sums are arrays of [left, right, multiplicity] triples; elements are
nested arrays of ints, strings and "p/q" fraction literals.  Reports are
deterministic for identical inputs apart from the timing field.
"""
from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

from .atoms import BoolAtom, CyclicAtom, FreeAtom, NatAtom, QmodzAtom, TableAtom
from .errors import FormatError
from .gallery import GALLERY_NAMES, gallery_coring
from .semicorings import Semicoring
from .semimodules import LinearMap, Semimodule
from .semirings import Semiring, builtin_semiring, semiring_from_tables
from .util import fs_make

_FRACTION = re.compile(r"^-?\d+/\d+$")


def elem_to_json(x):
    if isinstance(x, tuple):
        return [elem_to_json(v) for v in x]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, str)):
        return x
    raise FormatError(f"unserializable element {x!r}")


def elem_from_json(x):
    if isinstance(x, list):
        return tuple(elem_from_json(v) for v in x)
    if isinstance(x, str) and _FRACTION.match(x):
        p, q = x.split("/")
        return Fraction(int(p), int(q))
    return x


def _table_to_rows(elements, table):
    return [[elem_to_json(table[(a, b)]) for b in elements] for a in elements]


def _rows_to_table(elements, rows, what):
    if len(rows) != len(elements):
        raise FormatError(f"{what}: expected {len(elements)} rows")
    out = {}
    for i, a in enumerate(elements):
        row = rows[i]
        if len(row) != len(elements):
            raise FormatError(f"{what}: row {i} has {len(row)} entries")
        for j, b in enumerate(elements):
            out[(a, b)] = elem_from_json(row[j])
    return out


# ---------------------------------------------------------------- serialize

def serialize(value) -> str:
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def to_jsonable(value):
    if isinstance(value, Semiring):
        if not value.is_finite:
            return {"kind": "semiring", "builtin": "NAT"}
        els = list(value.elements)
        return {
            "kind": "semiring",
            "name": value.name,
            "elements": [elem_to_json(e) for e in els],
            "add": _table_to_rows(els, {(a, b): value.add(a, b) for a in els for b in els}),
            "mul": _table_to_rows(els, {(a, b): value.mul(a, b) for a in els for b in els}),
            "zero": elem_to_json(value.zero),
            "one": elem_to_json(value.one),
        }
    if isinstance(value, Semimodule):
        return {
            "kind": "semimodule",
            "base": to_jsonable(value.base),
            "atoms": [_atom_to_jsonable(a) for a in value.atoms],
        }
    if isinstance(value, LinearMap):
        return {
            "kind": "map",
            "source": to_jsonable(value.source),
            "target": to_jsonable(value.target),
            "pairs": [
                [elem_to_json(x), elem_to_json(value(x))]
                for x in value.source.elements()
            ],
        }
    if isinstance(value, Semicoring):
        els = value.carrier.elements()
        return {
            "kind": "coring",
            "base": to_jsonable(value.base),
            "carrier": to_jsonable(value.carrier),
            "delta": [
                [
                    elem_to_json(c),
                    [
                        [elem_to_json(a), elem_to_json(b), mult]
                        for (a, b), mult in value.delta[c]
                    ],
                ]
                for c in els
            ],
            "epsilon": [[elem_to_json(c), elem_to_json(value.eps[c])] for c in els],
        }
    from .tensors import TensorProduct

    if isinstance(value, TensorProduct):
        body = to_jsonable(value.result)
        pools = [f.elements() for f in value.factors]
        pure_pairs = [] if any(p is None for p in pools) else itertools.product(*pools)
        body["pure_tensors"] = [
            [
                [elem_to_json(m) for m in ms],
                elem_to_json(value.pure(*ms)),
            ]
            for ms in pure_pairs
        ]
        return body
    raise FormatError(f"unserializable value {value!r}")


def _atom_to_jsonable(a):
    if isinstance(a, NatAtom):
        return {"kind": "NAT"}
    if isinstance(a, CyclicAtom):
        return {"kind": "CYCLIC", "n": a.n}
    if isinstance(a, BoolAtom):
        return {"kind": "BOOL"}
    if isinstance(a, QmodzAtom):
        return {"kind": "QMODZ"}
    if isinstance(a, FreeAtom):
        return {"kind": "FREE", "basis": [elem_to_json(b) for b in a.basis]}
    if isinstance(a, TableAtom):
        els = a.elements()
        out = {
            "kind": "TABLE",
            "elements": [elem_to_json(e) for e in els],
            "add": _table_to_rows(els, {(x, y): a.add(x, y) for x in els for y in els}),
        }
        if a._action is not None:
            sels = list(a.base.elements)
            out["scalars"] = [elem_to_json(s) for s in sels]
            out["action"] = [
                [elem_to_json(a.act(e, s)) for s in sels] for e in els
            ]
        return out
    raise FormatError(f"unserializable atom {a!r}")


# ---------------------------------------------------------------- parse

def parse_semiring(spec, where="semiring"):
    if "builtin" in spec:
        params = {k: v for k, v in spec.items() if k in ("n", "k")}
        return builtin_semiring(spec["builtin"], **params)
    try:
        els = [elem_from_json(e) for e in spec["elements"]]
        add = _rows_to_table(els, spec["add"], f"{where}.add")
        mul = _rows_to_table(els, spec["mul"], f"{where}.mul")
        return semiring_from_tables(
            spec.get("name", where),
            els,
            add,
            mul,
            elem_from_json(spec["zero"]),
            elem_from_json(spec["one"]),
        )
    except KeyError as e:
        raise FormatError(f"{where}: missing field {e}") from e


def parse_atom(spec, base, where="atom"):
    kind = spec.get("kind")
    if kind == "NAT":
        return NatAtom(base)
    if kind == "CYCLIC":
        return CyclicAtom(base, spec["n"])
    if kind == "BOOL":
        return BoolAtom(base)
    if kind == "QMODZ":
        return QmodzAtom(base)
    if kind == "FREE":
        basis = spec.get("basis")
        if basis is None:
            basis = list(range(spec["rank"]))
        return FreeAtom(base, [elem_from_json(b) for b in basis])
    if kind == "TABLE":
        els = [elem_from_json(e) for e in spec["elements"]]
        add = _rows_to_table(els, spec["add"], f"{where}.add")
        action = None
        if "action" in spec:
            sels = [elem_from_json(s) for s in spec["scalars"]]
            action = {}
            for i, e in enumerate(els):
                row = spec["action"][i]
                for j, s in enumerate(sels):
                    action[(e, s)] = elem_from_json(row[j])
        return TableAtom(base, els, add, action)
    raise FormatError(f"{where}: unknown atom kind {kind!r}")


def parse_semimodule(spec, base, where="semimodule"):
    atoms = [
        parse_atom(a, base, f"{where}.atoms[{i}]") for i, a in enumerate(spec["atoms"])
    ]
    return Semimodule(base, atoms, name=spec.get("name", where))


def parse_coring(spec, env, where="coring"):
    if "gallery" in spec:
        gname = spec["gallery"]
        if gname not in GALLERY_NAMES:
            raise FormatError(f"{where}: unknown gallery coring {gname!r}")
        return gallery_coring(gname)
    base = _resolve_semiring(spec["base"], env, where)
    carrier = _resolve_module(spec["carrier"], env, base, where)
    if not carrier.is_finite:
        raise FormatError(f"{where}: explicit tables need a finite carrier")
    delta = {}
    for entry in spec["delta"]:
        c = elem_from_json(entry[0])
        delta[c] = fs_make(
            [((elem_from_json(a), elem_from_json(b)), m) for a, b, m in entry[1]]
        )
    eps = {elem_from_json(c): elem_from_json(v) for c, v in spec["epsilon"]}
    els = set(carrier.elements())
    for c in els:
        if c not in delta:
            raise FormatError(f"{where}: delta missing entry for {c}")
        if c not in eps:
            raise FormatError(f"{where}: epsilon missing entry for {c}")
    return Semicoring(base, carrier, delta, eps, name=spec.get("name", where))


def _resolve_semiring(ref, env, where):
    if isinstance(ref, str):
        v = env.get(ref)
        if not isinstance(v, Semiring):
            raise FormatError(f"{where}: dangling semiring reference {ref!r}")
        return v
    return parse_semiring(ref, where)


def _resolve_module(ref, env, base, where):
    if isinstance(ref, str):
        v = env.get(ref)
        if not isinstance(v, Semimodule):
            raise FormatError(f"{where}: dangling module reference {ref!r}")
        return v
    return parse_semimodule(ref, base, where)


class Document:
    def __init__(self, env, commands):
        self.env = env
        self.commands = commands


def parse_document(text) -> Document:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"line {e.lineno} col {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise FormatError("document must be a JSON object")
    env = {}
    for i, decl in enumerate(raw.get("declarations", [])):
        where = f"declaration {i}"
        kind = decl.get("kind")
        name = decl.get("name")
        if not name:
            raise FormatError(f"{where}: missing name")
        if kind == "semiring":
            env[name] = parse_semiring(decl, where)
        elif kind == "semimodule":
            base = _resolve_semiring(decl["base"], env, where)
            env[name] = parse_semimodule(decl, base, where)
        elif kind == "map":
            src = _resolve_module(decl["source"], env, None, where)
            tgt = _resolve_module(decl["target"], env, None, where)
            pairs = {
                elem_from_json(a): elem_from_json(b) for a, b in decl["pairs"]
            }
            missing = [x for x in src.elements() if x not in pairs]
            if missing:
                raise FormatError(f"{where}: map table missing {missing[0]}")
            env[name] = LinearMap(src, tgt, pairs.__getitem__, name=name)
        elif kind == "coring":
            env[name] = parse_coring(decl, env, where)
        elif kind == "pairing":
            from .pairings import canonical_dual_pairing

            coring = env.get(decl["dual_of"])
            if not isinstance(coring, Semicoring):
                raise FormatError(f"{where}: dangling coring reference")
            env[name] = canonical_dual_pairing(coring)
        else:
            raise FormatError(f"{where}: unknown declaration kind {kind!r}")
    commands = raw.get("commands", [])
    for i, cmd in enumerate(commands):
        if "cmd" not in cmd:
            raise FormatError(f"command {i}: missing 'cmd'")
    return Document(env, commands)


# ---------------------------------------------------------------- reports

class RunReport:
    def __init__(self):
        self.records = []

    def add(self, record):
        self.records.append(record)

    @property
    def exit_code(self):
        if any(r["verdict"] == "undecided" for r in self.records):
            return 2
        if any(r["verdict"] == "fail" for r in self.records):
            return 1
        return 0

    def to_jsonl(self, with_timing=True):
        lines = []
        for r in self.records:
            rec = dict(r)
            if not with_timing:
                rec.pop("elapsed_ms", None)
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def to_markdown(self, with_timing=True):
        out = ["| command | subject | verdict | detail |", "|---|---|---|---|"]
        for r in self.records:
            detail = r.get("witness") or r.get("detail") or ""
            timing = f" ({r['elapsed_ms']} ms)" if with_timing and "elapsed_ms" in r else ""
            out.append(
                f"| {r['cmd']} | {r.get('subject','')} | {r['verdict']}{timing} | {detail} |"
            )
        return "\n".join(out) + "\n"
