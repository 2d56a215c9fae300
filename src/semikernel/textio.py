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

from .atoms import BoolAtom, CyclicAtom, FreeAtom, NatAtom, QmodzAtom, TableAtom, two_sided
from .errors import FormatError
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
        if int(q) == 0:
            raise FormatError(f"element {x!r}: zero denominator")
        return Fraction(int(p), int(q))
    if not isinstance(x, (int, str)):
        raise FormatError(f"element {x!r}: not an integer, a string or a list")
    return x


_JSON_TYPES = {list: "a list", int: "an integer", str: "a string"}


def _field(spec, key, kind, where):
    """spec[key], which must have the JSON type kind; a KeyError if absent."""
    value = spec[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FormatError(f"{where}: field {key!r} must be {_JSON_TYPES[kind]}, not {json.dumps(value)}")
    return value


def _table_to_rows(elements, table):
    return [[elem_to_json(table[(a, b)]) for b in elements] for a in elements]


def _rows_to_table(elements, rows, what, columns=None):
    """{(a, b): entry} from one row per element a, one entry per column b
    (the elements again unless columns are given)."""
    columns = elements if columns is None else columns
    if len(rows) != len(elements):
        raise FormatError(f"{what}: expected {len(elements)} rows")
    out = {}
    for i, a in enumerate(elements):
        row = rows[i]
        if not isinstance(row, list):
            raise FormatError(f"{what}: row {i} is not a list")
        if len(row) != len(columns):
            raise FormatError(f"{what}: row {i} has {len(row)} entries")
        for j, b in enumerate(columns):
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
    from .semicorings import Semicoring  # loaded only for a coring or a tensor
    from .tensors import TensorProduct

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
        if two_sided(a):  # a document holds the right action only
            raise FormatError(f"unserializable atom TABLE({len(els)}): its left action differs from its right")
        out = {
            "kind": "TABLE",
            "elements": [elem_to_json(e) for e in els],
            "add": _table_to_rows(els, {(x, y): a.add(x, y) for x in els for y in els}),
        }
        if a._act is not None:
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
    name = spec.get("name", where)
    if not isinstance(name, str) or name == "NAT":  # atoms tell NAT apart by its name
        raise FormatError(f"{where}: a semiring from tables needs a string name other than NAT")
    try:
        els = [elem_from_json(e) for e in _field(spec, "elements", list, where)]
        add = _rows_to_table(els, _field(spec, "add", list, where), f"{where}.add")
        mul = _rows_to_table(els, _field(spec, "mul", list, where), f"{where}.mul")
        return semiring_from_tables(
            name,
            els,
            add,
            mul,
            elem_from_json(spec["zero"]),
            elem_from_json(spec["one"]),
        )
    except KeyError as e:
        raise FormatError(f"{where}: missing field {e}") from e


def parse_atom(spec, base, where="atom"):
    if not isinstance(spec, dict):
        raise FormatError(f"{where}: an atom must be an object, not {json.dumps(spec)}")
    kind = spec.get("kind")
    if kind == "NAT":
        return NatAtom(base)
    if kind == "CYCLIC":
        return CyclicAtom(base, _field(spec, "n", int, where))
    if kind == "BOOL":
        return BoolAtom(base)
    if kind == "QMODZ":
        return QmodzAtom(base)
    if kind == "FREE":
        if spec.get("basis") is not None:
            basis = _field(spec, "basis", list, where)
        else:
            basis = list(range(_field(spec, "rank", int, where)))
        return FreeAtom(base, [elem_from_json(b) for b in basis])
    if kind == "TABLE":
        els = [elem_from_json(e) for e in _field(spec, "elements", list, where)]
        add = _rows_to_table(els, _field(spec, "add", list, where), f"{where}.add")
        action = None
        if "action" in spec:
            sels = [elem_from_json(s) for s in _field(spec, "scalars", list, where)]
            rows = _field(spec, "action", list, where)
            action = _rows_to_table(els, rows, f"{where}.action", columns=sels)
        return TableAtom(base, els, add, action)
    raise FormatError(f"{where}: unknown atom kind {kind!r}")


def parse_semimodule(spec, base, where="semimodule"):
    atoms = [
        parse_atom(a, base, f"{where}.atoms[{i}]")
        for i, a in enumerate(_field(spec, "atoms", list, where))
    ]
    return Semimodule(base, atoms, name=spec.get("name", where))


def parse_coring(spec, env, where="coring"):
    from .semicorings import Semicoring

    if "gallery" in spec:
        from .gallery import GALLERY_NAMES, gallery_coring

        gname = _field(spec, "gallery", str, where)
        if gname not in GALLERY_NAMES:
            raise FormatError(f"{where}: unknown gallery coring {gname!r}")
        return gallery_coring(gname)
    base = _resolve_semiring(spec["base"], env, where)
    carrier = _resolve_module(spec["carrier"], env, base, where)
    if not carrier.is_finite:
        raise FormatError(f"{where}: explicit tables need a finite carrier")
    els = set(carrier.elements())
    delta = {}
    for c, terms in _pairs(spec, "delta", where):
        if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 3 and isinstance(t[2], int) and t[2] >= 0 for t in terms
        ):
            raise FormatError(f"{where}: delta of {json.dumps(c)} must be a list of [a, b, mult] triples")
        key = elem_from_json(c)
        delta[key] = fs_make([((elem_from_json(a), elem_from_json(b)), m) for a, b, m in terms])
        outside = next((x for (a, b), _ in delta[key] for x in (a, b) if x not in els), None)
        if outside is not None:
            raise FormatError(f"{where}: delta of {json.dumps(c)} names {outside}, not a carrier element")
    eps = {elem_from_json(c): elem_from_json(v) for c, v in _pairs(spec, "epsilon", where)}
    if base.elements is not None:
        outside = next((v for v in eps.values() if v not in base.elements), None)
        if outside is not None:
            raise FormatError(f"{where}: epsilon value {outside} is not an element of {base.name}")
    for c in carrier.elements():  # in element order, so the first one missing is reported
        if c not in delta:
            raise FormatError(f"{where}: delta missing entry for {c}")
        if c not in eps:
            raise FormatError(f"{where}: epsilon missing entry for {c}")
    return Semicoring(base, carrier, delta, eps, name=spec.get("name", where))


def _pairs(spec, key, where):
    """spec[key] as a list of two-entry lists."""
    items = _field(spec, key, list, where)
    if not all(isinstance(p, list) and len(p) == 2 for p in items):
        raise FormatError(f"{where}: field {key!r} must be a list of pairs")
    return items


def _resolve_semiring(ref, env, where):
    if isinstance(ref, str):
        v = env.get(ref)
        if not isinstance(v, Semiring):
            raise FormatError(f"{where}: dangling semiring reference {ref!r}")
        return v
    if not isinstance(ref, dict):
        raise FormatError(f"{where}: a semiring must be a name or an object, not {json.dumps(ref)}")
    return parse_semiring(ref, where)


def _resolve_module(ref, env, base, where):
    if isinstance(ref, str):
        v = env.get(ref)
        if not isinstance(v, Semimodule):
            raise FormatError(f"{where}: dangling module reference {ref!r}")
        return v
    if not isinstance(ref, dict):
        raise FormatError(f"{where}: a module must be a name or an object, not {json.dumps(ref)}")
    if base is None:  # a map's source or target written out carries its own base
        base = _resolve_semiring(ref["base"], env, where)
    return parse_semimodule(ref, base, where)


class Document:
    def __init__(self, env, commands):
        self.env = env
        self.commands = commands


def _parse_declaration(decl, env, where):
    kind = decl.get("kind")
    if kind == "semiring":
        return parse_semiring(decl, where)
    if kind == "semimodule":
        base = _resolve_semiring(decl["base"], env, where)
        return parse_semimodule(decl, base, where)
    if kind == "map":
        src = _resolve_module(decl["source"], env, None, where)
        tgt = _resolve_module(decl["target"], env, None, where)
        if not src.is_finite:
            raise FormatError(f"{where}: a map table needs a finite source")
        pairs = {elem_from_json(a): elem_from_json(b) for a, b in _pairs(decl, "pairs", where)}
        missing = [x for x in src.elements() if x not in pairs]
        if missing:
            raise FormatError(f"{where}: map table missing {missing[0]}")
        return LinearMap(src, tgt, pairs.__getitem__, name=decl["name"])
    if kind == "coring":
        return parse_coring(decl, env, where)
    if kind == "pairing":
        from .pairings import canonical_dual_pairing
        from .semicorings import Semicoring

        coring = env.get(_field(decl, "dual_of", str, where))
        if not isinstance(coring, Semicoring):
            raise FormatError(f"{where}: dangling coring reference")
        return canonical_dual_pairing(coring)
    raise FormatError(f"{where}: unknown declaration kind {kind!r}")


def parse_document(text) -> Document:
    """Parse a document; its commands are checked by the CLI's verb table."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"line {e.lineno} col {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise FormatError("document must be a JSON object")
    decls, commands = raw.get("declarations", []), raw.get("commands", [])
    for key, items in (("declarations", decls), ("commands", commands)):
        if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
            raise FormatError(f"{key} must be a list of objects")
    env = {}
    for i, decl in enumerate(decls):
        where = f"declaration {i}"
        name = decl.get("name")
        if not name or not isinstance(name, str):
            raise FormatError(f"{where}: missing name")
        try:
            env[name] = _parse_declaration(decl, env, where)
        except KeyError as e:
            raise FormatError(f"{where} ({name}): missing field {e}") from e
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

    def to_jsonl(self):
        lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in self.records]
        return "\n".join(lines) + "\n"

    def to_markdown(self):
        out = ["| command | subject | verdict | detail |", "|---|---|---|---|"]
        for r in self.records:
            detail = r.get("witness") or r.get("detail") or ""
            timing = f" ({r['elapsed_ms']} ms)" if "elapsed_ms" in r else ""
            out.append(
                f"| {r['cmd']} | {r.get('subject','')} | {r['verdict']}{timing} | {detail} |"
            )
        return "\n".join(out) + "\n"
