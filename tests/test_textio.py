import json
import re

import pytest

from semikernel.errors import FormatError
from semikernel.gallery import gallery_coring
from semikernel.semicorings import check_semicoring, sweedler_semicoring
from semikernel.semimodules import cyclic_module, free_semimodule, identity_map, semiring_module
from semikernel.semirings import SemiringMorphism, bool_semiring, nat, tropcap, zmod
from semikernel.textio import (
    elem_from_json,
    elem_to_json,
    parse_coring,
    parse_document,
    parse_semimodule,
    parse_semiring,
    serialize,
    to_jsonable,
)

B = bool_semiring()


def test_element_codec():
    from fractions import Fraction

    vals = [0, 5, "x", (1, 2), ((0, 1), "w"), Fraction(1, 3), (Fraction(2, 5), 0)]
    for v in vals:
        assert elem_from_json(json.loads(json.dumps(elem_to_json(v)))) == v


def test_semiring_roundtrip():
    for S in (B, zmod(3)):
        body = json.loads(serialize(S))
        S2 = parse_semiring(body)
        assert serialize(S2) == serialize(S)
    assert json.loads(serialize(nat()))["builtin"] == "NAT"


def test_module_roundtrip():
    for M in (semiring_module(B), free_semimodule(B, 2), cyclic_module(nat(), 4)):
        body = json.loads(serialize(M))
        base = parse_semiring(body["base"])
        M2 = parse_semimodule(body, base)
        assert serialize(M2) == serialize(M)


def test_coring_roundtrip_gallery():
    for name in ("grouplike_bool_2", "poly2_zmod2_3", "coext_bool", "sweedler_id"):
        C = gallery_coring(name)
        body = json.loads(serialize(C))
        C2 = parse_coring(body, {})
        assert serialize(C2) == serialize(C)
        assert check_semicoring(C2).ok


def test_a_carrier_acted_on_differently_on_the_left_is_not_serialized():
    """A document holds a carrier's right action only.  The carrier of
    Sweedler's coring of BOOL -> TROPCAP(1) is acted on differently on the
    left, so it is refused, naming its atom, rather than read back as a
    coring that fails its counit law."""
    C = sweedler_semicoring(SemiringMorphism(B, tropcap(1), {0: "oo", 1: 0}.__getitem__))
    assert check_semicoring(C).ok
    with pytest.raises(FormatError, match=re.escape("unserializable atom TABLE(6): its left action differs")):
        serialize(C)


def test_tensor_serialization_includes_pure_table():
    from semikernel.tensors import tensor

    T = tensor(cyclic_module(nat(), 2), cyclic_module(nat(), 4))
    body = to_jsonable(T)
    assert body["kind"] == "semimodule"
    assert body["pure_tensors"]


def test_map_serialization():
    from semikernel.semimodules import LinearMap

    M = cyclic_module(nat(), 2)
    f = LinearMap(M, M, lambda x: x, name="id")
    body = to_jsonable(f)
    assert body["pairs"] == [[[0], [0]], [[1], [1]]]


def test_document_parsing_and_errors():
    doc = parse_document(
        json.dumps(
            {
                "declarations": [
                    {"kind": "semiring", "name": "B", "builtin": "BOOL"},
                    {
                        "kind": "semimodule",
                        "name": "M",
                        "base": "B",
                        "atoms": [{"kind": "FREE", "rank": 2}],
                    },
                    {"kind": "coring", "name": "C", "gallery": "grouplike_bool_2"},
                    {"kind": "pairing", "name": "P", "dual_of": "C"},
                ],
                "commands": [{"cmd": "validate", "target": "C"}],
            }
        )
    )
    assert set(doc.env) == {"B", "M", "C", "P"}

    with pytest.raises(FormatError) as e:
        parse_document("{not json")
    assert "line" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_document(
            json.dumps(
                {
                    "declarations": [
                        {
                            "kind": "semimodule",
                            "name": "M",
                            "base": "NOPE",
                            "atoms": [],
                        }
                    ]
                }
            )
        )
    assert "dangling" in str(e.value)


def test_missing_table_row_is_positioned_error():
    body = {
        "kind": "semiring",
        "name": "S",
        "elements": [0, 1],
        "add": [[0, 1]],  # one row missing
        "mul": [[0, 0], [0, 1]],
        "zero": 0,
        "one": 1,
    }
    with pytest.raises(FormatError) as e:
        parse_semiring(body)
    assert "add" in str(e.value)


def test_unknown_gallery_reference():
    with pytest.raises(FormatError):
        parse_coring({"gallery": "nope"}, {})


def test_explicit_coring_needs_finite_carrier():
    body = {
        "kind": "coring",
        "base": {"builtin": "NAT"},
        "carrier": {"atoms": [{"kind": "NAT"}]},
        "delta": [],
        "epsilon": [],
    }
    with pytest.raises(FormatError) as e:
        parse_coring(body, {})
    assert "finite carrier" in str(e.value)


def test_written_out_map_parses():
    # a map's source and target written out in full carry their own base
    f = identity_map(free_semimodule(bool_semiring(), 1))
    g = parse_document(json.dumps({"declarations": [{**to_jsonable(f), "name": "f"}]})).env["f"]
    assert g.check().ok and g.mapping == f.mapping


def test_coring_reports_its_first_missing_entry():
    # string elements hash differently in each process; the message must not
    table = {"kind": "TABLE", "elements": ["a", "b", "c"],
             "add": [["a", "b", "c"], ["b", "b", "c"], ["c", "c", "c"]],
             "scalars": [0, 1], "action": [["a", "a"], ["a", "b"], ["a", "c"]]}
    body = {"base": {"builtin": "BOOL"}, "carrier": {"atoms": [table]}, "delta": [], "epsilon": []}
    with pytest.raises(FormatError, match=r"delta missing entry for \('a',\)"):
        parse_coring(body, {})
