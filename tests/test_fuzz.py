"""Fuzz the input path: any JSON document, through `textio.parse_document`
and `cli.main`, ends in an exit code 0-3 and never in an uncaught exception.

Documents mix well-formed declarations with random JSON in every field, so
the parser sees both shapes it knows and wrong types inside them.  The
`gallery` verb reads no document and costs the same on every run (its
mutation corpus takes seconds), so the command strategy leaves it out.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from semikernel import cli
from semikernel.errors import KernelError
from semikernel.gallery import gallery_coring
from semikernel.semimodules import enumerate_modules, free_semimodule, identity_map
from semikernel.semirings import bool_semiring, zmod
from semikernel.textio import parse_document, to_jsonable
from test_cli import BAD_INPUTS, INPUT_DECLS

BUILTINS = ["BOOL", "NAT", "ZMOD", "NATCAP", "TROPCAP", "IDEALS"]
NAMES = ["B", "N0", "M", "F", "f", "GL", "P", "Z2", "T", "id", "C", "dual"]
WORDS = NAMES + [
    "semiring", "semimodule", "map", "coring", "pairing",
    *BUILTINS, "CYCLIC", "FREE", "TABLE", "QMODZ", "grouplike_bool_2",
    "left", "exact", "1/2", "1/0",
]
FIELDS = [
    "kind", "name", "builtin", "n", "k", "base", "atoms", "rank", "basis", "elements",
    "add", "mul", "zero", "one", "scalars", "action", "source", "target", "pairs",
    "gallery", "carrier", "delta", "epsilon", "dual_of",
]
VERB_PARAMS = {verb: [p.name for p in params] for verb, (_, params) in cli.VERBS.items()}
VERB_PARAMS.pop("gallery")

leaves = (
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(WORDS) | st.text(max_size=3)
)
values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 3)
element = st.recursive(small | st.sampled_from(["1/2", "x"]), lambda kids: st.lists(kids, max_size=3), max_leaves=4)
rows = st.lists(st.lists(element, max_size=3), max_size=3)
atom = st.fixed_dictionaries(
    {"kind": st.sampled_from(["NAT", "CYCLIC", "BOOL", "QMODZ", "FREE", "TABLE"]) | values},
    optional={"n": small | values, "rank": small | values, "basis": st.lists(element, max_size=3) | values,
              "elements": st.lists(element, max_size=3) | values, "add": rows | values,
              "scalars": st.lists(element, max_size=3) | values, "action": rows | values},
)
semiring = st.sampled_from(NAMES) | st.fixed_dictionaries(
    {"builtin": st.sampled_from(BUILTINS) | values},
    optional={"n": small | values, "k": small | values},
)
module = st.sampled_from(NAMES) | st.fixed_dictionaries(
    {"atoms": st.lists(atom, max_size=2) | values}, optional={"base": semiring | values}
)
FIELD_VALUES = {
    "builtin": st.sampled_from(BUILTINS),
    "n": small, "k": small, "atoms": st.lists(atom, max_size=3), "base": semiring,
    "elements": st.lists(element, max_size=3), "add": rows, "mul": rows, "zero": element, "one": element,
    "source": module, "target": module, "carrier": module,
    "pairs": st.lists(st.lists(element, min_size=2, max_size=2), max_size=4),
    "delta": st.lists(st.tuples(element, st.lists(st.tuples(element, element, small), max_size=2)), max_size=3),
    "epsilon": st.lists(st.tuples(element, element), max_size=3),
    "gallery": st.sampled_from(["grouplike_bool_2"]), "dual_of": st.sampled_from(NAMES),
}
# valid declarations: those of the CLI tests plus serialized objects, whose
# semirings, modules and corings are written out in full
VALID = INPUT_DECLS + [
    {**to_jsonable(value), "name": name}
    for name, value in (
        ("Z2", zmod(2)),
        ("T", enumerate_modules(bool_semiring(), 3)[-1]),
        ("id", identity_map(free_semimodule(bool_semiring(), 1))),
        ("C", gallery_coring("grouplike_bool_2")),
    )
]
declaration = st.one_of(
    st.sampled_from(VALID),
    # a valid declaration with one field replaced or added
    st.tuples(st.sampled_from(VALID), st.sampled_from(FIELDS), values).map(lambda t: {**t[0], t[1]: t[2]}),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["semiring", "semimodule", "map", "coring", "pairing"]) | values,
         "name": st.sampled_from(NAMES) | values},
        optional={field: FIELD_VALUES.get(field, st.nothing()) | values for field in FIELDS[2:]},
    ),
)
command = st.sampled_from(sorted(VERB_PARAMS)).flatmap(
    lambda verb: st.fixed_dictionaries(
        {"cmd": st.just(verb) | values},
        optional={p: st.sampled_from(NAMES) | values for p in VERB_PARAMS[verb]},
    )
)
document = st.fixed_dictionaries(
    {}, optional={"declarations": st.lists(declaration, max_size=6), "commands": st.lists(command, max_size=2)}
)
documents = st.one_of(document, document, document, values)  # one in four is any JSON at all
argvs = st.just(["report", "{doc}"]) | st.sampled_from(sorted(VERB_PARAMS)).flatmap(
    lambda verb: st.lists(
        st.sampled_from(NAMES + ["--side", "--mode", "--gen", "--target", "[[1]]", "left"])
        | st.text(max_size=4),
        max_size=4,
    ).map(lambda rest: [verb, "{doc}", *rest])
)


def _seeded(test):
    for args, doc, _ in BAD_INPUTS.values():
        test = example(args=args, doc=doc)(test)
    return test


def _exit_code(argv):
    """cli.main's exit code with its output swallowed; SystemExit counts
    as the exit it asks for, as it does for the installed command."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@_seeded
@given(args=argvs, doc=documents)
def test_any_json_document_exits_0_to_3(args, doc):
    text = json.dumps(doc)
    try:
        parse_document(text)
    except KernelError:
        pass
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        path.write_text(text)
        # a small budget keeps every tensor a document asks for quick
        code = _exit_code(["--budget", "20000"] + [a.replace("{doc}", str(path)) for a in args])
    assert code in (0, 1, 2, 3), code
