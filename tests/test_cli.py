import json
import subprocess
import sys
from pathlib import Path

import pytest

DOC = {
    "declarations": [
        {"kind": "semiring", "name": "B", "builtin": "BOOL"},
        {"kind": "semiring", "name": "N0", "builtin": "NAT"},
        {"kind": "semimodule", "name": "M", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 4}]},
        {"kind": "semimodule", "name": "N", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 6}]},
        {"kind": "coring", "name": "C", "gallery": "grouplike_bool_2"},
        {"kind": "pairing", "name": "P", "dual_of": "C"},
    ],
    "commands": [
        {"cmd": "validate", "target": "C"},
        {"cmd": "tensor", "left": "M", "right": "N"},
        {"cmd": "dual", "coring": "C", "side": "left"},
        {"cmd": "rational", "pairing": "P", "module": "M_A"},
    ],
}


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "semikernel.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


@pytest.fixture()
def doc_path(tmp_path):
    doc = dict(DOC)
    doc["commands"] = DOC["commands"][:3]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_report_passes(doc_path):
    r = run_cli(["report", doc_path])
    assert r.returncode == 0, r.stderr
    assert "| validate | C | pass" in r.stdout


def test_tensor_verb_and_jsonl(doc_path):
    r = run_cli(["--format", "jsonl", "tensor", doc_path, "M", "N"])
    assert r.returncode == 0
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["verdict"] == "pass"
    assert '"cardinality": 2' in rec["detail"]


def test_budget_starved_tensor_exits_2(doc_path):
    r = run_cli(["--budget", "4", "tensor", doc_path, "M", "N"])
    assert r.returncode == 2
    assert "undecided" in r.stdout


def test_mutation_fixture_exits_1(tmp_path):
    from semikernel.gallery import mutation_corpus
    from semikernel.textio import serialize

    name, MC = mutation_corpus()[0]
    doc = {
        "declarations": [dict(json.loads(serialize(MC)), name="bad")],
        "commands": [{"cmd": "validate", "target": "bad"}],
    }
    p = tmp_path / "mut.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--format", "jsonl", "validate", str(p), "--target", "bad"])
    assert r.returncode == 1
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["verdict"] == "fail"
    assert rec["witness"]


def test_input_error_exits_3(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    r = run_cli(["validate", str(p)])
    assert r.returncode == 3
    assert "input error" in r.stderr


def test_report_command_missing_key_exits_3(tmp_path):
    doc = {"declarations": DOC["declarations"][:3], "commands": [{"cmd": "tensor", "left": "M"}]}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["report", str(p)])
    assert r.returncode == 3
    assert "input error" in r.stderr and "'right'" in r.stderr
    assert "Traceback" not in r.stderr


def test_free_tensor_larger_than_budget_is_undecided(tmp_path):
    # FREE(2) (x) FREE(2) over ZMOD(6) is free of rank 4: 6^4 = 1296 elements
    doc = {
        "declarations": [
            {"kind": "semiring", "name": "Z6", "builtin": "ZMOD", "n": 6},
            {"kind": "semimodule", "name": "F", "base": "Z6", "atoms": [{"kind": "FREE", "rank": 2}]},
        ],
        "commands": [{"cmd": "tensor", "left": "F", "right": "F"}],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--budget", "50", "--format", "jsonl", "report", str(p)], timeout=120)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout.splitlines()[0])["verdict"] == "undecided"
    r = run_cli(["--format", "jsonl", "report", str(p)], timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(json.loads(r.stdout.splitlines()[0])["detail"])["cardinality"] == 1296


QZ_DOC = {
    "declarations": [
        {"kind": "semiring", "name": "N0", "builtin": "NAT"},
        {"kind": "semimodule", "name": "QZ", "base": "N0", "atoms": [{"kind": "QMODZ"}]},
        {"kind": "semimodule", "name": "C4", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 4}]},
        {"kind": "semimodule", "name": "N1", "base": "N0", "atoms": [{"kind": "NAT"}]},
    ],
    "commands": [],
}
# C_n (+) Q/Z in either atom order, n = 10^7; BOOL (+) Q/Z; Q/Z (+) a TABLE
QZ_CYCLIC = [
    {"kind": "semimodule", "name": "CQ", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 10**7}, {"kind": "QMODZ"}]},
    {"kind": "semimodule", "name": "QC", "base": "N0", "atoms": [{"kind": "QMODZ"}, {"kind": "CYCLIC", "n": 10**7}]},
    {"kind": "semimodule", "name": "BQ", "base": "N0", "atoms": [{"kind": "BOOL"}, {"kind": "QMODZ"}]},
    {"kind": "semimodule", "name": "TQ", "base": "N0", "atoms": [
        {"kind": "QMODZ"}, {"kind": "TABLE", "elements": [0, 1], "add": [[0, 1], [1, 1]]}]},
]
QMODZ, CYCLIC = {"kind": "QMODZ"}, {"kind": "CYCLIC", "n": 10**7}


@pytest.mark.parametrize(
    "left,right,atoms,cardinality",
    [
        # Q/Z is divisible and C4 torsion, so the tensor is 0
        ("QZ", "C4", [], 1),
        # NAT (x) Q/Z = Q/Z, infinite
        ("N1", "QZ", [QMODZ], None),
        # a Q/Z atom sends C_n (+) Q/Z to the rule lane, in either atom
        # order, before C_n (n = 10^7) is presented
        ("CQ", "N1", [CYCLIC, QMODZ], None),
        ("QC", "N1", [QMODZ, CYCLIC], None),
        # NAT (x) BOOL = BOOL (x) NAT = BOOL
        ("N1", "BQ", [{"kind": "BOOL"}, QMODZ], None),
        ("BQ", "N1", [{"kind": "BOOL"}, QMODZ], None),
        # the TABLE meets C4 in the rule lane, which has no rule for the
        # pair and saturates it: an idempotent class of order 4 is 0
        ("TQ", "C4", [{"kind": "TABLE", "size": 1}], 1),
    ],
)
def test_tensor_of_qmodz_takes_rule_lane(tmp_path, left, right, atoms, cardinality):
    p = tmp_path / "qz.json"
    p.write_text(json.dumps(dict(QZ_DOC, declarations=QZ_DOC["declarations"] + QZ_CYCLIC)))
    r = run_cli(["--format", "jsonl", "tensor", str(p), left, right])
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["verdict"] == "pass"
    assert json.loads(rec["detail"]) == {"atoms": atoms, "cardinality": cardinality}


def test_reports_byte_stable(doc_path):
    outs = []
    for _ in range(2):
        r = run_cli(["--format", "jsonl", "report", doc_path])
        assert r.returncode == 0
        stripped = []
        for line in r.stdout.splitlines():
            rec = json.loads(line)
            rec.pop("elapsed_ms", None)
            stripped.append(json.dumps(rec, sort_keys=True))
        outs.append("\n".join(stripped))
    assert outs[0] == outs[1]


def test_gallery_skip_mutations_exits_0():
    r = run_cli(["gallery", "--skip-mutations"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("pass") >= 10


def test_rational_verb_on_dual(tmp_path):
    doc = {
        "declarations": [
            {"kind": "coring", "name": "C", "gallery": "grouplike_bool_2"},
            {"kind": "pairing", "name": "P", "dual_of": "C"},
        ],
        "commands": [],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--format", "jsonl", "rational", str(p), "P", "dual"])
    assert r.returncode == 0, r.stderr
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["verdict"] == "pass"
    assert '"cardinality": 4' in rec["detail"]


def test_coideal_and_exact_verbs(tmp_path):
    doc = {
        "declarations": [
            {"kind": "semiring", "name": "B", "builtin": "BOOL"},
            {
                "kind": "semimodule",
                "name": "M",
                "base": "B",
                "atoms": [{"kind": "FREE", "rank": 1}],
            },
            {"kind": "coring", "name": "C", "gallery": "grouplike_bool_2"},
            {
                "kind": "map",
                "name": "f",
                "source": "M",
                "target": "M",
                "pairs": [[[[0]], [[0]]], [[[1]], [[1]]]],
            },
        ],
        "commands": [],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["coideal", str(p), "C"])
    assert r.returncode == 0, r.stderr + r.stdout
    r2 = run_cli(["exact", str(p), "f", "f"])
    assert r2.returncode in (0, 1)


def test_family_flag_merges_declarations(tmp_path):
    main = {"declarations": [{"kind": "semiring", "name": "N0", "builtin": "NAT"}], "commands": []}
    fam = {
        "declarations": [
            {"kind": "semimodule", "name": "M", "base": {"builtin": "NAT"}, "atoms": [{"kind": "CYCLIC", "n": 3}]}
        ],
        "commands": [],
    }
    p1 = tmp_path / "main.json"
    p2 = tmp_path / "family.json"
    p1.write_text(json.dumps(main))
    p2.write_text(json.dumps(fam))
    r = run_cli(["--family", str(p2), "tensor", str(p1), "M", "M"])
    assert r.returncode == 0, r.stderr


def test_budget_env_var(tmp_path, monkeypatch):
    import os
    import subprocess

    doc = {
        "declarations": [
            {"kind": "semiring", "name": "N0", "builtin": "NAT"},
            {"kind": "semimodule", "name": "M", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 5}]},
        ],
        "commands": [],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    env = dict(os.environ, SEMIKERNEL_BUDGET="4")
    r = subprocess.run(
        [sys.executable, "-m", "semikernel.cli", "tensor", str(p), "M", "M"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 2


# declarations every bad-input case can refer to
INPUT_DECLS = [
    {"kind": "semiring", "name": "B", "builtin": "BOOL"},
    {"kind": "semiring", "name": "N0", "builtin": "NAT"},
    {"kind": "semimodule", "name": "M", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 4}]},
    {"kind": "semimodule", "name": "F", "base": "B", "atoms": [{"kind": "FREE", "rank": 1}]},
    {"kind": "map", "name": "f", "source": "F", "target": "F", "pairs": [[[[0]], [[0]]], [[[1]], [[1]]]]},
    {"kind": "coring", "name": "GL", "gallery": "grouplike_bool_2"},
    {"kind": "pairing", "name": "P", "dual_of": "GL"},
]


def _report_case(command, name):
    return (["report", "{doc}"], {"declarations": INPUT_DECLS, "commands": [command]}, name)


def _argv_case(args, name):
    return (args, {"declarations": INPUT_DECLS, "commands": []}, name)


def _doc_case(doc, name):
    return (["report", "{doc}"], doc, name)


def _coring(delta, epsilon):
    """An explicit coring on BOOL over B (declared as INPUT_DECLS[0])."""
    carrier = {"base": "B", "atoms": [{"kind": "BOOL"}]}
    return {"kind": "coring", "name": "C", "base": "B", "carrier": carrier, "delta": delta, "epsilon": epsilon}


BAD_INPUTS = {
    # report commands
    "dual-of-a-module": _report_case({"cmd": "dual", "coring": "M"}, "coring"),
    "tensor-of-a-semiring": _report_case({"cmd": "tensor", "left": "B", "right": "M"}, "left"),
    "rational-of-a-coring": _report_case(
        {"cmd": "rational", "pairing": "GL", "module": "dual"}, "pairing"
    ),
    "coring-not-a-string": _report_case({"cmd": "dual", "coring": ["x"]}, "coring"),
    "generator-not-an-element": _report_case(
        {"cmd": "coideal", "coring": "GL", "generators": [7]}, "generators"
    ),
    "side-not-a-choice": _report_case({"cmd": "dual", "coring": "GL", "side": "up"}, "side"),
    "maps-not-a-list": _report_case({"cmd": "exact", "maps": "f"}, "maps"),
    # command-line verbs
    "gen-not-json": _argv_case(["coideal", "{doc}", "GL", "--gen", "notjson"], "gen"),
    "gen-not-an-element": _argv_case(["coideal", "{doc}", "GL", "--gen", "[[5, 5]]"], "gen"),
    "dual-verb-of-a-module": _argv_case(["dual", "{doc}", "M"], "coring"),
    "exact-of-a-module": _argv_case(["exact", "{doc}", "M"], "maps"),
    "tensor-missing-right": _argv_case(["tensor", "{doc}", "M"], "right"),
    "side-up": _argv_case(["dual", "{doc}", "GL", "--side", "up"], "side"),
    # documents
    "declaration-not-an-object": _doc_case({"declarations": [5]}, "declarations"),
    "semimodule-without-base": _doc_case(
        {"declarations": [{"kind": "semimodule", "name": "M", "atoms": []}]}, "base"
    ),
    "cyclic-without-n": _doc_case(
        {"declarations": [INPUT_DECLS[1], dict(INPUT_DECLS[2], atoms=[{"kind": "CYCLIC"}])]}, "'n'"
    ),
    "pairing-without-dual-of": _doc_case(
        {"declarations": [INPUT_DECLS[5], {"kind": "pairing", "name": "P"}]}, "dual_of"
    ),
    "zmod-without-n": _doc_case(
        {"declarations": [{"kind": "semiring", "name": "Z", "builtin": "ZMOD"}]}, "'n'"
    ),
    "command-not-an-object": _doc_case({"commands": [5]}, "commands"),
    "commands-not-a-list": _doc_case({"commands": {"cmd": "gallery"}}, "commands"),
    "atoms-not-a-list": _doc_case({"declarations": [INPUT_DECLS[1], dict(INPUT_DECLS[2], atoms=5)]}, "'atoms'"),
    "cyclic-n-not-an-integer": _doc_case(
        {"declarations": [INPUT_DECLS[1], dict(INPUT_DECLS[2], atoms=[{"kind": "CYCLIC", "n": "4"}])]}, "'n'"
    ),
    # each of these ended in a traceback or hung before the parser checked it
    "map-with-an-infinite-source": _doc_case(
        {"declarations": [INPUT_DECLS[1], dict(INPUT_DECLS[2], atoms=[{"kind": "NAT"}]),
                          dict(INPUT_DECLS[4], source="M", target="M", pairs=[])]}, "finite source"
    ),
    "action-table-over-nat": _doc_case(
        {"declarations": [INPUT_DECLS[1], dict(INPUT_DECLS[2], atoms=[
            {"kind": "TABLE", "elements": [0], "add": [[0]], "scalars": [0], "action": [[0]]}])]}, "finite base"
    ),
    "delta-names-no-element": _doc_case(
        {"declarations": INPUT_DECLS[:1] + [_coring([[[0], []], [[1], [[[7], [1], 1]]]], [[[0], 0], [[1], 1]])]},
        "not a carrier element",
    ),
    "epsilon-outside-the-base": _doc_case(
        {"declarations": INPUT_DECLS[:1] + [_coring([[[0], []], [[1], [[[1], [1], 1]]]], [[[0], 0], [[1], 5]])]},
        "epsilon",
    ),
    "negative-multiplicity": _doc_case(
        {"declarations": INPUT_DECLS[:1] + [_coring([[[0], []], [[1], [[[1], [1], -1]]]], [[[0], 0], [[1], 1]])]},
        "delta",
    ),
    "table-semiring-named-nat": _doc_case(
        {"declarations": [{"kind": "semiring", "name": "NAT", "elements": [0, 1], "add": [[0, 1], [1, 1]],
                           "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}]}, "other than NAT"
    ),
    "semiring-name-not-a-string": _doc_case(
        {"declarations": [{"kind": "semimodule", "name": "M", "atoms": [], "base": {
            "name": [1], "elements": [0, 1], "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}}]},
        "string name",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_3(tmp_path, case):
    args, doc, name = BAD_INPUTS[case]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli([a.replace("{doc}", str(p)) for a in args], timeout=120)
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr)
    assert r.stderr.startswith("input error"), r.stderr
    assert name in r.stderr
    assert "Traceback" not in r.stderr


# each command as a verb on the command line and as a report command
SAME_COMMAND = [
    (["validate", "{doc}", "--target", "GL"], {"cmd": "validate", "target": "GL"}),
    (["validate", "{doc}"], {"cmd": "validate"}),
    (["tensor", "{doc}", "M", "M"], {"cmd": "tensor", "left": "M", "right": "M"}),
    (["dual", "{doc}", "GL", "--side", "right"], {"cmd": "dual", "coring": "GL", "side": "right"}),
    (["dual", "{doc}", "GL"], {"cmd": "dual", "coring": "GL"}),
    (
        ["coideal", "{doc}", "GL", "--gen", "[[1, 0]]", "--gen", "[[0, 1]]"],
        {"cmd": "coideal", "coring": "GL", "generators": [[[1, 0]], [[0, 1]]]},
    ),
    (["coideal", "{doc}", "GL"], {"cmd": "coideal", "coring": "GL"}),
    (["rational", "{doc}", "P", "dual"], {"cmd": "rational", "pairing": "P", "module": "dual"}),
    (["exact", "{doc}", "f", "f", "--mode", "semi"], {"cmd": "exact", "maps": ["f", "f"], "mode": "semi"}),
    (["exact", "{doc}", "f"], {"cmd": "exact", "maps": ["f"]}),
    (["gallery", "--skip-mutations"], {"cmd": "gallery", "skip_mutations": True}),
]


def _records(stdout):
    out = []
    for line in stdout.splitlines():
        rec = json.loads(line)
        rec.pop("elapsed_ms", None)
        out.append(rec)
    return out


@pytest.mark.parametrize("args,command", SAME_COMMAND, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_verb_and_report_command_give_the_same_records(tmp_path, args, command):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"declarations": INPUT_DECLS, "commands": [command]}))
    verb = run_cli(["--format", "jsonl", *[a.replace("{doc}", str(p)) for a in args]], timeout=120)
    report = run_cli(["--format", "jsonl", "report", str(p)], timeout=120)
    assert verb.returncode == report.returncode, (verb.stderr, report.stderr)
    assert verb.returncode in (0, 1), verb.stderr
    assert _records(verb.stdout) == _records(report.stdout)
    assert _records(verb.stdout)


def test_readme_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "example.json"
    p.write_text(example)
    for verb in ("report", "validate"):
        r = run_cli([verb, str(p)], timeout=120)
        assert r.returncode == 0, (verb, r.stdout, r.stderr)
        assert "| pass" in r.stdout


def test_map_with_an_image_outside_its_target_fails(tmp_path):
    # f sends [[1]] to [[7]], which is not an element of FREE(1) over BOOL
    decls = INPUT_DECLS[:4] + [dict(INPUT_DECLS[4], pairs=[[[[0]], [[0]]], [[[1]], [[7]]]])]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"declarations": decls, "commands": []}))
    r = run_cli(["--format", "jsonl", "validate", str(p), "--target", "f"])
    assert r.returncode == 1, (r.stdout, r.stderr)
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["verdict"] == "fail"
    assert rec["witness"] == "('codomain', ((1,),))"


def test_report_keeps_the_records_before_an_error(tmp_path):
    doc = {
        "declarations": [
            {"kind": "semiring", "name": "N0", "builtin": "NAT"},
            {"kind": "semimodule", "name": "QZ", "base": "N0", "atoms": [{"kind": "QMODZ"}]},
            {"kind": "semimodule", "name": "C4", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 4}]},
        ],
        # Q/Z (x) Q/Z has no tensor rule: an UnsupportedError after the first record
        "commands": [{"cmd": "tensor", "left": "QZ", "right": "C4"}, {"cmd": "tensor", "left": "QZ", "right": "QZ"}],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--format", "jsonl", "report", str(p)], timeout=120)
    assert r.returncode == 1, (r.stdout, r.stderr)
    assert [(rec["subject"], rec["verdict"]) for rec in _records(r.stdout)] == [("QZ(x)C4", "pass")]
    assert r.stderr == "error: no tensor rule for atom pair QMODZ (x) QMODZ\n"


def test_saturation_tensor_over_budget_exits_2(tmp_path):
    # FREE(2) (x) CYCLIC(6) over ZMOD(6) is not free, so it takes the saturation route
    doc = {
        "declarations": [
            {"kind": "semiring", "name": "Z6", "builtin": "ZMOD", "n": 6},
            {"kind": "semimodule", "name": "F", "base": "Z6", "atoms": [{"kind": "FREE", "rank": 2}]},
            {"kind": "semimodule", "name": "C", "base": "Z6", "atoms": [{"kind": "CYCLIC", "n": 6}]},
        ],
        "commands": [{"cmd": "tensor", "left": "F", "right": "C"}],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--budget", "50", "--format", "jsonl", "report", str(p)], timeout=120)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout.splitlines()[0])["verdict"] == "undecided"
    r = run_cli(["--format", "jsonl", "report", str(p)], timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(json.loads(r.stdout.splitlines()[0])["detail"])["cardinality"] == 36


LAYERS_ABOVE_SEMIMODULES = ("semicorings", "gallery", "structured", "tensors", "semicomodules", "pairings")
LOADED = """
import json, sys
from semikernel import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("semikernel."))]))
"""


def loaded_layers(tmp_path, declarations):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"declarations": declarations}))
    r = subprocess.run([sys.executable, "-c", LOADED, "validate", str(p)], capture_output=True, text=True)
    code, modules = json.loads(r.stdout.splitlines()[-1])
    assert code == 0, r.stderr
    return {m.split(".", 1)[1] for m in modules}


def test_validate_loads_only_the_layers_it_needs(tmp_path):
    loaded = loaded_layers(tmp_path, DOC["declarations"][1:3])  # C4 over NAT
    assert not loaded & set(LAYERS_ABOVE_SEMIMODULES)
    coring = loaded_layers(tmp_path, DOC["declarations"][4:5])  # a gallery coring
    assert "semicorings" in coring
    assert not coring & {"semicomodules", "pairings"}


HEAVY = """
import json, sys
from semikernel import cli
code = cli.main(["--format", "jsonl", "report", sys.argv[1]])
print(json.dumps([code, sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)]))
"""


def test_report_imports_neither_dataclasses_nor_inspect(doc_path):
    """dataclasses brings in inspect, ast, dis and tokenize, which every cold
    CLI child would pay for: a report that validates a coring, tensors two
    modules and takes a dual loads neither."""
    r = subprocess.run([sys.executable, "-c", HEAVY, doc_path], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == [0, []]


DRAWS = """
import json, sys
from semikernel import cli, semirings

semirings.nat.cache_clear()
drawn, calls = semirings._drawn, []
semirings._drawn = lambda S: calls.append(S.name) or drawn(S)
N = semirings.nat()
built = list(calls)
code = cli.main(["--format", "jsonl", "validate", sys.argv[1]])
validated = list(calls)
again = semirings.check_semiring_axioms(N)  # the record a check on a fresh draw gives
calls.clear()
N.axiom_report, N.flags
want = cli._checked("validate", "N0", lambda: again)
print(json.dumps([built, code, validated, calls, want]))
"""


def test_validate_of_a_semiring_draws_no_second_sample(tmp_path):
    """A builtin semiring draws nothing when it is built.  validate draws its
    sample once, a second read of the report or the flags draws nothing, and
    the record is the one a fresh check gives."""
    p = tmp_path / "doc.json"
    decls = QZ_DOC["declarations"][::2]  # N0 and C4
    p.write_text(json.dumps({"declarations": decls, "commands": []}))
    r = subprocess.run([sys.executable, "-c", DRAWS, str(p)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    *out, last = r.stdout.splitlines()
    built, code, validated, again, want = json.loads(last)
    assert built == []
    assert code == 0
    assert validated == ["NAT"]
    assert again == []
    got = {rec["subject"]: rec for rec in map(json.loads, out)}
    got["N0"].pop("elapsed_ms")
    want.pop("elapsed_ms")
    assert got["N0"] == want


def test_non_associative_table_semiring_exits_3_on_load(tmp_path):
    """A semiring from tables is checked when the document is read, whatever
    the verb: here a report with no commands."""
    add = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]  # (1 + 1) + 2 = 0 but 1 + (1 + 2) = 1
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    decl = {"kind": "semiring", "name": "T", "elements": [0, 1, 2], "add": add, "mul": mul, "zero": 0, "one": 1}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"declarations": [decl], "commands": []}))
    r = run_cli(["report", str(p)])
    assert r.returncode == 3, (r.stdout, r.stderr)
    assert "semiring axioms fail" in r.stderr


def test_validate_with_more_pairs_than_budget_units_is_undecided(tmp_path):
    """check_semimodule_axioms lists the |M|^2 pairs of a finite M: C_2000
    has 4,000,000, more than the default budget's 1,000,000 units, so the
    record is undecided (exit 2) before any pair is listed; C_4 still passes."""
    doc = {
        "declarations": QZ_DOC["declarations"][:1] + [
            {"kind": "semimodule", "name": "C2000", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 2000}]},
            QZ_DOC["declarations"][2],
        ],
        "commands": [{"cmd": "validate", "target": "C4"}, {"cmd": "validate", "target": "C2000"}],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--format", "jsonl", "report", str(p)], timeout=120)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert [(rec["subject"], rec["verdict"]) for rec in _records(r.stdout)] == [("C4", "pass"), ("C2000", "undecided")]
    assert _records(r.stdout)[1]["detail"] == (
        "C2000 has 4000000 pairs to check, more than the 1000000 budget units left"
    )


@pytest.mark.parametrize("cmd", ["validate", "tensor"])
def test_a_42_element_table_that_is_not_associative_is_refused(tmp_path, cmd):
    """Sum max except 1 + 2 = 2 + 1 = 4, over NAT: (1 + 2) + 3 = 4 but
    1 + (2 + 3) = 3.  The associativity check once drew one random z per
    pair above 40 elements, so validate passed and tensor with CYCLIC(2)
    counted 1 class; validate now fails with the witness (exit 1), and
    tensor is an input error (exit 3)."""
    add = [[max(a, b) for b in range(42)] for a in range(42)]
    add[1][2] = add[2][1] = 4
    doc = {
        "declarations": QZ_DOC["declarations"][:1] + [
            {"kind": "semimodule", "name": "T", "base": "N0", "atoms": [{"kind": "TABLE", "elements": list(range(42)), "add": add}]},
            {"kind": "semimodule", "name": "Z2", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 2}]},
        ],
        "commands": [{"cmd": "validate", "target": "T"} if cmd == "validate" else {"cmd": "tensor", "left": "Z2", "right": "T"}],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--format", "jsonl", "report", str(p)])
    witness = "('add-associative', ((1,), (2,), (3,)))"
    if cmd == "validate":
        assert r.returncode == 1, (r.stdout, r.stderr)
        rec, = _records(r.stdout)
        assert (rec["subject"], rec["verdict"], rec["witness"]) == ("T", "fail", witness)
    else:
        assert r.returncode == 3, (r.stdout, r.stderr)
        assert r.stderr == f"input error: T: semimodule axioms fail: {witness}\n"


def test_tensor_of_a_table_that_is_not_a_commutative_monoid_exits_3(tmp_path):
    """The saturation route presumes the semimodule laws, so a TABLE factor
    is checked first: with 1 + 2 = 1 and 2 + 1 = 2 the count would depend on
    the presentation, and the answer is an input error naming the law."""
    table = {"kind": "TABLE", "elements": [0, 1, 2], "add": [[0, 1, 2], [1, 1, 1], [2, 2, 2]]}
    doc = {
        "declarations": QZ_DOC["declarations"][:1] + [
            {"kind": "semimodule", "name": "T", "base": "N0", "atoms": [table]},
            {"kind": "semimodule", "name": "Z2", "base": "N0", "atoms": [{"kind": "CYCLIC", "n": 2}]},
        ],
        "commands": [{"cmd": "tensor", "left": "Z2", "right": "T"}],
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["report", str(p)])
    assert r.returncode == 3, (r.stdout, r.stderr)
    assert r.stderr == "input error: T: semimodule axioms fail: ('add-commutative', ((1,), (2,)))\n"
