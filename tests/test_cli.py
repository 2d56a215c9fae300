import json
import subprocess
import sys

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


@pytest.mark.parametrize(
    "left,right,cardinality",
    [
        # Q/Z is divisible and C4 torsion, so the tensor is 0
        ("QZ", "C4", 1),
        # NAT (x) Q/Z = Q/Z, infinite
        ("N1", "QZ", None),
    ],
)
def test_tensor_of_qmodz_takes_rule_lane(tmp_path, left, right, cardinality):
    p = tmp_path / "qz.json"
    p.write_text(json.dumps(QZ_DOC))
    r = run_cli(["--format", "jsonl", "tensor", str(p), left, right])
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["verdict"] == "pass"
    assert json.loads(rec["detail"])["cardinality"] == cardinality


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
