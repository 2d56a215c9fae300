"""A wrong answer is a failed query, named in the run's report."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import cli_report  # noqa: E402
import run  # noqa: E402
from query import Query, expect  # noqa: E402


def test_a_wrong_expected_answer_fails_and_names_the_query():
    good = Query("good sum", lambda: 2 + 2, expect(4))
    wrong = Query("deliberately wrong", lambda: 2 + 2, expect(5))
    crash = Query("crashes", lambda: 1 // 0, expect(0))
    odd = Query("odd answer", lambda: None, lambda answer: answer["size"])
    records, cpu, _, wall = run.run_round([good, wrong, crash, odd])
    assert cpu >= 0 and wall >= 0 and len(records) == 4
    failed = run.failures(records)
    assert [name for name, _ in failed] == ["deliberately wrong", "crashes", "odd answer"]
    assert "expected 5, got 4" in failed[0][1]
    assert "ZeroDivisionError" in failed[1][1]
    assert "could not be checked" in failed[2][1]


def test_failed_ratio_is_printed_with_the_failed_query(capsys, monkeypatch):
    import types

    def build_round(state, rng):
        return [Query("fine", lambda: 1, expect(1)), Query("wrong on purpose", lambda: 1, expect(2))]

    fake = types.SimpleNamespace(IN_PROCESS=False, MIN_ROUNDS=1, setup=lambda ctx: None, build_round=build_round)
    monkeypatch.setitem(run.WORKLOADS, "fake", "fake_workload")
    monkeypatch.setitem(sys.modules, "fake_workload", fake)
    monkeypatch.setattr(run, "setup_probe_times", lambda name, seed: [0.1])
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: None)
    assert run.main(["--workload", "fake", "--seed", "1", "--seconds", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "FAILED wrong on purpose: expected 2, got 1" in out
    assert "failed_ratio 0.5000 ratio" in out
    assert out[-1].startswith('{"correct": false, "attempted": 2, "failed": 1')


def _result(exit_code, records, stderr=""):
    return {"exit": exit_code, "records": records, "stderr": stderr, "ceiling": False}


def test_cli_contract_violations_are_failures():
    assert "traceback" in cli_report._contract_failure(_result(1, [], "Traceback (most recent call last):\nKeyError: 'right'"), 3)
    assert "contract says 3" in cli_report._contract_failure(_result(1, []), 3)
    ceiling = dict(_result(None, []), ceiling=True)
    assert "ceiling" in cli_report._contract_failure(ceiling, 2)


def test_cli_records_are_checked_against_the_oracle():
    rec = {"cmd": "tensor", "detail": '{"atoms": [], "cardinality": 3}', "subject": "C4(x)C6", "verdict": "pass"}
    reason = cli_report._check_records(["tensor C4 C6"], _result(0, [rec]))
    assert reason == 'tensor C4 C6: detail {"atoms": [], "cardinality": 3}, expected cardinality 2'
    failing = dict(rec, verdict="fail")
    assert "verdict 'fail'" in cli_report._check_records(["tensor C4 C6"], _result(0, [failing]))


def test_colinear_endomorphisms_are_keyed_by_their_graphs_not_the_search_order(monkeypatch):
    import hom_search

    sk, _ = run.load_semikernel()
    found = hom_search.State(sk).ends
    search = sk.semicomodules.colinear_maps
    monkeypatch.setattr(sk.semicomodules, "colinear_maps", lambda A, B: search(A, B)[::-1])
    reversed_search = hom_search.State(sk)
    for name, (A, _) in reversed_search.ambients.items():
        assert len(found[name]) > 1
        assert [hom_search.graph(f, A) for f in reversed_search.ends[name]] == [
            hom_search.graph(f, A) for f in found[name]
        ]
