"""Golden reports: CLI output must stay byte-identical apart from timings.

The files under tests/golden/ hold JSONL records with their `elapsed_ms`
field removed.  Re-record one only for a change that means to alter a
report, and say so where the change is described.
"""
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
ELAPSED = re.compile(r',"elapsed_ms":[-0-9.eE+]+')

CASES = [
    # (argv, golden file, exit code)
    (["gallery", "--skip-mutations"], "gallery_skip_mutations.jsonl", 0),
    # saturation-route tensors, validate on TABLE modules (one fails) and on corings
    (["report", str(GOLDEN / "saturation_report.json")], "saturation_report.jsonl", 1),
]


@pytest.mark.parametrize("args,golden,code", CASES, ids=[c[1] for c in CASES])
def test_report_matches_golden(args, golden, code):
    r = subprocess.run(
        [sys.executable, "-m", "semikernel.cli", "--format", "jsonl", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert r.returncode == code, r.stderr
    assert ELAPSED.sub("", r.stdout) == (GOLDEN / golden).read_text(encoding="utf-8")
