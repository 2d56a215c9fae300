#!/usr/bin/env python3
"""Record the answers that have no independent oracle, as digests.json.

    python3 perfbench/make_digests.py

Run it from the root of a checkout of the commit whose answers are the
reference.  It covers every query any seed can draw: the (co)equalizer
queries of hom-search and every report command, gallery run and contract
document of cli-report.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import cli_report
import digests
import hom_search
import run


def hom_search_digests():
    sk, _ = run.load_semikernel()
    state = hom_search.State(sk)
    out = {}
    for key, (name, i, j) in sorted(hom_search.comodule_keys(state).items()):
        query = hom_search.coequalizer_query(state, name, i, j)
        out[key] = digests.digest(query.run())
    return out


def cli_report_digests():
    run.WORK.mkdir(exist_ok=True)
    ctx = SimpleNamespace(root=run.ROOT, src=run.SRC, work=Path(tempfile.mkdtemp(dir=run.WORK)))
    try:
        answers = cli_report.reference_answers(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return {key: digests.digest(answer) for key, answer in sorted(answers.items())}


def main():
    store = {"hom-search": hom_search_digests(), "cli-report": cli_report_digests()}
    with open(digests.STORE, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in store.values())} digests to {digests.STORE}")


if __name__ == "__main__":
    main()
