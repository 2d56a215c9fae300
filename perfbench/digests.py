"""Digests of the seed commit's answers, for queries with no independent answer.

A digest is compared in addition to the oracle's checks, never instead of
them.  ``make_digests.py`` writes ``digests.json``; only regenerate it when
an answer is meant to change.
"""
from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

STORE = Path(__file__).resolve().parent / "digests.json"


def digest(answer):
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _recorded():
    with open(STORE, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload, key, answer):
    """None if answer hashes to the recorded digest, else why not."""
    recorded = _recorded().get(workload, {}).get(key)
    if recorded is None:
        return f"no recorded digest for {key!r}"
    if digest(answer) != recorded:
        return f"answer differs from the recorded one for {key!r}: {answer!r}"
    return None
