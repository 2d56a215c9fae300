"""One benchmark query: a call into semikernel and a check of its answer."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Query:
    """``run`` is timed and returns a small summary of the program's answer;
    ``check`` runs after the timed phase and returns None or why it is wrong.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    heavy: bool = False  # left out of the warm-up
    budgets: list = field(default_factory=list)  # Budget objects passed in


def expect(expected):
    """A check that the answer equals ``expected``."""

    def check(answer):
        return None if answer == expected else f"expected {expected!r}, got {answer!r}"

    return check


def table_module(semikernel_modules, S, table, labels):
    """A semikernel table module with oracle element i renamed labels[i]."""
    sels = list(S.elements)
    add = {
        (labels[a], labels[b]): labels[table.add[a][b]]
        for a in range(table.size)
        for b in range(table.size)
    }
    act = {
        (labels[a], s): labels[table.act[a][j]]
        for a in range(table.size)
        for j, s in enumerate(sels)
    }
    return semikernel_modules.table_module(S, list(labels), add, act, name=table.name)


def seeded_labels(rng, n):
    """n distinct element labels; their order decides the program's element order."""
    return rng.sample(range(100), n)
