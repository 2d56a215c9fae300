"""Ordering, formal sums and report plumbing used by every module."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def ordkey(x):
    """Total order key over the mixed element values the kernel uses.

    Values of different types never compare directly; each gets a type tag.
    """
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, Fraction):
        return (1, x)
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, tuple):
        return (3, len(x), tuple(ordkey(v) for v in x))
    if isinstance(x, frozenset):
        return (4, len(x), tuple(sorted(ordkey(v) for v in x)))
    raise TypeError(f"no order key for {type(x)!r}")


def sorted_elems(xs):
    return sorted(xs, key=ordkey)


# Formal sums: finite multisets of symbols with positive integer multiplicity,
# canonically stored as a sorted tuple of (symbol, mult) pairs.

def fs_make(pairs):
    acc = {}
    for sym, k in pairs:
        if k:
            acc[sym] = acc.get(sym, 0) + k
    return tuple(sorted(((s, k) for s, k in acc.items() if k), key=lambda p: ordkey(p[0])))


def fs_eval(M, pairs):
    """The sum of k * x over (x, k) pairs in M (a semimodule or a semiring),
    folded left from M.zero in iteration order."""
    acc = M.zero
    for x, k in pairs:
        acc = M.add(acc, M.times_int(x, k))
    return acc


@dataclass
class Check:
    name: str
    ok: bool
    witness: object = None


@dataclass
class Report:
    """Outcome of a validation: per-check verdicts plus an overall flag."""

    subject: str
    checks: list = field(default_factory=list)
    sampled: bool = False

    def add(self, name, ok, witness=None):
        self.checks.append(Check(name, bool(ok), witness))

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def first_witness(self):
        for c in self.checks:
            if not c.ok:
                return c.name, c.witness
        return None

    def __repr__(self):
        flag = "ok" if self.ok else f"FAILED({len(self.failures())})"
        extra = " sampled" if self.sampled else ""
        return f"<Report {self.subject}: {flag}{extra}>"
