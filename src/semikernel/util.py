"""Ordering, formal sums and report plumbing used by every module."""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .errors import negative_count


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


def fold(add, zero, pairs):
    """The sum of k * x over the (x, k) pairs, folded left from zero in
    iteration order, add being the sum on elements or on positions; a term
    with k = 1 adds x itself."""
    acc = zero
    for x, k in pairs:
        acc = add(acc, x if k == 1 else times(add, zero, x, k))
    return acc


def times(add, zero, x, k):
    """k * x by binary doubling, which stops at the last bit of k."""
    if k < 0:
        raise negative_count(k)
    acc = zero
    while k:
        if k & 1:
            acc = add(acc, x)
        k >>= 1
        if k:
            x = add(x, x)
    return acc


def fs_eval(M, pairs):
    """fold in M, a semimodule or a semiring."""
    return fold(M.add, M.zero, pairs)


def unpreserved(f, op, top, pairs, scalar=False):
    """The first (a, b) of pairs, in the order given, with f(op(a, b)) !=
    top(f(a), f(b)), or != top(f(a), b) when b is a scalar acting on a (None
    if f preserves op on every pair): the law "f is a homomorphism" as a scan."""
    if scalar:
        return next(((a, b) for a, b in pairs if f(op(a, b)) != top(f(a), b)), None)
    return next(((a, b) for a, b in pairs if f(op(a, b)) != top(f(a), f(b))), None)


def unpreserved_rows(f, rows, top, els, cols=None):
    """unpreserved on a finite carrier's integer positions: the first pair
    (els[i], b), row by row, that f does not carry to the target's
    operation, or None.  f[i] is the image of els[i] (a position or an
    element of the target); rows[i][j] the position in els of els[i] op b,
    with b = els[j], or the scalar b = cols[j] when cols are given; top the
    target operation on images.  The pair fails when f[rows[i][j]] !=
    top(f[i], f[j]), or != top(f[i], j) for a scalar.  Each image is read
    once, and the pairs come in the order unpreserved takes them."""
    second = f if cols is None else range(len(cols))
    for i, row in enumerate(rows):
        lhs, rhs = list(map(f.__getitem__, row)), list(map(top, repeat(f[i]), second))
        if lhs != rhs:
            j = next(j for j, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
            return els[i], (els if cols is None else cols)[j]
    return None


class Memo(dict):
    """A dict that computes, keeps and returns the value fn(key) of a missing key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class Record:
    """Field-wise == and a repr that lists the fields, as a dataclass has:
    the fields are the names in _fields."""

    __slots__ = ()
    _fields = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(getattr(self, k) for k in self._fields) == tuple(getattr(other, k) for k in self._fields)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._fields)})"


class Check(Record):
    _fields = ("name", "ok", "witness")

    def __init__(self, name, ok, witness=None):
        self.name, self.ok, self.witness = name, ok, witness


class Report(Record):
    """Outcome of a validation: per-check verdicts plus an overall flag."""

    _fields = ("subject", "checks", "sampled")

    def __init__(self, subject, checks=None, sampled=False):
        self.subject, self.checks, self.sampled = subject, [] if checks is None else checks, sampled

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
