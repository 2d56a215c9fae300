"""Semirings as executable values: builtins, axiom checks, structural predicates."""
from __future__ import annotations

import random
import threading
from functools import lru_cache
from math import gcd
from types import SimpleNamespace

from .errors import FormatError, UnsupportedError
from .util import Memo, Report, ordkey, sorted_elems, times, unpreserved

SAMPLE_BUDGET = 10_000

INF = "oo"  # top element of the capped tropical semiring


def candidate_semiring(name, elements, add_table, mul_table, zero, one):
    """Operation tables packaged for axiom checking, without validity assumptions.

    Non-closed tables raise FormatError here; actual axiom failures are left
    for check_semiring_axioms to report with witnesses.
    """
    els = set(elements)
    if zero not in els or one not in els:
        raise FormatError(f"{name}: zero/one not in carrier")
    for tab, tag in ((add_table, "add"), (mul_table, "mul")):
        for a in elements:
            for b in elements:
                if (a, b) not in tab:
                    raise FormatError(f"{name}: {tag} table missing entry ({a},{b})")
                if tab[(a, b)] not in els:
                    raise FormatError(f"{name}: {tag} table not closed at ({a},{b})")
    return SimpleNamespace(
        name=name,
        elements=tuple(sorted_elems(elements)),
        add=lambda a, b: add_table[(a, b)],
        mul=lambda a, b: mul_table[(a, b)],
        zero=zero,
        one=one,
    )


class Semiring:
    """A semiring with decidable equality.

    Finite semirings carry an explicit element list; the only infinite builtin
    is NAT, whose canonical form is the integer itself.  All values are
    immutable after construction.  The axiom report and the structural flags
    are computed together, from one drawn sample, the first time either is
    read, so a builtin that no caller asks about draws nothing;
    `semiring_from_tables`, the constructor of every semiring a document or a
    dual supplies, reads the report at once.
    """

    def __init__(self, name, elements, add, mul, zero, one, sample=None):
        self.name = name
        self.elements = tuple(sorted_elems(elements)) if elements is not None else None
        # element -> position in elements: the column of a scalar in action rows
        self.index = None if elements is None else {s: k for k, s in enumerate(self.elements)}
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self._sample = sample
        if self.one == self.zero:
            raise FormatError(f"{name}: 1 = 0 is not allowed")
        self._checks = None  # (axiom report, flags), computed on first read
        self._tables = None
        self._lock = threading.Lock()
        # (x, y) -> x + y and x * y, filled on first use: a free atom's coordinatewise operations
        self.add_memo = Memo(lambda pair: add(*pair))
        self.mul_memo = Memo(lambda pair: mul(*pair))

    def _checked(self):
        """The axiom report and the flags, from one sample drawn on first call."""
        if self._checks is None:
            with self._lock:  # one draw, however many threads ask at once
                if self._checks is None:
                    drawn = _drawn(self)
                    self._checks = (_axioms(self, drawn), _predicates(drawn))
        return self._checks

    def tables(self):
        """(plus, times) of a finite S on positions (_position_tables), built on first call."""
        if self._tables is None:
            self._tables = _position_tables(self, self.index)
        return self._tables

    @property
    def axiom_report(self):
        return self._checked()[0]

    @property
    def flags(self):
        return self._checked()[1]

    @property
    def is_finite(self):
        return self.elements is not None

    def times_int(self, x, k):
        return times(self.add, self.zero, x, k)

    def sample_elements(self, rng, count):
        if self.is_finite:
            return [rng.choice(self.elements) for _ in range(count)]
        if self._sample is None:
            raise UnsupportedError(f"{self.name}: no sampler for effective carrier")
        return [self._sample(rng) for _ in range(count)]

    def __repr__(self):
        size = len(self.elements) if self.is_finite else "effective"
        return f"<Semiring {self.name} ({size})>"


def _position_tables(S, index):
    """S.add and S.mul on positions in S.elements, index mapping each
    element to its position: plus[a][b] is the position of elements[a] +
    elements[b], times[a][b] that of elements[a] * elements[b]."""
    els = S.elements
    return tuple([[index[op(a, b)] for b in els] for a in els] for op in (S.add, S.mul))


def _triples(S):
    """All element triples (finite) or a deterministic sample of them."""
    if S.elements is not None:
        els = S.elements
        if len(els) ** 3 <= SAMPLE_BUDGET:
            return [(a, b, c) for a in els for b in els for c in els], False
        rng = random.Random(0)
        return [tuple(rng.choice(els) for _ in range(3)) for _ in range(SAMPLE_BUDGET)], True
    rng = random.Random(0)
    return [tuple(S.sample_elements(rng, 3)) for _ in range(SAMPLE_BUDGET)], True


def _pairs(triples):
    """The pairs the axiom checks scan, in the iteration order of their set."""
    return {(a, b) for a, b, _ in triples} | {(b, c) for _, b, c in triples}


def _drawn(S):
    """The operands of both checks, drawn once.  A finite S of at most
    SAMPLE_BUDGET pairs is checked on positions in S.elements: add/mul tables
    take one S.add and S.mul call per pair, the axiom pairs keep the order of
    their element set, and back maps a witness to elements.  NAT and larger
    carriers (a ZMOD(n) costs no n² table) keep the element operations."""
    triples, sampled = _triples(S)
    d = SimpleNamespace(triples=triples, sampled=sampled, pairs=None, add=S.add, mul=S.mul,
                        zero=S.zero, one=S.one, back=lambda w: w, key=ordkey)
    els = S.elements
    if els is None or len(els) ** 2 > SAMPLE_BUDGET:
        return d
    index = {e: i for i, e in enumerate(els)}
    add, mul = _position_tables(S, index)  # S is closed (see check_semiring_axioms)
    d.pairs = [(index[a], index[b]) for a, b in _pairs(triples)]
    for i, (a, b, c) in enumerate(triples):  # in place, so one list of triples is alive
        triples[i] = (index[a], index[b], index[c])
    d.add, d.mul = lambda a, b: add[a][b], lambda a, b: mul[a][b]
    d.zero, d.one, d.back = index[S.zero], index[S.one], lambda w: tuple(els[i] for i in w)
    d.key = None  # positions sort as their elements: S.elements is in ordkey order
    return d


def check_semiring_axioms(S) -> Report:
    """Verify the semiring axioms, reporting a witness triple on each failure.

    Non-closed tables are a format error, not an axiom failure; closure is
    checked by the table constructor before this runs.
    """
    return _axioms(S, _drawn(S))


def _axioms(S, d):
    rep = Report(f"semiring {S.name}")
    rep.sampled = d.sampled
    triples, add, mul, zero, one = d.triples, d.add, d.mul, d.zero, d.one
    pairs = _pairs(triples) if d.pairs is None else d.pairs

    def check(name, w):
        rep.add(name, w is None, w and d.back(w))

    check("add-commutative", next(((a, b) for a, b in pairs if add(a, b) != add(b, a)), None))
    check("add-identity", next(((a,) for a, _ in pairs if add(a, zero) != a), None))
    check("add-associative", next((t for t in triples if add(add(t[0], t[1]), t[2]) != add(t[0], add(t[1], t[2]))), None))
    check("mul-associative", next((t for t in triples if mul(mul(t[0], t[1]), t[2]) != mul(t[0], mul(t[1], t[2]))), None))
    check("mul-identity", next(((a,) for a, _ in pairs if mul(a, one) != a or mul(one, a) != a), None))
    check("left-distributive", next((t for t in triples if mul(t[0], add(t[1], t[2])) != add(mul(t[0], t[1]), mul(t[0], t[2]))), None))
    check("right-distributive", next((t for t in triples if mul(add(t[0], t[1]), t[2]) != add(mul(t[0], t[2]), mul(t[1], t[2]))), None))
    w = next(((a,) for a, _ in pairs if mul(a, zero) != zero or mul(zero, a) != zero), None)
    rep.add("absorption", w is None, w and d.back(w) + (S.zero,))
    rep.add("one-neq-zero", S.one != S.zero, (S.one, S.zero))
    return rep


def structural_predicates(S) -> dict:
    """commutative / cancellative / additively_idempotent flags with witnesses."""
    return _predicates(_drawn(S))


def _predicates(d):
    pairs = sorted({(a, b) for a, b, _ in d.triples}, key=d.key)
    add, mul = d.add, d.mul
    out = {"sampled": d.sampled}
    for flag, w in (
        ("commutative", next((p for p in pairs if mul(p[0], p[1]) != mul(p[1], p[0])), None)),
        ("cancellative", next((t for t in d.triples if add(t[0], t[1]) == add(t[0], t[2]) and t[1] != t[2]), None)),
        ("additively_idempotent", next(((a,) for a, _ in pairs if add(a, a) != a), None)),
    ):
        out[flag], out[flag + "_witness"] = w is None, w and d.back(w)
    return out


def semiring_from_tables(name, elements, add_table, mul_table, zero, one):
    """Build a finite semiring from explicit operation tables.

    Tables are dicts keyed by element pairs.  Non-closure is a format error,
    and so is an axiom that fails on the checked sample.
    """
    cand = candidate_semiring(name, elements, add_table, mul_table, zero, one)
    S = Semiring(name, cand.elements, cand.add, cand.mul, zero, one)
    if not S.axiom_report.ok:
        raise FormatError(f"{name}: semiring axioms fail: {S.axiom_report.first_witness()}")
    return S


# ---------------------------------------------------------------- builtins

@lru_cache(maxsize=None)
def bool_semiring():
    """Two-element semiring with idempotent addition (1 + 1 = 1)."""
    return Semiring("BOOL", [0, 1], lambda a, b: max(a, b), lambda a, b: a * b, 0, 1)


@lru_cache(maxsize=None)
def zmod(n):
    if n < 2:
        raise FormatError("ZMOD(n) needs n >= 2")
    return Semiring(
        f"ZMOD({n})", range(n), lambda a, b: (a + b) % n, lambda a, b: (a * b) % n, 0, 1
    )


@lru_cache(maxsize=None)
def natcap(k):
    """{0..k} with saturating addition and multiplication."""
    if k < 1:
        raise FormatError("NATCAP(k) needs k >= 1")
    return Semiring(
        f"NATCAP({k})",
        range(k + 1),
        lambda a, b: min(a + b, k),
        lambda a, b: min(a * b, k),
        0,
        1,
    )


@lru_cache(maxsize=None)
def tropcap(k):
    """min-plus semiring on {0..k, oo}: addition is min, multiplication saturating +."""
    if k < 1:
        raise FormatError("TROPCAP(k) needs k >= 1")

    def tadd(a, b):
        if a == INF:
            return b
        if b == INF:
            return a
        return min(a, b)

    def tmul(a, b):
        if a == INF or b == INF:
            return INF
        return min(a + b, k)

    return Semiring(f"TROPCAP({k})", list(range(k + 1)) + [INF], tadd, tmul, INF, 0)


@lru_cache(maxsize=None)
def ideals(n):
    """Ideals of Z/n: elements are divisors d of n (the ideal generated by d).

    Addition is ideal sum (gcd), multiplication is intersection (lcm); the
    zero ideal is (n) and the whole ring is (1).
    """
    if n < 2:
        raise FormatError("IDEALS(n) needs n >= 2")
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return Semiring(
        f"IDEALS({n})",
        divs,
        lambda a, b: gcd(a, b),
        lambda a, b: (a * b) // gcd(a, b),
        n,
        1,
    )


@lru_cache(maxsize=None)
def nat():
    """The effective semiring of non-negative integers (canonical form: the int)."""
    return Semiring(
        "NAT",
        None,
        lambda a, b: a + b,
        lambda a, b: a * b,
        0,
        1,
        sample=lambda rng: rng.randrange(0, 64),
    )


# tag -> (constructor, the parameter it takes or None)
_BUILTINS = {
    "BOOL": (bool_semiring, None),
    "ZMOD": (zmod, "n"),
    "NATCAP": (natcap, "k"),
    "TROPCAP": (tropcap, "k"),
    "IDEALS": (ideals, "n"),
    "NAT": (nat, None),
}


def builtin_semiring(tag, **params):
    if not isinstance(tag, str) or tag not in _BUILTINS:
        raise FormatError(f"unknown builtin semiring {tag!r}")
    make, param = _BUILTINS[tag]
    if param is None:
        return make()
    if not isinstance(params.get(param), int):
        raise FormatError(f"builtin semiring {tag} needs an integer parameter {param!r}")
    return make(params[param])


class SemiringMorphism:
    """A map of semirings; preservation of +, ., 0, 1 is checked on construction."""

    def __init__(self, source, target, fn, check=True):
        self.source = source
        self.target = target
        self.fn = fn
        if check:
            rep = self.check()
            if not rep.ok:
                raise FormatError(f"not a semiring morphism: {rep.first_witness()}")

    def check(self) -> Report:
        S, T, f = self.source, self.target, self.fn
        rep = Report(f"morphism {S.name} -> {T.name}")
        if not S.is_finite:
            raise UnsupportedError("morphism check needs a finite source")
        rep.add("zero", f(S.zero) == T.zero)
        rep.add("one", f(S.one) == T.one)
        pairs = [(a, b) for a in S.elements for b in S.elements]
        w = unpreserved(f, S.add, T.add, pairs)
        rep.add("additive", w is None, w)
        w = unpreserved(f, S.mul, T.mul, pairs)
        rep.add("multiplicative", w is None, w)
        return rep

    def __call__(self, x):
        return self.fn(x)
