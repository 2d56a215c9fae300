"""Carrier atoms for structured semimodules.

A semimodule carrier is a direct sum of atoms.  Finite atoms (CYCLIC, BOOL,
TABLE, FREE) expose full element lists; NAT and QMODZ are effective, with
exact integers and reduced fractions in [0,1) as canonical forms.  Each atom
provides a generating set with a complete additive (Cayley-style)
presentation, which is what the tensor saturation consumes.  TABLE atoms
hold their addition on integer indices: one row of positions per element.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import FormatError, UnsupportedError, negative_count
from .util import sorted_elems


class Atom:
    kind = "?"
    finite = True

    def elements(self):
        raise NotImplementedError

    def times_int(self, a, k):
        """k-fold sum by binary doubling."""
        if k < 0:
            raise negative_count(k)
        acc = self.zero
        base = a
        while k:
            if k & 1:
                acc = self.add(acc, base)
            base = self.add(base, base)
            k >>= 1
        return acc

    # generating data: list of (key, element); None when not finitely generated
    def gens(self):
        return None

    def decompose(self, a):
        raise UnsupportedError(f"{self.kind}: no generator decomposition")

    def cayley(self):
        """Complete relation list among generators, as (multiset, multiset) pairs."""
        return []

    def act_left(self, s, a):
        return self.act(a, s)

    def solve_mult(self, hi, lo):
        """Elements t with hi*t == lo*t (hi > lo >= 0); None means infinitely many."""
        if self.finite:
            return [t for t in self.elements() if self.times_int(t, hi) == self.times_int(t, lo)]
        return None

    def describe(self):
        return {"kind": self.kind}


class NatAtom(Atom):
    kind = "NAT"
    finite = False
    zero = 0

    def __init__(self, base):
        if base.name != "NAT":
            raise FormatError("NAT atom requires base NAT")
        self.base = base

    def elements(self):
        return None

    def add(self, a, b):
        return a + b

    def act(self, a, s):
        return a * s

    def times_int(self, a, k):
        if k < 0:
            raise negative_count(k)
        return a * k

    def gens(self):
        return [("g", 1)]

    def decompose(self, a):
        return {"g": a} if a else {}

    def solve_mult(self, hi, lo):
        return [0] if hi != lo else None

    def sample(self, rng):
        return rng.randrange(0, 16)


class CyclicAtom(Atom):
    kind = "CYCLIC"
    zero = 0

    def __init__(self, base, n):
        if n < 1:
            raise FormatError("CYCLIC(n) needs n >= 1")
        if base.name == "NAT":
            pass
        elif base.name.startswith("ZMOD("):
            m = len(base.elements)
            if m % n != 0:
                raise FormatError(f"CYCLIC({n}) needs n | {m} over {base.name}")
        else:
            raise FormatError(f"CYCLIC atom unsupported over {base.name}")
        self.base = base
        self.n = n

    def elements(self):
        return list(range(self.n))

    def add(self, a, b):
        return (a + b) % self.n

    def act(self, a, s):
        return (a * s) % self.n

    def gens(self):
        return [("g", 1 % self.n)]

    def decompose(self, a):
        return {"g": a} if a else {}

    def cayley(self):
        return [({"g": self.n}, {})]

    def describe(self):
        return {"kind": self.kind, "n": self.n}


class BoolAtom(Atom):
    kind = "BOOL"
    zero = 0

    def __init__(self, base):
        if base.name not in ("NAT", "BOOL"):
            raise FormatError(f"BOOL atom unsupported over {base.name}")
        self.base = base

    def elements(self):
        return [0, 1]

    def add(self, a, b):
        return max(a, b)

    def act(self, a, s):
        return a if s != 0 else 0

    def gens(self):
        return [("g", 1)]

    def decompose(self, a):
        return {"g": 1} if a else {}

    def cayley(self):
        return [({"g": 2}, {"g": 1})]


class QmodzAtom(Atom):
    """Q/Z with exact reduced fractions in [0,1); not finitely generated."""

    kind = "QMODZ"
    finite = False
    zero = Fraction(0)

    def __init__(self, base):
        if base.name != "NAT":
            raise FormatError("QMODZ atom requires base NAT")
        self.base = base

    def elements(self):
        return None

    def add(self, a, b):
        c = a + b
        return c - int(c)

    def act(self, a, s):
        c = a * s
        return c - int(c)

    def times_int(self, a, k):
        if k < 0:
            raise negative_count(k)
        return self.act(a, k)

    def solve_mult(self, hi, lo):
        d = hi - lo
        if d == 0:
            return None
        return [Fraction(j, d) for j in range(d)]

    def sample(self, rng):
        den = rng.randrange(1, 13)
        return Fraction(rng.randrange(0, den), den)


_ABSENT = object()  # never an element


class TableAtom(Atom):
    """Finite commutative monoid with an explicit scalar action, on indices.

    The carrier is a list of elements, `index` maps each element to its
    position, and row i of the addition holds, for every position j, the
    position of carrier[i] + carrier[j]; `add` looks up two positions and
    returns the carrier's element.  `elements()` is in ordkey order.

    The addition comes in one of two forms, converted to rows once:

    * a dict (a, b) -> a + b over every pair of elements.  The carrier is
      put in ordkey order, and the conversion checks, pair by pair in that
      order, that each sum is present and is an element, then that the dict
      has no other key;
    * a list of rows of positions into `elements`, taken in the given order:
      the form a builder that already computed the sums on indices passes
      (the saturation tensor's Cayley-graph fold).  The conversion checks
      that there is one row of n positions in range(n) per element.

    The zero is the first left identity in ordkey order.  The action is a
    dict (element, base element) -> element for finite bases, or None over
    NAT (iterated addition).
    """

    kind = "TABLE"

    def __init__(self, base, elements, add_table, action=None):
        self.base = base
        if isinstance(add_table, dict):
            carrier = ordered = sorted_elems(elements)
        else:
            carrier = list(elements)
            ordered = sorted_elems(carrier)
        self.index = {e: i for i, e in enumerate(carrier)}
        if len(self.index) != len(carrier):
            raise FormatError("TABLE elements repeat")
        self._carrier = carrier
        self._elements = tuple(ordered)
        self._rows = self._rows_of(add_table)
        identity = list(range(len(carrier)))
        zeros = (z for z in ordered if self._rows[self.index[z]] == identity)
        self.zero = next(zeros, _ABSENT)
        if self.zero is _ABSENT:
            raise FormatError("TABLE has no additive identity")
        if action is None:
            if base.name != "NAT":
                raise FormatError("TABLE without action table needs base NAT")
            self._action = None
        else:
            if base.elements is None:
                raise FormatError("TABLE action table needs a finite base")
            for a in ordered:
                for s in base.elements:
                    if (a, s) not in action:
                        raise FormatError(f"TABLE action missing ({a},{s})")
                    if action[(a, s)] not in self.index:
                        raise FormatError("TABLE action not closed")
            self._action = action

    def _rows_of(self, add_table):
        """The addition as checked rows of positions (see the class docstring)."""
        carrier, index = self._carrier, self.index
        n = len(carrier)
        if not isinstance(add_table, dict):
            if len(add_table) != n or any(
                len(row) != n or min(row) < 0 or max(row) >= n for row in add_table
            ):
                raise FormatError("TABLE add not closed")
            return add_table
        rows = []
        for a in carrier:
            row = []
            for b in carrier:
                j = index.get(add_table.get((a, b), _ABSENT))
                if j is None:
                    if (a, b) not in add_table:
                        raise FormatError(f"TABLE add missing ({a},{b})")
                    raise FormatError("TABLE add not closed")
                row.append(j)
            rows.append(row)
        # with every pair present, any further entry has a key outside the carrier
        if len(add_table) != n * n:
            raise FormatError("TABLE add not closed")
        return rows

    def elements(self):
        return list(self._elements)

    def add(self, a, b):
        index = self.index
        return self._carrier[self._rows[index[a]][index[b]]]

    def act(self, a, s):
        if self._action is None:
            return self.times_int(a, s)
        return self._action[(a, s)]

    def gens(self):
        return [(a, a) for a in self._elements if a != self.zero]

    def decompose(self, a):
        return {a: 1} if a != self.zero else {}

    def cayley(self):
        rels = []
        nz = [a for a in self._elements if a != self.zero]
        for i, a in enumerate(nz):
            for b in nz[i:]:
                lhs = {a: 2} if a == b else {a: 1, b: 1}
                rels.append((lhs, self.decompose(self.add(a, b))))
        return rels

    def describe(self):
        return {"kind": self.kind, "size": len(self._elements)}


class PresentedTableAtom(TableAtom):
    """Finite table atom that remembers a small generating presentation.

    Elements are canonical multiplicity vectors over the generators; the
    stored relations generate the defining congruence, so downstream tensors
    can present this atom by its few generators instead of all elements.
    The saturation tensor builds it from rows of positions, with the
    classes in the order the quotient walk found them.
    """

    kind = "TABLE"

    def __init__(self, base, elements, add_table, action, gen_nfs, relations):
        super().__init__(base, elements, add_table, action)
        self._gen_nfs = list(gen_nfs)  # canonical form of each generator
        self._relations = relations  # [(vec, vec)] over the generators

    def gens(self):
        return [(i, nf) for i, nf in enumerate(self._gen_nfs)]

    def decompose(self, a):
        return {i: k for i, k in enumerate(a) if k}

    def cayley(self):
        out = []
        for l, r in self._relations:
            out.append(
                (
                    {i: k for i, k in enumerate(l) if k},
                    {i: k for i, k in enumerate(r) if k},
                )
            )
        return out


class FreeAtom(Atom):
    """Free module on a finite basis over a finite semiring: coefficient tuples."""

    kind = "FREE"

    def __init__(self, base, basis):
        if not base.is_finite:
            raise FormatError("FREE atom needs a finite base semiring")
        self.base = base
        self.basis = tuple(basis)
        self.zero = (base.zero,) * len(self.basis)

    def elements(self):
        out = [()]
        for _ in self.basis:
            out = [t + (s,) for t in out for s in self.base.elements]
        return out

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def act(self, a, s):
        return tuple(self.base.mul(x, s) for x in a)

    def act_left(self, s, a):
        return tuple(self.base.mul(s, x) for x in a)

    def unit(self, i, s=None):
        s = self.base.one if s is None else s
        return tuple(s if j == i else self.base.zero for j in range(len(self.basis)))

    def gens(self):
        nz = [s for s in self.base.elements if s != self.base.zero]
        return [((i, s), self.unit(i, s)) for i in range(len(self.basis)) for s in nz]

    def decompose(self, a):
        return {(i, s): 1 for i, s in enumerate(a) if s != self.base.zero}

    def cayley(self):
        rels = []
        nz = [s for s in self.base.elements if s != self.base.zero]
        for i in range(len(self.basis)):
            for j, s in enumerate(nz):
                for t in nz[j:]:
                    lhs = {(i, s): 2} if s == t else {(i, s): 1, (i, t): 1}
                    u = self.base.add(s, t)
                    rhs = {(i, u): 1} if u != self.base.zero else {}
                    rels.append((lhs, rhs))
        return rels

    def describe(self):
        return {"kind": self.kind, "basis": list(self.basis)}
