"""Carrier atoms for structured semimodules.

A semimodule carrier is a direct sum of atoms.  Finite atoms (CYCLIC, BOOL,
TABLE, FREE) expose full element lists; NAT and QMODZ are effective, with
exact integers and reduced fractions in [0,1) as canonical forms.  Each atom
provides a generating set with a complete additive (Cayley-style)
presentation, which is what the tensor saturation consumes.  TABLE atoms
hold their addition and action on integer indices: rows of positions.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import repeat

from .errors import FormatError, UnsupportedError, negative_count
from .util import sorted_elems, times


class Atom:
    __slots__ = ("base",)  # atoms are many and small: no per-instance __dict__
    kind = "?"
    finite = True

    def elements(self):
        raise NotImplementedError

    def times_int(self, a, k):
        return times(self.add, self.zero, a, k)

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
    __slots__ = ()
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
    __slots__ = ("n",)
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
    __slots__ = ()
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

    __slots__ = ()
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


def compact(row, n):
    """A row of positions in range(n), stored compactly: bytes while every
    position fits in a byte, an unsigned int array otherwise; a compact row
    is returned as it is."""
    if n > 256:
        return row if isinstance(row, array) else array("I", row)
    return bytes(row)


class TableAtom(Atom):
    """Finite commutative monoid with an explicit scalar action, on positions.

    The carrier is a tuple of elements, `index` maps each element to its
    position (built on first use: most tables are searched on positions
    only), row i of the addition holds, for every position j, the position
    of carrier[i] + carrier[j], and row i of the action the position of
    carrier[i] * s for each s of base.elements; `add` and `act` look up
    positions and return the carrier's element.  Rows are compact (see
    `compact`) and the atom keeps no table it was given.  `elements()` is in
    ordkey order; a carrier given in another order is kept as given next to
    its ordkey-ordered copy.

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
    dict (element, base element) -> element, checked pair by pair in ordkey
    order, or rows of positions in carrier order, for finite bases; None
    over NAT (iterated addition).
    """

    __slots__ = ("zero", "_index", "_carrier", "_elements", "_rows", "_act")
    kind = "TABLE"

    def __init__(self, base, elements, add_table, action=None):
        self.base = base
        if isinstance(add_table, dict):
            carrier = ordered = tuple(sorted_elems(elements))
        else:
            carrier = tuple(elements)
            ordered = tuple(sorted_elems(carrier))
            if ordered == carrier:
                ordered = carrier
        index = {e: i for i, e in enumerate(carrier)}
        if len(index) != len(carrier):
            raise FormatError("TABLE elements repeat")
        self._index, self._carrier, self._elements = None, carrier, ordered
        self._rows = self._rows_of(add_table, index, carrier, "add")
        # with every pair present, any further entry has a key outside the carrier
        if isinstance(add_table, dict) and len(add_table) != len(carrier) ** 2:
            raise FormatError("TABLE add not closed")
        identity = compact(range(len(carrier)), len(carrier))
        zeros = (z for z in ordered if self._rows[index[z]] == identity)
        self.zero = next(zeros, _ABSENT)
        if self.zero is _ABSENT:
            raise FormatError("TABLE has no additive identity")
        if action is None:
            if base.name != "NAT":
                raise FormatError("TABLE without action table needs base NAT")
            self._act = None
        else:
            if base.elements is None:
                raise FormatError("TABLE action table needs a finite base")
            self._act = self._rows_of(action, index, base.elements, "action")

    @property
    def index(self):  # a property, not __getattr__, which would slow every attribute read
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self._carrier)}
        return self._index

    def _rows_of(self, table, index, columns, what):
        """Checked rows of positions, one per carrier element, over the
        given columns (see the class docstring); `index` maps each carrier
        element to its position and `what` names the table."""
        n = len(index)
        if not isinstance(table, dict):
            try:  # a compact row holds no negative position
                rows = tuple(compact(row, n) for row in table)
            except (ValueError, OverflowError):
                rows = ()
            if len(rows) != n or any(len(row) != len(columns) or max(row, default=0) >= n for row in rows):
                raise FormatError(f"TABLE {what} not closed")
            return rows
        rows = [None] * n
        for a in self._elements:
            row = []
            for c in columns:
                j = index.get(table.get((a, c), _ABSENT))
                if j is None:
                    if (a, c) not in table:
                        raise FormatError(f"TABLE {what} missing ({a},{c})")
                    raise FormatError(f"TABLE {what} not closed")
                row.append(j)
            rows[index[a]] = compact(row, n)
        return tuple(rows)

    def elements(self):
        return list(self._elements)

    def add(self, a, b):
        index = self._index or self.index
        return self._carrier[self._rows[index[a]][index[b]]]

    def act(self, a, s):
        if self._act is None:
            return self.times_int(a, s)
        return self._carrier[self._act[(self._index or self.index)[a]][self.base.index[s]]]

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

    __slots__ = ("_gen_nfs", "_relations")
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


class Radix:
    """S^r numbered by the integers below q^r, q = |S| (Knuth, TAOCP vol. 2
    §4.1): the digits of the position of (x_1, ..., x_r), most significant
    first, are the positions of the x_k in S.elements, so positions run in
    the order of FreeAtom.elements() and nothing is listed.  add(i, j),
    act(i, k) (by S.elements[k], on the right) and act_left(i, k) work digit
    by digit through S.tables().  Over a two-element base with zero first
    the digits are bits: a sum is one | (1 + 1 = 1) or one ^ (1 + 1 = 0) of
    the positions, and an action by k is one * k."""

    __slots__ = ("base", "rank", "q", "zero", "add", "act", "act_left")

    def __init__(self, base, rank):
        self.base, self.rank, self.q = base, rank, len(base.elements)
        (plus, times), digits, number = base.tables(), self._digits, self._number
        self.zero = number([base.index[base.zero]] * rank)
        if times == [[0, 0], [0, 1]] and plus in ([[0, 1], [1, 1]], [[0, 1], [1, 0]]):
            self.add = int.__or__ if plus[1][1] else int.__xor__
            self.act = self.act_left = int.__mul__
        else:
            self.add = lambda i, j: number([plus[a][b] for a, b in zip(digits(i), digits(j))])
            self.act = lambda i, k: number([times[a][k] for a in digits(i)])
            self.act_left = lambda i, k: number([times[k][a] for a in digits(i)])

    def _number(self, digits):
        n = 0
        for d in digits:
            n = n * self.q + d
        return n

    def _digits(self, i):
        out = [0] * self.rank
        for k in range(self.rank - 1, -1, -1):
            i, out[k] = divmod(i, self.q)
        return out

    def position(self, x):
        """The position of the coefficient tuple x; None if x is not one."""
        if type(x) is not tuple or len(x) != self.rank:
            return None
        digits = list(map(self.base.index.get, x))
        return None if None in digits else self._number(digits)

    def element(self, i):
        return tuple(map(self.base.elements.__getitem__, self._digits(i)))


class FreeAtom(Atom):
    """Free module on a finite basis over a finite semiring: coefficient tuples.

    The sum and the action look each coordinate up in the base semiring's
    `add_memo` and `mul_memo`, which every atom over that base shares;
    `radix` numbers the elements (Radix), built on first use: it reads the
    base's tables, |S|² sums and products.
    """

    __slots__ = ("basis", "zero", "_radix")
    kind = "FREE"

    def __init__(self, base, basis):
        if not base.is_finite:
            raise FormatError("FREE atom needs a finite base semiring")
        self.base = base
        self.basis = tuple(basis)
        self.zero = (base.zero,) * len(self.basis)
        self._radix = None

    @property
    def radix(self):  # a property, not __getattr__, which would slow every attribute read
        if self._radix is None:
            self._radix = Radix(self.base, len(self.basis))
        return self._radix

    def elements(self):
        out = [()]
        for _ in self.basis:
            out = [t + (s,) for t in out for s in self.base.elements]
        return out

    def add(self, a, b):
        return tuple(map(self.base.add_memo.__getitem__, zip(a, b)))

    def act(self, a, s):
        return tuple(map(self.base.mul_memo.__getitem__, zip(a, repeat(s))))

    def act_left(self, s, a):
        return tuple(map(self.base.mul_memo.__getitem__, zip(repeat(s), a)))

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
