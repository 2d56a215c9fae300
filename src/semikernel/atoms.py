"""Carrier atoms for structured semimodules.

A semimodule carrier is a direct sum of atoms.  Finite atoms (CYCLIC, BOOL,
TABLE, FREE) expose full element lists; NAT and QMODZ are effective, with
exact integers and reduced fractions in [0,1) as canonical forms.  TABLE
atoms hold their addition and actions on integer indices: rows of positions.
Every finite atom presents (A, +) one way, `presentation`: its greedy
generators (`greedy`) and relations read off its Cayley graph, which the
tensor saturation consumes (an 8-element table that is F₂³ has 3
generators, not 7).  CYCLIC states what the walk finds, 1 with n·1 = 0, so
C_n is never walked; FREE lifts its base's presentation of (S, +)
coordinate by coordinate; NAT has one generator and QMODZ none.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from heapq import heappop, heappush
from itertools import repeat

from .errors import FormatError, negative_count
from .presentations import Quotient
from .util import sorted_elems, times


def greedy(add, zero, order):
    """Additive generators of a finite carrier whose positions are listed
    in `order` (add(i, j) the position of a sum, zero that of zero), and
    the steps (y, x, k), y = x + gens[k], that first reach each non-zero y.
    Each position, in order, that sums of the earlier ones miss is a
    generator, reached from zero; the walk then adds every generator to
    everything reached, so every x is zero or comes before the steps."""
    reached = {zero}
    gens, steps = [], []
    for e in order:
        if e not in reached:
            reached.add(e)
            steps.append((e, zero, len(gens)))
            gens.append(e)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for k, g in enumerate(gens):
                    y = add(x, g)
                    if y not in reached:
                        reached.add(y)
                        steps.append((y, x, k))
                        frontier.append(y)
    return gens, steps


def presentation(add, zero, n):
    """(gens, words, relations) of the finite commutative monoid on positions
    range(n) (add, zero as for greedy), read off its Cayley graph over the
    greedy generators (Froidure & Pin 1997; Rosales & García-Sánchez 1999).
    words[x] is the least word of value x in the (degree, word) order the
    word problem orients by, found by walking words in that order, each
    least word w of x adding w + e_k (value x + gens[k]).  A word met again
    whose divisors w - e_j are all least gives the relation (w, words[value]).
    Least words are closed under divisors, so every other word lies above
    such a w and rewrites to a smaller one: the relations present it."""
    gens = greedy(add, zero, range(n))[0]
    words, least, relations = [None] * n, set(), []
    walk = [(0, (0,) * len(gens), zero)]
    met = {walk[0][1]}
    while walk:
        d, w, x = heappop(walk)
        if words[x] is None:
            words[x] = w
            least.add(w)
            for k, g in enumerate(gens):
                v = w[:k] + (w[k] + 1,) + w[k + 1:]
                if v not in met:
                    met.add(v)
                    heappush(walk, (d + 1, v, add(x, g)))
        elif all(w[:j] + (c - 1,) + w[j + 1:] in least for j, c in enumerate(w) if c):
            relations.append((w, words[x]))
    return gens, words, relations


class Atom:
    __slots__ = ("base", "_presented")  # atoms are many and small: no per-instance __dict__
    kind = "?"
    finite = True

    def elements(self):
        raise NotImplementedError

    def size(self):  # |A| of a finite atom; a large one does not list itself
        return len(self.elements())

    def times_int(self, a, k):
        return times(self.add, self.zero, a, k)

    def _positions(self):
        """A finite atom's elements, the position of each and its sum on positions."""
        els = self.elements()
        index = {e: i for i, e in enumerate(els)}
        return els, index, lambda i, j: index[self.add(els[i], els[j])]

    def _presentation(self):
        """(generators, word, relations) of a finite atom: presentation on
        _positions, with the generators as elements and word(a) the least
        word of a, built on first call."""
        try:
            return self._presented
        except AttributeError:
            carrier, index, add = self._positions()
            gens, words, relations = presentation(add, index[self.zero], len(carrier))
            self._presented = [carrier[g] for g in gens], lambda a: words[index[a]], relations
            return self._presented

    # generating data: (k, the k-th greedy generator); None if not finitely generated
    def gens(self):
        return list(enumerate(self._presentation()[0])) if self.finite else None

    # a's word: how many times a adds up each generator of gens(), in their order
    def word(self, a):
        return self._presentation()[1](a)

    def relations(self):
        """Complete relation list among generators, as pairs of words."""
        return self._presentation()[2]

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

    def word(self, a):
        return (a,)

    def relations(self):
        return []

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

    def size(self):
        return self.n

    def add(self, a, b):
        return (a + b) % self.n

    def _presentation(self):
        """What the walk finds, in closed form, so C_n is never walked: 1
        with n·1 = 0, and the word a of a (C_1 has no generator)."""
        n = self.n
        return ([1], lambda a: (a,), [((n,), (0,))]) if n > 1 else ([], lambda a: (), [])

    def act(self, a, s):
        return (a * s) % self.n

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


def through(row, table, n):
    """The compact row of table[v] for each v of the compact row `row`, all
    positions below n: one translate while rows are bytes (table bytes too),
    else a list comprehension, faster than map on a list table."""
    if n > 256:
        return array("I", [table[v] for v in row])
    return row.translate(table.ljust(256, b"\0"))


def _closed(table, count, width, n, what):
    """table as count compact rows of width positions below n each."""
    try:  # a compact row holds no negative position
        rows = tuple(compact(row, n) for row in table)
    except (ValueError, OverflowError):
        rows = None
    if rows is None or len(rows) != count or any(len(row) != width or max(row, default=0) >= n for row in rows):
        raise FormatError(f"TABLE {what} not closed")
    return rows


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

    The addition comes in one of three forms:

    * a dict (a, b) -> a + b over every pair of elements.  The carrier is
      put in ordkey order, and the conversion checks, pair by pair in that
      order, that each sum is present and is an element, then that the dict
      has no other key;
    * a list of rows of positions into `elements`, taken in the given order.
      The conversion checks that there is one row of n positions in
      range(n) per element;
    * a presentations.Quotient, the Cayley graph of the saturation tensor's
      quotient walk, whose classes are `elements`: normal forms, tuples of
      ints of one length, whose ordkey order is tuple order.  Each of the
      n·|gens| steps is checked to be in range(n).  The rows are folded
      along the spanning tree on the first read of any of them, all at once
      (`_fold`, `_Unfolded`), and are closed, as the steps are; the
      cardinality and `elements()` read none.

    The zero is the first left identity in ordkey order; with a Quotient
    the class of 0, its first class (a monoid has one identity).  The action
    is a dict (element, base element) -> element, checked pair by pair in
    ordkey order, or rows of positions in carrier order (with a Quotient,
    one row per generator), for finite bases; None over NAT (iterated
    addition).  A left action s * a, given and checked the same way, is
    kept only if it differs from the action.
    """

    __slots__ = ("zero", "_index", "_carrier", "_elements", "_rows", "_act", "_left", "_graph")
    kind = "TABLE"

    def __init__(self, base, elements, add_table, action=None, left=None):
        self.base = base
        graph = isinstance(add_table, Quotient)
        if isinstance(add_table, dict):
            carrier = ordered = tuple(sorted_elems(elements))
        else:
            carrier = tuple(elements)
            ordered = tuple(sorted(carrier) if graph else sorted_elems(carrier))
            if ordered == carrier:
                ordered = carrier
        n, self._index, self._carrier, self._elements = len(carrier), None, carrier, ordered
        if graph:
            steps, self.zero = _closed(add_table.steps, n, len(add_table.steps[0]), n, "add"), carrier[0]
            rows_of = lambda table, what: _closed(table, len(steps[0]), len(base.elements), n, what)
        else:
            index = {e: i for i, e in enumerate(carrier)}
            if len(index) != n:
                raise FormatError("TABLE elements repeat")
            self._rows = self._rows_of(add_table, index, carrier, "add")
            # with every pair present, any further entry has a key outside the carrier
            if isinstance(add_table, dict) and len(add_table) != n ** 2:
                raise FormatError("TABLE add not closed")
            identity = compact(range(n), n)
            self.zero = next((z for z in ordered if self._rows[index[z]] == identity), _ABSENT)
            if self.zero is _ABSENT:
                raise FormatError("TABLE has no additive identity")
            rows_of = lambda table, what: self._rows_of(table, index, base.elements, what)
        if action is None:
            if base.name != "NAT":
                raise FormatError("TABLE without action table needs base NAT")
            act = left = None
        else:
            if base.elements is None:
                raise FormatError("TABLE action table needs a finite base")
            act = rows_of(action, "action")
            left = act if left is None else rows_of(left, "left action")
        if graph:
            self._graph = steps, add_table.parent, act, None if left == act else left
            self.__class__ = _Unfolded
        else:
            self._act, self._left = act, None if left == act else left

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
            return _closed(table, n, len(columns), n, what)
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

    def _fold(self):
        """The rows of the Cayley form, folded along its spanning tree.
        With class b reached as p + e_g, row b maps each a to the g-step
        from row p's a: the forms are convergent, so this is exact and
        rewrites nothing.  An action is additive, (p + e_g) s = p s + e_g s,
        so its rows fold along the same tree from the action on each
        generator, with 0 s = 0, the class of 0."""
        (steps, parent, *gen_acts), n = self._graph, len(self._carrier)
        tables = [(bytes if n <= 256 else list)(step) for step in zip(*steps)]  # tables[g][a]: the g-step from a
        rows = [compact(range(n), n)]
        for p, g in parent[1:]:
            rows.append(through(rows[p], tables[g], n))
        self._rows = tuple(rows)  # the graph stays: a concurrent first read may fold it again
        for slot, gen in zip(("_act", "_left"), gen_acts):
            act = None if gen is None else [compact([0] * len(self.base.elements), n)]
            for p, g in parent[1:] if act else ():
                act.append(compact([rows[a][b] for a, b in zip(act[p], gen[g])], n))
            setattr(self, slot, act and tuple(act))

    def elements(self):
        return list(self._elements)

    def add(self, a, b):
        index = self._index or self.index
        return self._carrier[self._rows[index[a]][index[b]]]

    def act(self, a, s):
        if self._act is None:
            return self.times_int(a, s)
        return self._carrier[self._act[(self._index or self.index)[a]][self.base.index[s]]]

    def act_left(self, s, a):
        if self._left is None:
            return self.act(a, s)
        return self._carrier[self._left[(self._index or self.index)[a]][self.base.index[s]]]

    def _positions(self):
        rows = self._rows
        return self._carrier, self.index, lambda i, j: rows[i][j]

    def describe(self):
        return {"kind": self.kind, "size": len(self._elements)}


class _Unfolded(TableAtom):
    """A TableAtom in the Cayley form before its rows are folded: the first
    read of _rows, _act or _left (slots still unset) folds them and makes
    the atom a plain TableAtom, whose reads have no __getattr__ to slow them."""

    __slots__ = ()

    def __getattr__(self, name):
        if name not in ("_rows", "_act", "_left"):
            raise AttributeError(name)
        self._fold()
        self.__class__ = TableAtom
        return getattr(self, name)


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
        (plus, times), digits, number = base.tables(), self.digits, self.number
        self.zero = number([base.index[base.zero]] * rank)
        if times == [[0, 0], [0, 1]] and plus in ([[0, 1], [1, 1]], [[0, 1], [1, 0]]):
            self.add = int.__or__ if plus[1][1] else int.__xor__
            self.act = self.act_left = int.__mul__
        else:
            self.add = lambda i, j: number([plus[a][b] for a, b in zip(digits(i), digits(j))])
            self.act = lambda i, k: number([times[a][k] for a in digits(i)])
            self.act_left = lambda i, k: number([times[k][a] for a in digits(i)])

    def number(self, digits):
        n = 0
        for d in digits:
            n = n * self.q + d
        return n

    def digits(self, i):
        out = [0] * self.rank
        for k in range(self.rank - 1, -1, -1):
            i, out[k] = divmod(i, self.q)
        return out

    def units(self):  # the positions of e_1, ..., e_rank
        one, zero = self.base.index[self.base.one], self.base.index[self.base.zero]
        return tuple(self.number([one if j == i else zero for j in range(self.rank)]) for i in range(self.rank))

    def position(self, x):
        """The position of the coefficient tuple x; None if x is not one."""
        if type(x) is not tuple or len(x) != self.rank:
            return None
        digits = list(map(self.base.index.get, x))
        return None if None in digits else self.number(digits)

    def element(self, i):
        return tuple(map(self.base.elements.__getitem__, self.digits(i)))


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

    def size(self):
        return len(self.base.elements) ** len(self.basis)

    def add(self, a, b):
        return tuple(map(self.base.add_memo.__getitem__, zip(a, b)))

    def act(self, a, s):
        return tuple(map(self.base.mul_memo.__getitem__, zip(a, repeat(s))))

    def act_left(self, s, a):
        return tuple(map(self.base.mul_memo.__getitem__, zip(repeat(s), a)))

    def unit(self, i, s=None):
        s = self.base.one if s is None else s
        return tuple(s if j == i else self.base.zero for j in range(len(self.basis)))

    # (S, +) presented in each coordinate: generator (i, k) is gens[k] e_i
    def gens(self):
        S = self.base
        gens = S.presentation()[0]
        return [((i, k), self.unit(i, S.elements[g])) for i in range(len(self.basis)) for k, g in enumerate(gens)]

    def word(self, a):
        words, index = self.base.presentation()[1], self.base.index
        return tuple(c for s in a for c in words[index[s]])

    def relations(self):  # each relation of (S, +) in each coordinate, padded with zeros
        gens, _, rels = self.base.presentation()
        r, g = len(self.basis), len(gens)
        return [tuple((0,) * (i * g) + w + (0,) * ((r - 1 - i) * g) for w in rel) for i in range(r) for rel in rels]

    def describe(self):
        return {"kind": self.kind, "basis": list(self.basis)}


def two_sided(atom):
    """Whether the atom's left action differs from its right one, the one
    test of a bimodule: a table with left rows of its own, or a free atom
    over a non-commutative base (s * x against x * s in each coordinate)."""
    if isinstance(atom, FreeAtom):
        times = atom.base.tables()[1]
        return any(row != list(col) for row, col in zip(times, zip(*times)))
    return isinstance(atom, TableAtom) and atom._left is not None
