"""Semimodules over a semiring: structured carriers, maps, congruences,
quotients, subtractive closure, hom enumeration and the exactness taxonomy.
"""
from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from .atoms import BoolAtom, CyclicAtom, FreeAtom, NatAtom, QmodzAtom, Radix, TableAtom, compact, greedy, through, two_sided
from .errors import FormatError, UndecidedError, UnsupportedError
from .presentations import DEFAULT_BUDGET
from .util import Record, Report, fs_eval, sorted_elems, times, unpreserved, unpreserved_rows

SAMPLES = 64  # sample size of the checks on effective carriers


class Semimodule:
    """Direct sum of atoms over a base semiring; elements are tuples, one
    coordinate per atom.  Both actions are the atoms'; atoms.two_sided
    says which atoms act differently on the left.
    """

    # attributes set after construction (basis, ...) go to __dict__
    __slots__ = ("base", "atoms", "name", "zero", "_elements", "_indexed", "__dict__")

    def __init__(self, base, atoms, name="M"):
        self.base = base
        self.atoms = tuple(atoms)
        self.name = name
        self.zero = tuple(a.zero for a in self.atoms)
        self._elements = None
        self._indexed = None

    @property
    def is_finite(self):
        return all(a.finite for a in self.atoms)

    def elements(self):
        if not self.is_finite:
            return None
        if self._elements is None:
            # each atom lists its elements in ordkey order, so their product
            # comes in ordkey (lexicographic) order; no atoms give [()]
            self._elements = list(itertools.product(*(a.elements() for a in self.atoms)))
        return self._elements

    def indexed(self):
        """The finite carrier on integer positions (see Indexed), built once;
        None if the carrier is infinite."""
        if not self.is_finite:
            return None
        if self._indexed is None:
            self._indexed = Indexed(self)
        return self._indexed

    def add(self, x, y):
        return tuple(a.add(u, v) for a, u, v in zip(self.atoms, x, y))

    def act(self, x, s):
        return tuple(a.act(u, s) for a, u in zip(self.atoms, x))

    def act_left(self, s, x):
        return tuple(a.act_left(s, u) for a, u in zip(self.atoms, x))

    def times_int(self, x, k):
        return times(self.add, self.zero, x, k)

    def sample(self, rng):
        out = []
        for a in self.atoms:
            if a.finite:
                out.append(rng.choice(a.elements()))
            else:
                out.append(a.sample(rng))
        return tuple(out)

    # -- generators and presentations ---------------------------------------

    def inject(self, i, v):
        """Module element with v in atom i and zero elsewhere."""
        return tuple(v if j == i else a.zero for j, a in enumerate(self.atoms))

    def gens(self):
        """Tagged generating set [(tag, element)]; None if not finitely generated."""
        out = []
        for i, a in enumerate(self.atoms):
            g = a.gens()
            if g is None:
                return None
            out.extend(((i, key), self.inject(i, v)) for key, v in g)
        return out

    def word(self, x):
        """x as a word in gens(): how many times it adds up each generator, in their order."""
        return tuple(c for a, v in zip(self.atoms, x) for c in a.word(v))

    def relations(self):
        """The atoms' relations, each side a word in gens() (zero off its atom)."""
        sizes = [len(a.gens()) for a in self.atoms]
        return [
            tuple((0,) * sum(sizes[:i]) + w + (0,) * sum(sizes[i + 1:]) for w in rel)
            for i, a in enumerate(self.atoms)
            for rel in a.relations()
        ]

    def __repr__(self):
        size = len(self.elements()) if self.is_finite else "effective"
        return f"<Semimodule {self.name} over {self.base.name} ({size})>"


class Indexed:
    """A finite semimodule M numbered by the integers below |M|, in the
    ordkey order of M.elements(): the one numbering of a finite carrier.

    of(x) is the position of x (None if x is not an element), element(i)
    the element at position i and zero the position of M.zero.  `elements`
    is M.elements() and `index` maps each element to its position.
    add[i][j] is the position of the sum of the elements at i and j, and
    act[i][k] and left[i][k] those of the element at i acted on by
    base.elements[k] on the right and on the left: compact rows
    (atoms.compact), the action rows empty over an infinite base.  plus,
    scale and scale_left are the same as functions of (i, j) and (i, k).

    A single free atom is numbered by its Radix (`radix`, None otherwise):
    the functions work digit by digit, and the listing, the index and the
    rows are built on first read, so a carrier as large as C (x) C of rank
    49 is never listed.  A single table atom brings its own rows, shared
    when its carrier is in ordkey order and renumbered otherwise.  Any
    other M is listed and its rows are computed on elements, as is a left
    action that no Radix gives; a sum or action outside the carrier raises
    FormatError.  `index` and `left` are built on first read.  The
    functions are methods, not closures: a hom search keeps hundreds of
    these per query.

    `coordinates`, built on first read, is the kernel's one certificate
    that M is free: (gens, digits) with c = sum gens[i] * base.elements[k_i]
    for (k_i) = digits(c), a module isomorphism S^n -> M; else None, as
    over an infinite base or for a bimodule (atoms.two_sided).  A single free
    atom gives its unit vectors and Radix digits over any finite base,
    listing nothing.  Any other M, over a commutative base, gives its
    greedy generators, positions that are no sum of two others first, if
    M -> S^n, gens[i] -> e_i, is bijective and preserves every row of the
    sum and the action: a table that breaks the laws is never certified.
    The gens commute with the scalars, so digits serve M (x)_S C = M^n.
    """

    __slots__ = ("module", "radix", "zero", "_elements", "_index", "_add", "_act", "_left", "_coordinates")

    def __init__(self, M):
        self.module, self.radix, self._coordinates = M, None, False
        self._elements = self._index = self._add = self._act = self._left = None
        atom = M.atoms[0] if len(M.atoms) == 1 else None
        if isinstance(atom, FreeAtom) and atom.base is M.base:
            self.radix = atom.radix
            self.zero = self.radix.zero
            return
        self._elements = els = M.elements()
        n = len(els)
        if isinstance(atom, TableAtom) and atom.base is M.base:
            rows, act = atom._rows, atom._act
            if atom._carrier is not atom._elements:  # renumber the carrier's rows in ordkey order
                at = [atom.index[e] for e in atom._elements]  # the carrier position of each position
                back = {p: i for i, p in enumerate(at)}
                rows = tuple(compact([back[rows[p][q]] for q in at], n) for p in at)
                act = None if act is None else tuple(compact([back[v] for v in act[p]], n) for p in at)
            self._add, self._act = rows, (b"",) * n if act is None else act
            self.zero = atom._elements.index(atom.zero)
            return
        self._index = index = {e: i for i, e in enumerate(els)}
        self.zero = index[M.zero]
        self._add = tuple(compact([self._at(M.add(x, y), x, "+", y) for y in els], n) for x in els)
        scalars = M.base.elements or ()
        self._act = tuple(compact([self._at(M.act(x, s), x, "*", s) for s in scalars], n) for x in els)

    # built on first read, by properties over private slots rather than a
    # __getattr__, which would slow every attribute read; a carrier is never
    # empty, so no built value is falsy
    elements = property(lambda self: self._elements or self._set("_elements", self.module.elements()))
    index = property(lambda self: self._index or self._set("_index", {e: i for i, e in enumerate(self.elements)}))
    add = property(lambda self: self._add or self._set("_add", self._rows(self.plus, len(self.elements))))
    act = property(lambda self: self._act or self._set("_act", self._rows(self.scale)))
    left = property(lambda self: self._left or self._set("_left", self._rows(self.scale_left)))

    def _set(self, slot, value):
        setattr(self, slot, value)
        return value

    @property
    def coordinates(self):
        if self._coordinates is False:
            self._coordinates = self._certified()
        return self._coordinates

    def _certified(self):
        M, S = self.module, self.module.base
        if S.elements is None:
            return None
        if self.radix is not None:  # S^r itself
            return self.radix.units(), self.radix.digits
        times = S.tables()[1]
        if any(map(two_sided, M.atoms)) or any(row != list(col) for row, col in zip(times, zip(*times))):
            return None  # a bimodule, or S is not commutative
        add, n = self.add, len(self.elements)
        sums = {s for x, row in enumerate(add) for y, s in enumerate(row) if s != x and s != y}  # no basis vectors
        gens, steps = greedy(self.plus, self.zero, sorted(range(n), key=sums.__contains__))
        if len(S.elements) ** len(gens) != n:
            return None
        free = Radix(S, len(gens))
        psi, units = [free.zero] * n, free.units()
        for y, x, k in steps:  # psi: M -> S^r sends gens[k] to e_k
            psi[y] = free.add(psi[x], units[k])
        if len(set(psi)) < n or unpreserved_rows(psi, add, free.add, psi):
            return None
        linear = unpreserved_rows(psi, self.act, free.act, psi, S.elements) is None
        return (tuple(gens), list(map(free.digits, psi)).__getitem__) if linear else None

    def _rows(self, op, cols=None):
        """Compact rows of op(i, k), one per position i, over k in range(cols),
        by default over the positions of base.elements."""
        n = len(self.elements)
        cols = len(self.module.base.elements or ()) if cols is None else cols
        return tuple(compact([op(i, k) for k in range(cols)], n) for i in range(n))

    def of(self, x):
        if self.radix is None:
            return (self._index or self.index).get(x)
        return self.radix.position(x[0]) if type(x) is tuple and len(x) == 1 else None

    def element(self, i):
        return self._elements[i] if self.radix is None else (self.radix.element(i),)

    @property
    def plus(self):
        return self._plus if self.radix is None else self.radix.add

    @property
    def scale(self):
        return self._scale if self.radix is None else self.radix.act

    @property
    def scale_left(self):
        return self._scale_left if self.radix is None else self.radix.act_left

    def _plus(self, i, j):  # a carrier without a Radix has its rows from the start
        return self._add[i][j]

    def _scale(self, i, k):
        return self._act[i][k]

    def _scale_left(self, i, k):
        """scale_left computed on elements."""
        s, x = self.module.base.elements[k], self.element(i)
        return self._at(self.module.act_left(s, x), s, "*", x)

    def _at(self, v, x, op, y):
        """The position of v = x op y, which must be an element."""
        i = self.of(v)
        if i is None:
            raise FormatError(f"{self.module.name}: {x!r} {op} {y!r} = {v!r} is not an element of the carrier")
        return i


def same_carrier(M, N):
    if M.base is not N.base or len(M.atoms) != len(N.atoms):
        return False
    if M.is_finite != N.is_finite:
        return False
    if M.is_finite:
        return M.elements() == N.elements()
    return [a.describe() for a in M.atoms] == [a.describe() for a in N.atoms]


# ---------------------------------------------------------------- builders

def zero_module(S, name="0"):
    return Semimodule(S, [], name=name)


def free_semimodule(S, n, name=None):
    """S^n with coordinatewise operations; rank 0 gives the zero module."""
    if n < 0:
        raise FormatError("rank must be >= 0")
    if n == 0:
        return zero_module(S)
    if S.is_finite:
        M = Semimodule(S, [FreeAtom(S, range(n))], name=name or f"{S.name}^{n}")
        M.basis = [((tuple(S.one if j == i else S.zero for j in range(n))),) for i in range(n)]
        return M
    if S.name == "NAT":
        M = Semimodule(S, [NatAtom(S) for _ in range(n)], name=name or f"NAT^{n}")
        M.basis = [M.inject(i, 1) for i in range(n)]
        return M
    raise UnsupportedError(f"free module over {S.name}")


def semiring_module(S):
    """S as a (bi)module over itself."""
    return free_semimodule(S, 1, name=S.name)


def scalar_of(M, x):
    """Inverse of the rank-1 free embedding: module element -> base element."""
    if len(M.atoms) != 1:
        raise FormatError("not a rank-1 module")
    a = M.atoms[0]
    if isinstance(a, FreeAtom) and len(a.basis) == 1:
        return x[0][0]
    if isinstance(a, NatAtom):
        return x[0]
    raise FormatError("not the base-as-module carrier")


def scalar_to(M, s):
    a = M.atoms[0]
    if isinstance(a, FreeAtom) and len(a.basis) == 1:
        return ((s,),)
    if isinstance(a, NatAtom):
        return (s,)
    raise FormatError("not the base-as-module carrier")


def cyclic_module(S, n, name=None):
    return Semimodule(S, [CyclicAtom(S, n)], name=name or f"Z/{n}")


def bool_module(S, name="B"):
    return Semimodule(S, [BoolAtom(S)], name=name)


def qmodz_module(S, name="Q/Z"):
    return Semimodule(S, [QmodzAtom(S)], name=name)


def table_module(S, elements, add_table, action=None, name="T"):
    return Semimodule(S, [TableAtom(S, elements, add_table, action)], name=name)


def retable_module(M, new_base, action_raw, name=None, left=None):
    """Same single-table carrier as M, re-based with a new raw-level action
    (and left action, see TableAtom): the new table keeps M's carrier and
    sum rows.  Element shapes are preserved, so inclusions between the two
    are identities."""
    if len(M.atoms) != 1 or not isinstance(M.atoms[0], TableAtom):
        raise FormatError("retable needs a single-table carrier")
    ta = M.atoms[0]
    return Semimodule(new_base, [TableAtom(new_base, ta._carrier, ta._rows, action_raw, left)], name=name or M.name)


def right_module(M):
    """M without its left action: a two-sided single atom as the table of
    its own elements, sum rows and action rows; any other M as it is."""
    if len(M.atoms) != 1 or not two_sided(M.atoms[0]):
        return M
    ix = M.indexed()
    return Semimodule(M.base, [TableAtom(M.base, [e[0] for e in ix.elements], ix.add, ix.act)], name=M.name)


def _read_table(M, reps, to, elements, name):
    """The table module on `elements`, the k-th standing for M's position
    reps[k], whose rows are M.indexed()'s read through `to`, the new
    position of each position of M (-1 off the carrier, which the table
    refuses): sums and actions, and left actions when an atom of M is
    two-sided."""
    ix = M.indexed()
    rows = [[to[ix.add[r][q]] for q in reps] for r in reps]
    action = None if M.base.elements is None else [[to[j] for j in ix.act[r]] for r in reps]
    left = [[to[j] for j in ix.left[r]] for r in reps] if any(map(two_sided, M.atoms)) else None
    return Semimodule(M.base, [TableAtom(M.base, elements, rows, action, left)], name=name)


def sub_table(M, members, name, raw=lambda m: m):
    """The submodule of a finite M on the given members, as a table module
    on the raw elements raw(m): by default M's own, so that the table's
    elements wrap them in a 1-tuple.  Read from M's rows (_read_table): a
    sum or action outside the members raises the table's FormatError, and
    so does missing M's zero, which no action row asks for over an
    infinite base."""
    ix = M.indexed()
    pos = sorted(ix.index[m] for m in members)
    local = {p: k for k, p in enumerate(pos)}
    to = [local.get(i, -1) for i in range(len(ix.elements))]
    E = _read_table(M, pos, to, [raw(ix.elements[p]) for p in pos], name)
    if ix.index[M.zero] not in local:
        raise FormatError("TABLE misses the zero")
    return E


def direct_sum(mods, name=None):
    """Componentwise structure with atoms concatenated; returns the sum plus
    injection and projection maps."""
    if not mods:
        raise FormatError("direct sum of nothing")
    base = mods[0].base
    if any(m.base is not base for m in mods):
        raise FormatError("direct sum needs a common base semiring")
    atoms = [a for m in mods for a in m.atoms]
    out = Semimodule(base, atoms, name=name or "(+)".join(m.name for m in mods))
    offs = []
    o = 0
    for m in mods:
        offs.append(o)
        o += len(m.atoms)
    injections, projections = [], []
    for idx, m in enumerate(mods):
        lo, hi = offs[idx], offs[idx] + len(m.atoms)

        def inj(x, lo=lo, hi=hi):
            return tuple(
                x[i - lo] if lo <= i < hi else a.zero for i, a in enumerate(out.atoms)
            )

        def proj(y, lo=lo, hi=hi):
            return tuple(y[lo:hi])

        injections.append(LinearMap(m, out, inj, name=f"inj{idx}"))
        projections.append(LinearMap(out, m, proj, name=f"proj{idx}"))
    return out, injections, projections


# ---------------------------------------------------------------- linear maps

class LinearMap:
    """Additive, action-preserving map; for finite sources the graph is stored."""

    def __init__(self, source, target, fn, name=None, check=False):
        self.source = source
        self.target = target
        self.name = name or "f"
        if source.is_finite:
            self.mapping = {x: fn(x) for x in source.elements()}
            self.fn = self.mapping.__getitem__
        else:
            self.mapping = None
            self.fn = fn
        if check:
            rep = self.check()
            if not rep.ok:
                raise FormatError(f"{self.name}: not linear: {rep.first_witness()}")

    def __call__(self, x):
        return self.fn(x)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.mapping is None or other.mapping is None:
            return NotImplemented
        return self.mapping == other.mapping

    def check(self) -> Report:
        """Images in a finite target, then linearity: exhaustive on finite
        sources, sampled otherwise."""
        M, N, f = self.source, self.target, self.fn
        rep = Report(f"linear {self.name}")
        if M.is_finite:
            xs = M.elements()
            pairs = ((x, y) for x in xs for y in xs)
            scalars = M.base.elements
            if scalars is None:
                scalars = range(0, 8)
                rep.sampled = True
            actions = ((x, s) for x in xs for s in scalars)
        else:
            rng = random.Random(0)
            rep.sampled = True
            pairs = [(M.sample(rng), M.sample(rng)) for _ in range(SAMPLES)]
            xs = [x for pair in pairs for x in pair]
            actions = zip((x for x, _ in pairs), M.base.sample_elements(rng, SAMPLES))
        if N.is_finite:
            targets = set(N.elements())
            w = next((x for x in xs if f(x) not in targets), None)
            rep.add("codomain", w is None, w)
        rep.add("zero", f(M.zero) == N.zero, M.zero)
        w = unpreserved(f, M.add, N.add, pairs)
        rep.add("additive", w is None, w)
        w = unpreserved(f, M.act, N.act, actions, scalar=True)
        rep.add("action", w is None, w)
        return rep

    def __repr__(self):
        return f"<LinearMap {self.name}: {self.source.name} -> {self.target.name}>"


def identity_map(M):
    return LinearMap(M, M, lambda x: x, name="id")


def zero_map(M, N):
    return LinearMap(M, N, lambda x: N.zero, name="0")


# ---------------------------------------------------------------- subobjects

class Subsemimodule(Record):
    """A subsemimodule: its elements (a frozenset) and generators.  With
    elements=None the generators are every element, read on first use."""

    __slots__ = ("ambient", "_elements", "generators")
    _fields = ("ambient", "elements", "generators")

    def __init__(self, ambient, elements, generators=()):
        self.ambient, self._elements, self.generators = ambient, elements, generators

    @property
    def elements(self):
        if self._elements is None:
            self._elements = frozenset(self.generators)
        return self._elements

    def __repr__(self):
        return f"<Sub {len(self.elements)} of {self.ambient.name}>"


def span(M, gens):
    """Smallest subsemimodule of a finite M containing gens.

    Semi-naive closure: each pass adds only the elements found in the pass
    before to the set, in both orders, and acts only on them, so every
    ordered sum and every action is computed once, |span|² + |span|·|S| in
    all.  Stops at the first pass that finds nothing new.
    """
    if not M.is_finite:
        raise UnsupportedError("span needs a finite ambient")
    scalars = M.base.elements or ()
    cur = {M.zero, *gens}
    old, new = [], list(cur)
    while new:
        found = set()
        for x in new:
            for y in old:
                found.add(M.add(x, y))
                found.add(M.add(y, x))
            for y in new:
                found.add(M.add(x, y))
            for s in scalars:
                found.add(M.act(x, s))
        old += new
        new = list(found - cur)
        cur.update(new)
    return Subsemimodule(M, frozenset(cur), tuple(gens))


def subtractive_closure(L: Subsemimodule) -> Subsemimodule:
    """{g : g + l' = l'' for some l', l'' in L}; one pass suffices."""
    M = L.ambient
    if not M.is_finite:
        raise UnsupportedError("closure needs a finite ambient")
    sums = {}
    for l2 in L.elements:
        sums[l2] = True
    closed = set(L.elements)
    for g in M.elements():
        if g in closed:
            continue
        if any(M.add(g, l1) in sums for l1 in L.elements):
            closed.add(g)
    return Subsemimodule(M, frozenset(closed), tuple(L.generators))


def is_subtractive(L: Subsemimodule) -> bool:
    return subtractive_closure(L).elements == L.elements


def _members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def enumerate_submodules(M, cap=4096):
    """All subsemimodules of a finite module, by Close-by-One (Kuznetsov,
    A fast algorithm for computing all intersections of objects in a finite
    semi-lattice, 1993).

    Elements are the positions of M.indexed() (the ordkey order) and a
    submodule is an int bitmask.  The walk starts from span{0}; a submodule
    L reached by adding position e0 tries only the positions e > e0 outside
    L, and keeps span(L + e) only if that span adds no position below e
    (the canonicity test), so each submodule is reached once, from its
    canonical parent, and none is looked up in a seen-set.  Each try is one
    frontier-only closure of L | e: a popped element x is added to every
    member in both orders and acted on by every scalar, through bit tables
    read off the indexed rows: sums[x][y] has the bits of x + y and y + x,
    acts[x] those of every x * s.  L is closed already, so a try costs
    |span(L + e) \\ L| · |span(L + e)| table lookups.  Raises
    UnsupportedError once more than cap submodules turn up.  The result is
    sorted by (size, member indices), i.e. (size, ordkey order).
    """
    ix = M.indexed()
    els = ix.elements
    sums = [[1 << a | 1 << b for a, b in zip(row, col)] for row, col in zip(ix.add, zip(*ix.add))]
    acts = [sum(1 << j for j in set(row)) for row in ix.act]

    def close(mask, members, e):
        mask |= 1 << e
        members = members + [e]
        frontier = [e]
        while frontier:
            x = frontier.pop()
            row = sums[x]
            hit = acts[x]
            for y in members:
                hit |= row[y]
            for y in _members(hit & ~mask):
                mask |= 1 << y
                members.append(y)
                frontier.append(y)
        return mask, members

    zero, members = close(0, [], ix.zero)
    found, stack = [zero], [(zero, members, -1)]
    while stack:
        mask, members, last = stack.pop()
        for e in range(last + 1, len(els)):
            if mask >> e & 1:
                continue
            bigger, more = close(mask, members, e)
            if (bigger ^ mask) & ((1 << e) - 1):  # not canonical: found from a smaller e
                continue
            if len(found) >= cap:
                raise UnsupportedError("submodule lattice exceeds the cap")
            found.append(bigger)
            stack.append((bigger, more, e))
    out = []
    for members in sorted((_members(m) for m in found), key=lambda ms: (len(ms), ms)):
        out.append(Subsemimodule(M, None, tuple(els[i] for i in members)))
    return out


# ---------------------------------------------------------------- congruences

class Congruence(Record):
    """kind: modL, bracketL or custom; witness: the subsemimodule L if any;
    classes: frozensets by their least element; class_of: element -> class."""

    _fields = ("ambient", "kind", "witness", "classes", "class_of")

    def __init__(self, ambient, kind, witness, classes, class_of):
        self.ambient, self.kind, self.witness, self.classes, self.class_of = ambient, kind, witness, classes, class_of


def _generated(M, kind, witness, pairs):
    """The smallest module congruence on a finite M containing the given
    pairs of positions of M.indexed().

    Integer union-find (Tarjan 1975) whose root is the least position of its
    class: each union of a with b queues (a + c, b + c) for every c and
    (a * s, b * s) for every scalar s, so the relation the unions generate is
    closed under both.
    """
    ix = M.indexed()
    parent = list(range(len(ix.elements)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    todo = list(pairs)
    while todo:
        a, b = todo.pop()
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            todo.extend(zip(ix.add[a], ix.add[b]))
            todo.extend(zip(ix.act[a], ix.act[b]))
    groups = {}  # keyed by root, the least position, met first in position order
    for i, e in enumerate(ix.elements):
        groups.setdefault(find(i), []).append(e)
    classes = [frozenset(g) for g in groups.values()]
    class_of = {e: c for c in classes for e in c}
    return Congruence(M, kind, witness, classes, class_of)


def _mod_pairs(L):
    """(m, m + l) for every m of the ambient and l of L."""
    ix = L.ambient.indexed()
    ls = [ix.index[l] for l in L.elements]
    return ((m, row[l]) for m, row in enumerate(ix.add) for l in ls)


def congruence_mod(L: Subsemimodule) -> Congruence:
    """m1 ~ m2 iff m1 + l1 = m2 + l2 for some l1, l2 in L: generated by the
    pairs (m, m + l)."""
    return _generated(L.ambient, "modL", L, _mod_pairs(L))


def congruence_bracket(L: Subsemimodule) -> Congruence:
    """m1 ~ m2 iff m1 + l1 + m' = m2 + l2 + m' for some l1, l2 in L, m' in M.

    The slack m' is shared between the two sides.  Generated by the pairs of
    congruence_mod(L) and every x, y with x + m' = y + m' for some m'.
    """
    ix = L.ambient.indexed()

    def cancel_pairs():
        for c in range(len(ix.elements)):
            first = {}  # position of a sum x + c -> the first such x
            for x, row in enumerate(ix.add):
                yield first.setdefault(row[c], x), x

    return _generated(L.ambient, "bracketL", L, itertools.chain(_mod_pairs(L), cancel_pairs()))


def module_congruence_closure(M, pairs):
    """Smallest module congruence containing the given element pairs."""
    index = M.indexed().index
    return _generated(M, "custom", None, [(index[a], index[b]) for a, b in pairs])


def _class_ids(c: Congruence):
    """Each position's class number in c.classes, and each class's least position."""
    index = c.ambient.indexed().index
    cid = [0] * len(index)
    for k, cls in enumerate(c.classes):
        for e in cls:
            cid[index[e]] = k
    return cid, [min(index[e] for e in cls) for cls in c.classes]


def congruence_is_compatible(c: Congruence):
    """Check compatibility with +, the action and, when an atom of the
    ambient is two-sided, the left action; returns (ok, witness)."""
    M = c.ambient
    ix = M.indexed()
    els = ix.elements
    cid, _ = _class_ids(c)
    scalars = M.base.elements
    left = any(map(two_sided, M.atoms))
    for cls in c.classes:
        a, *rest = sorted(ix.index[e] for e in cls)
        for b in rest:
            for x, (u, v) in enumerate(zip(ix.add[a], ix.add[b])):
                if cid[u] != cid[v]:
                    return False, (els[a], els[b], els[x])
            if scalars is None:  # element-level, over the first naturals
                acts = ((s, ix.index[M.act(els[a], s)], ix.index[M.act(els[b], s)]) for s in range(0, 6))
            else:
                acts = zip(scalars, ix.act[a], ix.act[b])
            for s, u, v in acts:
                if cid[u] != cid[v]:
                    return False, (els[a], els[b], s)
            for s, u, v in zip(scalars, ix.left[a], ix.left[b]) if left else ():
                if cid[u] != cid[v]:
                    return False, (s, els[a], els[b])
    return True, None


def quotient_by_congruence(M, c: Congruence):
    """Quotient module plus the (surjective) projection; each class is
    represented by its least element and the table is read from M's rows
    (_read_table).  A custom congruence, or any on a two-sided M, is checked
    first: span and congruence_mod close under the right action only."""
    if c.kind == "custom" or any(map(two_sided, M.atoms)):
        ok, w = congruence_is_compatible(c)
        if not ok:
            raise FormatError(f"congruence not compatible, witness {w}")
    ix = M.indexed()
    els = ix.elements
    cid, reps = _class_ids(c)
    Q = _read_table(M, reps, cid, [els[r] for r in reps], f"{M.name}/~")
    pi = LinearMap(M, Q, lambda x: (els[reps[cid[ix.index[x]]]],), name="pi")
    return Q, pi


def quotient_by_sub(M, L: Subsemimodule):
    return quotient_by_congruence(M, congruence_mod(L))


def cancellative_reflection(M):
    """Universal cancellative quotient M -> M/[~]_{0}; projection returned too."""
    if not M.is_finite:
        if all(not isinstance(a, BoolAtom) for a in M.atoms) and all(
            not isinstance(a, TableAtom) for a in M.atoms
        ):
            # NAT, CYCLIC, QMODZ atoms are already cancellative
            return M, identity_map(M)
        raise UnsupportedError("cancellative reflection of this effective carrier")
    L = span(M, [])
    c = congruence_bracket(L)
    Q, pi = quotient_by_congruence(M, c)
    Q.name = f"c({M.name})"
    return Q, pi


def is_cancellative(M):
    els = M.elements()
    for a in els:
        for b in els:
            for c in els:
                if M.add(a, b) == M.add(a, c) and b != c:
                    return False, (a, b, c)
    return True, None


# ---------------------------------------------------------------- axiom check

def _nonassociative(ix):
    """The first (x, y, z) of positions of ix, in order, with (x + y) + z !=
    x + (y + z), or None.  Light's test decides the law (Clifford & Preston,
    The Algebraic Theory of Semigroups, 1961, §1.2): every element is a
    left-nested sum of zero and the greedy generators, so the law holds if
    it holds with y one of those, |M|·|gens| row reads.  Only a table that
    fails is scanned for its first triple, a row of z at a time."""
    add, n = ix.add, len(ix.elements)
    gens = greedy(ix.plus, ix.zero, range(n))[0] + [ix.zero]
    if all(add[add[x][g]] == through(add[g], add[x], n) for x in range(n) for g in gens):
        return None
    x, y = next((x, y) for x in range(n) for y in range(n) if add[add[x][y]] != through(add[y], add[x], n))
    lhs, rhs = add[add[x][y]], through(add[y], add[x], n)
    return x, y, next(z for z in range(n) if lhs[z] != rhs[z])


def check_semimodule_axioms(M) -> Report:
    rep = Report(f"semimodule {M.name}")
    rng = random.Random(0)
    if M.is_finite:
        els = M.elements()
        pairs = [(x, y) for x in els for y in els]
    else:
        rep.sampled = True
        els = [M.sample(rng) for _ in range(SAMPLES)] + [M.zero]
        pairs = [(M.sample(rng), M.sample(rng)) for _ in range(SAMPLES)]
    if M.base.elements is not None:
        scalars = list(M.base.elements)
        spairs = [(s, t) for s in scalars for t in scalars]
    else:
        rep.sampled = True
        scalars = list(range(0, 6)) + [rng.randrange(0, 32) for _ in range(8)]
        spairs = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(SAMPLES)]

    w = next(((x, y) for x, y in pairs if M.add(x, y) != M.add(y, x)), None)
    rep.add("add-commutative", w is None, w)
    w = next(((x,) for x in els if M.add(x, M.zero) != x), None)
    rep.add("add-identity", w is None, w)
    if M.is_finite:
        w = _nonassociative(M.indexed())
        w = w and tuple(map(els.__getitem__, w))
    else:
        triples = ((x, y, z) for (x, y) in pairs[: 64 * 64] for z in els[:8])
        w = next(((x, y, z) for x, y, z in triples if M.add(M.add(x, y), z) != M.add(x, M.add(y, z))), None)
    rep.add("add-associative", w is None, w)

    w = next(((x,) for x in els if M.act(x, M.base.one) != x), None)
    rep.add("act-one", w is None, w)
    w = next(((x,) for x in els if M.act(x, M.base.zero) != M.zero), None)
    rep.add("act-zero-scalar", w is None, w)
    w = next(((s,) for s in scalars if M.act(M.zero, s) != M.zero), None)
    rep.add("act-zero-element", w is None, w)
    w = next(
        (
            (x, s, t)
            for x in els
            for s, t in spairs
            if M.act(x, M.base.add(s, t)) != M.add(M.act(x, s), M.act(x, t))
        ),
        None,
    )
    rep.add("act-distributes-scalar", w is None, w)
    w = next(
        (
            (x, y, s)
            for x, y in pairs
            for s in scalars
            if M.act(M.add(x, y), s) != M.add(M.act(x, s), M.act(y, s))
        ),
        None,
    )
    rep.add("act-distributes-element", w is None, w)
    w = next(
        (
            (x, s, t)
            for x in els
            for s, t in spairs
            if M.act(x, M.base.mul(s, t)) != M.act(M.act(x, s), t)
        ),
        None,
    )
    rep.add("act-associative", w is None, w)
    return rep


# ---------------------------------------------------------------- predicates

def image(f: LinearMap) -> Subsemimodule:
    els = f.source.elements()
    return Subsemimodule(f.target, frozenset(f(x) for x in els))


def kernel(f: LinearMap) -> Subsemimodule:
    els = f.source.elements()
    return Subsemimodule(f.source, frozenset(x for x in els if f(x) == f.target.zero))


def cokernel(f: LinearMap):
    """Coker(f) = target / congruence mod the image."""
    return quotient_by_sub(f.target, image(f))


def k_uniform(f: LinearMap):
    """f(m) = f(m') implies m + k = m' + k' for kernel elements k, k'."""
    M = f.source
    ker = sorted_elems(kernel(f).elements)
    els = M.elements()
    by_val = {}
    for x in els:
        by_val.setdefault(f(x), []).append(x)
    for xs in by_val.values():
        for m, mp in itertools.combinations(xs, 2):
            shifted_m = {M.add(m, k) for k in ker}
            if not any(M.add(mp, k2) in shifted_m for k2 in ker):
                return False, (m, mp)
    return True, None


def map_predicates(f: LinearMap) -> dict:
    M, N = f.source, f.target
    if not (M.is_finite and N.is_finite):
        raise UnsupportedError("map predicates need finite source and target")
    els = M.elements()
    out = {}
    seen = {}
    w = None
    for x in els:
        y = f(x)
        if y in seen:
            w = (seen[y], x)
            break
        seen[y] = x
    out["injective"], out["injective_witness"] = w is None, w
    img = image(f)
    missing = next((y for y in N.elements() if y not in img.elements), None)
    out["surjective"], out["surjective_witness"] = missing is None, missing
    closed = subtractive_closure(img)
    extra = next(iter(sorted_elems(closed.elements - img.elements)), None)
    out["i_uniform"], out["i_uniform_witness"] = extra is None, extra
    ku, kw = k_uniform(f)
    out["k_uniform"], out["k_uniform_witness"] = ku, kw
    out["uniform"] = out["i_uniform"] and out["k_uniform"]
    return out


def induced_first_iso(f: LinearMap):
    """The induced map source/Ker(f) -> image; bijective iff f is k-uniform."""
    Q, pi = quotient_by_sub(f.source, kernel(f))
    mapping = {}
    ok = True
    for x in f.source.elements():
        q = pi(x)
        if q in mapping and mapping[q] != f(x):
            ok = False
        mapping.setdefault(q, f(x))
    if not ok:
        raise FormatError("first-iso map not well defined")  # cannot happen
    img = image(f)
    injective = len(set(mapping.values())) == len(mapping)
    surjective = set(mapping.values()) == set(img.elements)
    return Q, mapping, injective and surjective


# ---------------------------------------------------------------- exactness

MODES = ("exact", "semi", "proper", "quasi")


def joint_verdict(f: LinearMap, g: LinearMap, mode="exact"):
    """Verdict at one joint X -f-> Y -g-> Z."""
    if mode not in MODES:
        raise FormatError(f"unknown exactness mode {mode}")
    img = image(f)
    ker = kernel(g)
    closure = subtractive_closure(img)
    ku, kw = k_uniform(g)
    detail = {
        "image_eq_kernel": img.elements == ker.elements,
        "closure_eq_kernel": closure.elements == ker.elements,
        "g_k_uniform": ku,
    }
    if mode == "exact":
        ok = detail["image_eq_kernel"] and ku
    elif mode == "semi":
        ok = detail["closure_eq_kernel"]
    elif mode == "proper":
        ok = detail["image_eq_kernel"]
    else:
        ok = detail["closure_eq_kernel"] and ku
    return ok, detail


def exactness_check(seq, mode="exact"):
    """Per-joint diagnosis of a composable sequence of maps."""
    for a, b in zip(seq, seq[1:]):
        if a.target is not b.source and not same_carrier(a.target, b.source):
            raise FormatError("sequence not composable")
    joints = []
    ok = True
    for i, (f, g) in enumerate(zip(seq, seq[1:])):
        jok, detail = joint_verdict(f, g, mode)
        joints.append({"at": f.target.name, "ok": jok, **detail})
        ok = ok and jok
    return ok, joints


def short_exact_sequence(L: Subsemimodule):
    """0 -> closure(L) -> M -> M/L -> 0 as a map list."""
    M = L.ambient
    Lmod = sub_table(M, subtractive_closure(L).elements, name="Lbar")
    iota = LinearMap(Lmod, M, lambda x: x[0], name="iota")
    Q, pi = quotient_by_sub(M, L)
    Z0 = zero_module(M.base)
    return [zero_map(Z0, Lmod), iota, pi, zero_map(Q, Z0)]


# ---------------------------------------------------------------- hom sets

def hom_enumerate(M, N):
    """All linear maps M -> N for finite M; N finite or with solvable atoms.

    The search runs on positions (_homs, _hom_positions).  The maps come in
    the ordkey order of their images on M.elements(), named h0, h1, ... in
    that order.
    """
    _, nels, homs = _homs(M, N)
    return [_hom_map(M, N, nels, f, i) for i, f in enumerate(homs)]


def _homs(M, N):
    """Hom(M, N) for finite M as (T, nels, homs): the finite module T the
    search runs in (N when it is finite, otherwise the image hull of M in N,
    _image_hull), the element of N at each position of T, and the sorted
    position tuples _hom_positions(M, T)."""
    if not M.is_finite:
        raise UnsupportedError("hom enumeration needs a finite source")
    if N.is_finite:
        return N, N.elements(), _hom_positions(M, N)
    T = _image_hull(M, N)
    return T, [h for (h,) in T.elements()], _hom_positions(M, T)


def _hom_map(M, N, nels, f, i):
    """The LinearMap h{i}: M -> N sending each element of M to the element
    of nels at its position in the tuple f."""
    return LinearMap(M, N, dict(zip(M.elements(), map(nels.__getitem__, f))).__getitem__, name=f"h{i}")


def _generator_walk(mx):
    """For the greedy generators gens of an indexed carrier: each one's
    cyclic constraint (i + p, i), with (i + p)g = ig, and the steps
    (y, x, k) with y = x + gens[k] that first reach each non-zero position
    in the walk of atoms.greedy, so every x comes before the steps from
    it."""
    add, zero = mx.add, mx.zero
    gens, steps = greedy(mx.plus, zero, range(len(mx.elements)))
    constraints = []
    for g in gens:
        seen, cur = {}, zero
        while cur not in seen:
            seen[cur] = len(seen)
            cur = add[cur][g]
        constraints.append((len(seen), seen[cur]))
    return constraints, steps


def _image_hull(M, N):
    """For finite M and infinite N (base NAT): the submodule of N that every
    linear map M -> N lands in, as a table module on N's elements in ordkey
    order.  Each greedy generator of M, with cyclic constraint (hi, lo),
    goes to a t with hi*t = lo*t atom by atom (Atom.solve_mult), and every
    element of M is a sum of generators, so the hull is the closure of those
    solutions under N.add; over NAT it is also closed under the action.  As
    every solution set holds its atom's zero, the hull is the product of
    the atoms' own closures, and its sums are read off theirs."""
    constraints, _ = _generator_walk(M.indexed())
    carrier, rows = [()], [[0]]  # the sum of no atoms
    for a in N.atoms:
        solutions = [a.solve_mult(hi, lo) for hi, lo in constraints]
        if None in solutions:
            raise UnsupportedError(f"hom target atom {a.kind} admits infinitely many images")
        hull = {a.zero}.union(*solutions)
        gens, sums = list(hull), list(hull)
        for x in sums:  # grows while it is walked: the closure under a.add
            new = {a.add(x, g) for g in gens} - hull
            hull |= new
            sums.extend(new)
        els = sorted_elems(hull)
        index = {e: i for i, e in enumerate(els)}
        table = [[index[a.add(x, y)] for y in els] for x in els]
        n = len(els)
        carrier = [c + (e,) for c in carrier for e in els]
        rows = [[p * n + q for p in row for q in arow] for row in rows for arow in table]
    return table_module(N.base, carrier, rows, name=f"hull({M.name},{N.name})")


def _hom_positions(M, N):
    """Hom(M, N) for finite M and N as tuples of N-positions, one per
    position of M, sorted: N.elements() is in ordkey order, so this is the
    ordkey order of the images.  Sums and actions are read off the rows of
    M.indexed() and N.indexed().

    Generators are the greedy ones of M.indexed(), in element order, and
    their images are pruned by each generator's cyclic constraint: with
    (i + p)g = ig, an image t needs (i + p)t = it.  Every other element's
    image is folded along the step x -> x + g by which the greedy walk of
    atoms.greedy first reached it, and a candidate is kept if it is
    additive and preserves the action.  A free source (Indexed.coordinates)
    instead folds the sum of basis image * digit over its non-zero digits,
    in order: every assignment of basis images extends uniquely, so it
    needs no check.  The candidates are counted before any is built, and
    more than DEFAULT_BUDGET of them raise UndecidedError.
    """
    mx, nx = M.indexed(), N.indexed()
    madd, nadd, nact, nzero = mx.add, nx.add, nx.act, nx.zero
    S = M.base
    free = mx.coordinates
    if free:
        cands = [range(len(nx.elements))] * len(free[0])
    else:
        constraints, steps = _generator_walk(mx)
        plus = lambda i, j: nadd[i][j]
        allowed = {  # the images each distinct cyclic constraint allows, found once
            (hi, lo): [t for t in range(len(nx.elements)) if times(plus, nzero, t, hi) == times(plus, nzero, t, lo)]
            for hi, lo in set(constraints)
        }
        cands = [allowed[c] for c in constraints]
    count = math.prod(map(len, cands))
    if count > DEFAULT_BUDGET:
        raise UndecidedError(f"hom search {M.name} -> {N.name}: {count} candidates, above the cap {DEFAULT_BUDGET}")
    out = []
    if free:
        terms = [[(i, k) for i, k in enumerate(free[1](x)) if k != S.index[S.zero]] for x in range(len(mx.elements))]
        for images in itertools.product(*cands):
            f = []
            for t in terms:
                acc = nzero
                for i, k in t:
                    acc = nadd[acc][nact[images[i]][k]]
                f.append(acc)
            out.append(tuple(f))
        out.sort()
        return out
    # over NAT additivity implies linearity; otherwise act columns are base.elements
    acts = [] if S.elements is None else list(enumerate(mx.act))
    f = [nzero] * len(mx.elements)
    for images in itertools.product(*cands):
        for y, x, k in steps:
            f[y] = nadd[f[x]][images[k]]
        get = f.__getitem__  # f[x + y] == f[x] + f[y], then f[x * s] == f[x] * s, a row at a time
        if any(list(map(get, row)) != list(map(nadd[f[x]].__getitem__, f)) for x, row in enumerate(madd)):
            continue
        if any(list(map(get, row)) != list(nact[f[x]]) for x, row in acts):
            continue
        out.append(tuple(f))
    out.sort()
    return out


def hom_module(M, N):
    """The hom set as a module under pointwise addition and action, summed
    and acted on along the position tuples of the hom search (_homs)."""
    T, nels, homs = _homs(M, N)
    tx = T.indexed()
    index = {f: i for i, f in enumerate(homs)}

    def closed(k, what):
        i = index.get(k)
        if i is None:
            raise FormatError(f"hom set not closed under {what}")
        return i

    add = [[closed(tuple(tx.add[x][y] for x, y in zip(f, g)), "addition") for g in homs] for f in homs]
    action = None
    if N.base.elements is not None:
        action = [[closed(tuple(tx.act[x][s] for x in f), "action") for s in range(len(N.base.elements))] for f in homs]
    keys = [tuple(map(nels.__getitem__, f)) for f in homs]
    return table_module(N.base, keys, add, action, name=f"Hom({M.name},{N.name})")


# ---------------------------------------------------------------- dual basis

def dual_basis_projectivity(P, pairs):
    """Verify p = sum p_i * f_i(p) for all p; pairs are (element, functional)."""
    S = P.base
    SM = pairs[0][1].target if pairs else semiring_module(S)
    for p in P.elements():
        if fs_eval(P, ((P.act(pl, scalar_of(SM, fl(p))), 1) for pl, fl in pairs)) != p:
            return False, p
    return True, None


def search_dual_basis(P, bound=3):
    """Enumerate candidate dual bases up to the size bound; None if absent."""
    SM = semiring_module(P.base)
    functionals = hom_enumerate(P, SM)
    zero_f = [f for f in functionals if all(f(p) == SM.zero for p in P.elements())]
    cands = [
        (p, f)
        for p in P.elements()
        if p != P.zero
        for f in functionals
        if f not in zero_f
    ]
    for r in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(cands, r):
            ok, _ = dual_basis_projectivity(P, list(combo))
            if ok:
                return list(combo)
    return None


# ---------------------------------------------------------------- isomorphism

def find_isomorphism(M, N):
    """Explicit witness map or None; cardinality alone never decides."""
    if not (M.is_finite and N.is_finite):
        raise UnsupportedError("witness search needs finite modules")
    if len(M.elements()) != len(N.elements()):
        return None
    for i, f in enumerate(_hom_positions(M, N)):
        if len(set(f)) == len(f):
            return _hom_map(M, N, N.elements(), f, i)
    return None


# ---------------------------------------------------------------- enumeration

@lru_cache(maxsize=None)
def _commutative_monoids(size):
    """Canonical add tables of commutative monoids on {0..size-1}, 0 = identity,
    packed as tuples of rows (table[i][j] is i + j), in sorted order."""
    idx = range(size)
    cells = [(i, j) for i in range(1, size) for j in range(i, size)]
    results = set()
    for values in itertools.product(idx, repeat=len(cells)):
        tab = dict(zip(cells, values))
        full = [[j if i == 0 else i if j == 0 else tab[min(i, j), max(i, j)] for j in idx] for i in idx]
        if all(full[full[a][b]][c] == full[a][full[b][c]] for a in idx for b in idx for c in idx):
            results.add(_module_iso_key(0, full, [()] * size)[0])
    return sorted(results)


def _additive_endos(size, table):
    els = list(range(size))
    out = []
    for images in itertools.product(els, repeat=size - 1):
        f = (0,) + images
        if all(f[table[a][b]] == table[f[a]][f[b]] for a in els for b in els):
            out.append(f)
    return out


def enumerate_modules(S, max_size):
    """All semimodule structures over finite S on carriers of size <= max_size.

    Scalar actions are maps S -> End(M) respecting unit, addition and
    multiplication; monoids are taken up to isomorphism.
    """
    if not S.is_finite:
        raise UnsupportedError("module enumeration needs a finite base")
    sels = list(S.elements)
    out = []
    for size in range(1, max_size + 1):
        for packed in _commutative_monoids(size):
            table = [list(row) for row in packed]
            endos = _additive_endos(size, table)
            endo_add = {
                (f, g): tuple(table[f[i]][g[i]] for i in range(size)) for f in endos for g in endos
            }
            idf = tuple(range(size))
            zf = (0,) * size
            free = [s for s in sels if s != S.zero and s != S.one]
            for assign in itertools.product(endos, repeat=len(free)):
                phi = {S.zero: zf, S.one: idf}
                phi.update(dict(zip(free, assign)))
                ok = True
                for s in sels:
                    for t in sels:
                        su = phi[S.add(s, t)]
                        if endo_add[(phi[s], phi[t])] != su:
                            ok = False
                            break
                        comp = tuple(phi[t][phi[s][i]] for i in range(size))
                        if comp != phi[S.mul(s, t)]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                action = [[phi[s][i] for s in sels] for i in range(size)]
                out.append(table_module(S, range(size), table, action, name=f"M{size}#{len(out)}"))
    seen = set()
    uniq = []
    for M in out:
        ix = M.indexed()
        key = _module_iso_key(ix.zero, ix.add, ix.act)
        if key not in seen:
            seen.add(key)
            uniq.append(M)
    return uniq


def _module_iso_key(zero, add, act):
    """The least (add, act) rows over every relabelling of the positions that
    sends zero to 0: the same key for isomorphic structures."""
    others = [i for i in range(len(add)) if i != zero]
    best = None
    for perm in itertools.permutations(others):
        order = (zero, *perm)  # order[k] is the position relabelled k
        p = {o: k for k, o in enumerate(order)}
        key = (
            tuple(tuple(p[add[a][b]] for b in order) for a in order),
            tuple(tuple(p[j] for j in act[a]) for a in order),
        )
        if best is None or key < best:
            best = key
    return best
