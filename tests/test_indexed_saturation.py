"""The saturation route on indices against the dense kernel it replaced.

`DensePresentation` is the word-problem solver on dense vectors (every rule
tested with an `all(...)` over the whole vector), and `dense_table_error` /
`dense_table_zero` are the checks `TableAtom` made on its dict; both are
kept here as references.  The sparse rules must apply the same rule at
every step, so normal forms, completed rule sets and spent budget units all
agree; the indexed tables must agree with the dicts they were built from.
"""
import gc
import itertools
import random
import weakref
from collections import deque

import pytest

from semikernel.atoms import TableAtom
from semikernel.errors import FormatError, UndecidedError
from semikernel.presentations import Budget, MonoidPresentation
from semikernel.semimodules import (
    Semimodule,
    cyclic_module,
    enumerate_modules,
    free_semimodule,
    hom_enumerate,
    table_module,
)
from semikernel.semirings import bool_semiring, nat, zmod
from semikernel.tensors import SaturationTensor
from semikernel.util import sorted_elems

B = bool_semiring()
N = nat()
Z3 = zmod(3)


# ---------------------------------------------------------------- dense reference

def _key(v):
    return (sum(v), v)


def _leq(small, big):
    return all(s <= b for s, b in zip(small, big))


def _sub_add(v, l, r):
    return tuple(x - a + b for x, a, b in zip(v, l, r))


def _join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _min_gen(v):
    for i, c in enumerate(v):
        if c:
            return i
    return -1


class DensePresentation:
    """Completion and reduction on dense vectors, rule for rule."""

    def __init__(self, n_gens, relations, budget):
        self.n = n_gens
        self.budget = budget
        self.rules = []
        self.active = []
        self._by_min = [[] for _ in range(n_gens)]
        self._complete([tuple(map(tuple, rel)) for rel in relations])

    def reduce(self, v):
        v = tuple(v)
        while True:
            applied = False
            for g, cnt in enumerate(v):
                if not cnt:
                    continue
                for idx in self._by_min[g]:
                    if not self.active[idx]:
                        continue
                    l, r = self.rules[idx]
                    if _leq(l, v):
                        self.budget.spend()
                        v = _sub_add(v, l, r)
                        applied = True
                        break
                if applied:
                    break
            if not applied:
                return v

    def _add_rule(self, l, r):
        idx = len(self.rules)
        self.rules.append((l, r))
        self.active.append(True)
        self._by_min[_min_gen(l)].append(idx)
        return idx

    def _complete(self, relations):
        queue = deque(sorted(relations, key=lambda p: (_key(p[0]), _key(p[1]))))
        while queue:
            self.budget.spend()
            u, v = queue.popleft()
            u, v = self.reduce(u), self.reduce(v)
            if u == v:
                continue
            l, r = (u, v) if _key(u) > _key(v) else (v, u)
            new = self._add_rule(l, r)
            for j, (lj, rj) in enumerate(self.rules):
                if j != new and self.active[j] and _leq(l, lj):
                    self.active[j] = False
                    queue.append((lj, rj))
            support = [i for i, c in enumerate(l) if c]
            seen = set()
            for j, (lj, rj) in enumerate(self.rules):
                if j == new or not self.active[j] or j in seen:
                    continue
                if any(lj[i] for i in support):
                    seen.add(j)
                    joint = _join(l, lj)
                    queue.append((_sub_add(joint, l, r), _sub_add(joint, lj, rj)))


def _both(n, relations, limit):
    """The sparse and the dense presentation, or the budget failure of each."""
    out = []
    for cls in (MonoidPresentation, DensePresentation):
        budget = Budget(limit)
        try:
            out.append((cls(n, relations, budget), budget))
        except UndecidedError:
            out.append((None, budget))
    return out


def _assert_same_reductions(sparse, dense, vectors):
    (p, pb), (d, db) = sparse, dense
    assert [(rule.l, rule.r) for rule in p.rules] == d.rules
    assert p.active == d.active
    assert pb.used == db.used
    for v in vectors:
        assert p.reduce(v) == d.reduce(v), v
        assert pb.used == db.used, v


def _vectors(rng, n, count, top=4):
    return [tuple(rng.randrange(top) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(40))
def test_sparse_reduce_matches_dense_on_random_presentations(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    relations = [
        (tuple(rng.randrange(4) for _ in range(n)), tuple(rng.randrange(4) for _ in range(n)))
        for _ in range(rng.randint(1, 5))
    ]
    sparse, dense = _both(n, relations, 20_000)
    if sparse[0] is None or dense[0] is None:
        # both run out at the same point: one spend beyond the limit
        assert sparse[0] is dense[0] is None and sparse[1].used == dense[1].used
        return
    _assert_same_reductions(sparse, dense, _vectors(rng, n, 60))


def _chain_module(k):
    els = list(range(k + 1))
    return table_module(
        B, els, {(a, b): max(a, b) for a in els for b in els}, {(a, s): a * s for a in els for s in B.elements}
    )


@pytest.mark.parametrize(
    "mods,lazy",
    [
        ([free_semimodule(B, 2), free_semimodule(B, 2)], False),
        ([free_semimodule(Z3, 2), free_semimodule(Z3, 2)], False),
        ([cyclic_module(N, 4), cyclic_module(N, 6)], False),
        ([free_semimodule(B, 1), free_semimodule(B, 2), free_semimodule(B, 2)], True),
        ([_chain_module(3), free_semimodule(B, 2)], False),
    ],
    ids=["B2xB2", "Z3^2xZ3^2", "C4xC6-over-NAT", "B1xB2xB2-lazy", "chain3xB2"],
)
def test_sparse_reduce_matches_dense_on_tensor_presentations(mods, lazy):
    T = SaturationTensor(mods, mods[0].base, lazy=lazy)
    relations = T._relations()
    sparse, dense = _both(T.n, relations, 10**7)
    rng = random.Random(T.n)
    vectors = _vectors(rng, T.n, 300, top=3)
    if T.result is not None:
        # every class plus every generator: the steps of the quotient walk
        units = [tuple(int(h == g) for h in range(T.n)) for g in range(T.n)]
        vectors += [tuple(x + y for x, y in zip(c, e)) for c in T.result.atoms[0].elements() for e in units]
    _assert_same_reductions(sparse, dense, vectors)
    assert [(rule.l, rule.r) for rule in T.pres.rules] == dense[0].rules


# ---------------------------------------------------------------- table reference

_ABSENT = object()


def dense_table_error(elements, add_table):
    """The message the dict-keyed TableAtom raised for a bad table, or None."""
    els_sorted = sorted_elems(elements)
    els = set(els_sorted)
    for a in els_sorted:
        for b in els_sorted:
            if add_table.get((a, b), _ABSENT) not in els:
                if (a, b) not in add_table:
                    return f"TABLE add missing ({a},{b})"
                return "TABLE add not closed"
    if len(add_table) != len(els) ** 2:
        return "TABLE add not closed"
    if dense_table_zero(elements, add_table) is _ABSENT:
        return "TABLE has no additive identity"
    return None


def dense_table_zero(elements, add_table):
    els_sorted = sorted_elems(elements)
    zeros = (z for z in els_sorted if all(add_table[(z, a)] == a for a in els_sorted))
    return next(zeros, _ABSENT)


def _random_table(rng, labels):
    """A random commutative table on labels with a random zero (or none)."""
    table = {}
    for i, a in enumerate(labels):
        for b in labels[i:]:
            table[(a, b)] = table[(b, a)] = rng.choice(labels)
    if rng.random() < 0.8:
        z = rng.choice(labels)
        for a in labels:
            table[(z, a)] = table[(a, z)] = a
    return table


def _labels(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.sample(range(50), n)
    if kind == 1:
        return rng.sample("abcdefghij", n)
    return [tuple(rng.randrange(3) for _ in range(2)) for _ in range(n)]


@pytest.mark.parametrize("seed", range(30))
def test_table_atom_agrees_with_its_dict(seed):
    rng = random.Random(seed)
    labels = list(dict.fromkeys(_labels(rng, rng.randint(1, 6))))
    rng.shuffle(labels)
    table = _random_table(rng, labels)
    expected = dense_table_error(labels, table)
    if expected is not None:
        with pytest.raises(FormatError) as e:
            TableAtom(N, labels, table)
        assert str(e.value) == expected
        return
    atom = TableAtom(N, labels, table)
    assert atom.elements() == sorted_elems(labels)
    assert atom.zero == dense_table_zero(labels, table)
    for a, b in itertools.product(labels, repeat=2):
        assert atom.add(a, b) == table[(a, b)]


@pytest.mark.parametrize("seed", range(30))
def test_table_atom_errors_name_the_same_pair(seed):
    """Damaged tables raise the message, and name the pair, that the
    dict-keyed check did: the first bad pair in ordkey order."""
    rng = random.Random(1000 + seed)
    labels = list(dict.fromkeys(_labels(rng, rng.randint(2, 6))))
    rng.shuffle(labels)
    table = {(a, b): a if b == labels[0] else (b if a == labels[0] else rng.choice(labels)) for a in labels for b in labels}
    damage = rng.randrange(4)
    keys = list(table)
    if damage == 0:  # drop some pairs
        for key in rng.sample(keys, rng.randint(1, 3)):
            del table[key]
    elif damage == 1:  # a sum outside the carrier
        table[rng.choice(keys)] = "outside"
    elif damage == 2:  # a key outside the carrier
        table[("outside", labels[0])] = labels[0]
    else:  # no identity: shift the zero's row
        z = labels[0]
        for i, a in enumerate(labels):
            table[(z, a)] = labels[(i + 1) % len(labels)]
    expected = dense_table_error(labels, table)
    assert expected is not None
    with pytest.raises(FormatError) as e:
        TableAtom(N, labels, table)
    assert str(e.value) == expected


def test_enumerated_modules_keep_their_tables():
    for S in (B, zmod(2)):
        for M in enumerate_modules(S, 4):
            atom = M.atoms[0]
            els = atom.elements()
            table = {(a, b): atom.add(a, b) for a in els for b in els}
            assert TableAtom(S, list(reversed(els)), table, {(a, s): atom.act(a, s) for a in els for s in S.elements}).elements() == els
            assert dense_table_zero(els, table) == atom.zero


class _Table(dict):
    """A dict that a weak reference can watch."""


def _index_built(obj):
    """Whether obj's `index` is built: the private slot behind the property
    that builds it on first read is set."""
    return obj._index is not None


def test_dict_built_tables_keep_only_positions():
    """A table module built from dicts keeps neither dict, also after a hom
    search, its indexed carrier shares the atom's rows, and neither builds
    its element index until an element-level operation needs it."""
    for M in enumerate_modules(B, 4):
        atom = M.atoms[0]
        els = atom.elements()
        add = _Table({(a, b): atom.add(a, b) for a in els for b in els})
        act = _Table({(a, s): atom.act(a, s) for a in els for s in B.elements})
        watch = [weakref.ref(add), weakref.ref(act)]
        T = table_module(B, els, add, act)
        del add, act
        assert len(hom_enumerate(T, T)) == len(hom_enumerate(M, M))
        gc.collect()
        assert [w() for w in watch] == [None, None]
        ix, ta = T.indexed(), T.atoms[0]
        assert ix.add is ta._rows and ix.act is ta._act
        assert not _index_built(ta) and not _index_built(ix)
        assert [T.add(x, y) for x in ix.elements for y in ix.elements] == [
            ix.elements[j] for row in ix.add for j in row
        ]
        assert ta.index == {e: i for i, e in enumerate(els)}
        assert ix.index == {x: i for i, x in enumerate(ix.elements)}


def test_a_table_carrier_out_of_ordkey_order_is_renumbered():
    """A table atom given rows in the reverse of the ordkey order (as a
    saturation result gives its Cayley-walk order): indexed() still numbers
    the elements in ordkey order, and its rows and functions agree with
    the element operations."""
    for M in enumerate_modules(B, 4):
        atom = M.atoms[0]
        carrier = atom.elements()[::-1]
        pos = {e: i for i, e in enumerate(carrier)}
        rows = [[pos[atom.add(a, b)] for b in carrier] for a in carrier]
        act = [[pos[atom.act(a, s)] for s in B.elements] for a in carrier]
        T = Semimodule(B, [TableAtom(B, carrier, rows, act)])
        ix, els = T.indexed(), M.elements()
        assert ix.elements == els and ix.zero == els.index(T.zero)
        assert [ix.of(x) for x in els] == list(range(len(els))) and ix.of((9,)) is None
        for (i, x), (j, y) in itertools.product(enumerate(els), repeat=2):
            assert els[ix.add[i][j]] == els[ix.plus(i, j)] == T.add(x, y)
        for (i, x), (k, s) in itertools.product(enumerate(els), enumerate(B.elements)):
            assert els[ix.act[i][k]] == els[ix.scale(i, k)] == T.act(x, s)
            assert els[ix.left[i][k]] == T.act_left(s, x)


def test_skew_table_keeps_its_zero():
    """The non-commutative skew table: 0 is its only left identity, and the
    sums in both orders stay as the dict gives them."""
    special = {(1, 1): 2, (2, 1): 5, (3, 2): 4}

    def add(x, y):
        if x == 0 or y == 0:
            return x + y
        return special.get((x, y), x)

    table = {(x, y): add(x, y) for x in range(6) for y in range(6)}
    atom = TableAtom(N, range(6), table)
    assert atom.zero == 0 == dense_table_zero(range(6), table)
    assert all(atom.add(x, y) == table[(x, y)] for x in range(6) for y in range(6))
    assert atom.add(3, 2) == 4 and atom.add(2, 3) == 2


def test_first_left_identity_in_ordkey_order_is_the_zero():
    # x + y = y for all x, y: every element is a left identity
    labels = ["b", 3, "a", 1]
    table = {(x, y): y for x in labels for y in labels}
    assert TableAtom(N, labels, table).zero == 1 == dense_table_zero(labels, table)


def test_index_rows_are_checked():
    els = [(1,), (0,)]  # builder order: the zero is second
    atom = TableAtom(N, els, [[0, 0], [0, 1]])
    assert atom.elements() == [(0,), (1,)] and atom.zero == (0,)
    assert atom.add((0,), (1,)) == (1,) and atom.add((1,), (1,)) == (1,)
    for rows in ([[0, 0]], [[0, 0], [0]], [[0, 2], [0, 1]], [[0, -1], [0, 1]]):
        with pytest.raises(FormatError, match="TABLE add not closed"):
            TableAtom(N, els, rows)
    with pytest.raises(FormatError, match="no additive identity"):
        TableAtom(N, els, [[0, 0], [0, 0]])
    with pytest.raises(FormatError, match="repeat"):
        TableAtom(N, [0, 0], {(0, 0): 0})
