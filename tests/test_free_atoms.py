"""Free atoms add and act through their base semiring's memo tables, and
times_int (of atoms, semirings and semimodules) doubles only while bits
of k remain."""
from fractions import Fraction
from itertools import product

import pytest

from semikernel.atoms import BoolAtom, CyclicAtom, FreeAtom, NatAtom, QmodzAtom, TableAtom
from semikernel.semimodules import Semimodule
from semikernel.semirings import bool_semiring, ideals, nat, natcap, semiring_from_tables, tropcap, zmod


def _bxb():
    els = [(a, b) for a in (0, 1) for b in (0, 1)]
    add = {(x, y): (max(x[0], y[0]), max(x[1], y[1])) for x in els for y in els}
    mul = {(x, y): (x[0] * y[0], x[1] * y[1]) for x in els for y in els}
    return semiring_from_tables("BxB", els, add, mul, (0, 0), (1, 1))


BASES = {
    "BOOL": bool_semiring,
    "ZMOD(2)": lambda: zmod(2),
    "ZMOD(3)": lambda: zmod(3),
    "NATCAP(2)": lambda: natcap(2),
    "TROPCAP(1)": lambda: tropcap(1),
    "IDEALS(6)": lambda: ideals(6),
    "BxB": _bxb,
}


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("base", sorted(BASES))
def test_free_operations_are_the_coordinatewise_base_operations(base, rank):
    S = BASES[base]()
    F = FreeAtom(S, range(rank))
    els = F.elements()
    for a, b in product(els, els):
        assert F.add(a, b) == tuple(S.add(x, y) for x, y in zip(a, b))
    for a, s in product(els, S.elements):
        assert F.act(a, s) == tuple(S.mul(x, s) for x in a)
        assert F.act_left(s, a) == tuple(S.mul(s, x) for x in a)


def test_free_atoms_over_one_semiring_share_its_memos():
    S = zmod(5)
    F2, F3 = FreeAtom(S, range(2)), FreeAtom(S, "xyz")
    assert F2.base.add_memo is F3.base.add_memo is S.add_memo
    assert F2.base.mul_memo is F3.base.mul_memo is S.mul_memo
    F2.add((3, 4), (4, 4))
    assert S.add_memo[(3, 4)] == 2 and S.add_memo[(4, 4)] == 3
    F3.act((2, 0, 1), 3)
    assert S.mul_memo[(2, 3)] == 1 and S.mul_memo[(1, 3)] == 3
    assert not hasattr(F2, "__dict__")  # no per-atom table


def _table_atom():
    B = bool_semiring()
    els = [0, 1, 2]
    add = {(a, b): max(a, b) for a in els for b in els}
    act = {(a, s): a * s for a in els for s in B.elements}
    return TableAtom(B, els, add, act)


ATOMS = {
    "NAT": (lambda: NatAtom(nat()), 3),
    "CYCLIC": (lambda: CyclicAtom(nat(), 6), 5),
    "BOOL": (lambda: BoolAtom(bool_semiring()), 1),
    "QMODZ": (lambda: QmodzAtom(nat()), Fraction(2, 7)),
    "TABLE": (_table_atom, 1),
    "FREE": (lambda: FreeAtom(zmod(7), range(2)), (3, 5)),
}


# semirings and semimodules sum k * x by the same doubling
SUMMERS = {
    **ATOMS,
    "SEMIRING-BOOL": (bool_semiring, 1),
    "SEMIRING-ZMOD(3)": (lambda: zmod(3), 2),
    "SEMIRING-NAT": (nat, 3),
    "SEMIRING-TROPCAP(2)": (lambda: tropcap(2), 1),
    "SEMIMODULE": (
        lambda: Semimodule(nat(), [NatAtom(nat()), CyclicAtom(nat(), 6), QmodzAtom(nat())]),
        (3, 5, Fraction(2, 7)),
    ),
}


@pytest.mark.parametrize("kind", sorted(SUMMERS))
def test_times_int_is_repeated_addition(kind):
    make, a = SUMMERS[kind]
    atom = make()
    acc = atom.zero
    for k in range(21):
        assert atom.times_int(a, k) == acc
        acc = atom.add(acc, a)


@pytest.mark.parametrize("kind", ["BOOL", "CYCLIC", "FREE", "TABLE"])
def test_times_int_of_one_adds_once(kind, monkeypatch):
    make, a = ATOMS[kind]
    atom = make()
    cls, calls = type(atom), []
    add = cls.add
    monkeypatch.setattr(cls, "add", lambda self, x, y: calls.append((x, y)) or add(self, x, y))
    assert atom.times_int(a, 1) == a
    assert calls == [(atom.zero, a)]
