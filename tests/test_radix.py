"""The arithmetic index of free carriers: a coefficient tuple's position is
the mixed-radix number of its coordinates' positions in the base, and the
sum and the actions work digit by digit on positions (atoms.Radix, read
through Semimodule.indexed())."""
import random
from itertools import product

import pytest

from semikernel.atoms import FreeAtom
from semikernel.semimodules import Semimodule, free_semimodule
from semikernel.semirings import bool_semiring, ideals, natcap, tropcap, zmod

BASES = {
    "BOOL": bool_semiring,
    "ZMOD(2)": lambda: zmod(2),
    "ZMOD(3)": lambda: zmod(3),
    "NATCAP(2)": lambda: natcap(2),
    "TROPCAP(2)": lambda: tropcap(2),
    "IDEALS(6)": lambda: ideals(6),
}


@pytest.mark.parametrize("base, rank", [("BOOL", 49), ("ZMOD(3)", 5), ("TROPCAP(2)", 3)])
def test_position_decodes_back(base, rank):
    S = BASES[base]()
    rx = FreeAtom(S, range(rank)).radix
    rng = random.Random(rank)
    size = len(S.elements) ** rank
    for i in [0, size - 1, rx.zero] + [rng.randrange(size) for _ in range(200)]:
        x = rx.element(i)
        assert len(x) == rank and all(c in S.index for c in x)
        assert rx.position(x) == i
    assert rx.element(rx.zero) == (S.zero,) * rank


@pytest.mark.parametrize("base", sorted(BASES))
def test_sum_and_actions_on_positions_are_the_free_atom_ones(base):
    S = BASES[base]()
    F = FreeAtom(S, range(2))
    rx = F.radix
    els = F.elements()
    for a, b in product(els, els):
        assert rx.element(rx.add(rx.position(a), rx.position(b))) == F.add(a, b)
    for a, (k, s) in product(els, enumerate(S.elements)):
        assert rx.element(rx.act(rx.position(a), k)) == F.act(a, s)
        assert rx.element(rx.act_left(rx.position(a), k)) == F.act_left(s, a)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("base", sorted(BASES))
def test_positions_run_in_element_order(base, rank):
    M = free_semimodule(BASES[base](), rank)
    ix, els = M.indexed(), M.elements()
    assert [ix.of(x) for x in els] == list(range(len(els)))
    assert [ix.element(i) for i in range(len(els))] == els == ix.elements
    assert ix.zero == els.index(M.zero)
    n, scalars = len(els), list(enumerate(M.base.elements))
    assert all(els[ix.add[i][j]] == M.add(els[i], els[j]) for i in range(n) for j in range(n))
    assert all(els[ix.act[i][k]] == M.act(els[i], s) for i in range(n) for k, s in scalars)
    assert all(els[ix.left[i][k]] == M.act_left(s, els[i]) for i in range(n) for k, s in scalars)


def test_off_carrier_values_have_no_position():
    P = free_semimodule(zmod(3), 2).indexed()
    assert [P.of(x) for x in [((0, 3),), ((0, 1, 2),), ((0, 1),), (0, 1), ((0, 1), (0, 1)), 5]] == [
        None, None, 3 * 0 + 1, None, None, None
    ]


def test_a_large_free_carrier_is_never_listed(monkeypatch):
    """BOOL^49 has 2^49 elements: its positions add, act and decode
    without an element list or a row."""

    def listed(self):
        raise AssertionError("elements() called")

    monkeypatch.setattr(Semimodule, "elements", listed)
    monkeypatch.setattr(FreeAtom, "elements", listed)
    B = bool_semiring()
    M = Semimodule(B, [FreeAtom(B, range(49))], name="B^49")
    P = M.indexed()
    x, y = ((1,) + (0,) * 48,), ((0,) * 48 + (1,),)
    i, j = P.of(x), P.of(y)
    assert (i, j) == (1 << 48, 1)
    assert P.element(P.plus(i, j)) == (((1,) + (0,) * 47 + (1,)),)
    assert P.scale(i, 0) == P.zero == 0 and P.scale_left(j, 1) == j
