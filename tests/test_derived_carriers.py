"""Sub and quotient carriers of a two-sided carrier keep both actions.

The carrier of Sweedler's coring A (x)_B A is an (A, A)-bisemimodule.  A
sub table or a quotient is read from its rows, left rows included, and a
subset or congruence that the left action does not respect is refused.
"""
import re

import pytest

from semikernel.errors import FormatError
from semikernel.semicorings import check_semicoring, coideal_check, quotient_semicoring, sweedler_semicoring
from semikernel.semimodules import (
    Congruence,
    congruence_is_compatible,
    congruence_mod,
    enumerate_submodules,
    module_congruence_closure,
    quotient_by_congruence,
    sub_table,
)
from semikernel.semirings import SemiringMorphism, bool_semiring, tropcap
from test_cayley_folds import _bool_pairs

B = bool_semiring()


def _bxb():
    return sweedler_semicoring(SemiringMorphism(B, _bool_pairs(), lambda s: (s, s)))


def _tropcap1():
    return sweedler_semicoring(SemiringMorphism(B, tropcap(1), {0: "oo", 1: 0}.__getitem__))


SWEEDLER = pytest.mark.parametrize("coring", [_bxb, _tropcap1], ids=["BxB", "tropcap1"])


def _left_closed(C, L):
    return all(C.carrier.act_left(a, x) in L.elements for x in L.elements for a in C.base.elements)


def test_every_coideal_quotient_of_the_bxb_sweedler_coring_is_a_semicoring():
    C = _bxb()
    coideals = [L for L in enumerate_submodules(C.carrier) if coideal_check(C, L)["is_coideal"] is True]
    sizes = []
    for K in coideals:
        Q, _ = quotient_semicoring(C, K)
        assert check_semicoring(Q).ok
        sizes.append(len(Q.carrier.elements()))
    assert sizes == [16, 8, 8, 4]


def test_every_mod_quotient_projection_of_the_bxb_carrier_is_bilinear():
    C = _bxb()
    car, scalars = C.carrier, C.base.elements
    subs = enumerate_submodules(car)
    assert len(subs) == 49
    for L in subs:
        Q, pi = quotient_by_congruence(car, congruence_mod(L))
        for x in car.elements():
            for a in scalars:
                assert pi(car.act(x, a)) == Q.act(pi(x), a)
                assert pi(car.act_left(a, x)) == Q.act_left(a, pi(x)), (sorted(L.elements), x, a)


def test_a_congruence_that_breaks_only_the_left_action_is_refused():
    """The congruence generated by one pair is closed under + and the right
    action, but not under the left one; it is refused whatever its kind,
    rather than given the left rows of its representatives."""
    car = _tropcap1().carrier
    c = module_congruence_closure(car, [(((0, 1, 0, 0),), ((0, 1, 1, 0),))])
    assert congruence_is_compatible(c) == (False, (1, ((0, 1, 0, 0),), ((0, 1, 1, 0),)))
    for cong in (c, Congruence(car, "modL", None, c.classes, c.class_of)):
        with pytest.raises(FormatError, match="congruence not compatible"):
            quotient_by_congruence(car, cong)


@SWEEDLER
def test_a_left_closed_sub_table_keeps_the_left_action(coring):
    C = coring()
    car = C.carrier
    kept = [L for L in enumerate_submodules(car) if _left_closed(C, L)]
    assert car.zero in kept[0].elements and len(kept[-1].elements) == len(car.elements())
    for L in kept:
        E = sub_table(car, L.elements, "E")
        for x in L.elements:
            for a in C.base.elements:
                assert E.act_left(a, (x,)) == (car.act_left(a, x),)
                assert E.act((x,), a) == (car.act(x, a),)


@SWEEDLER
def test_a_right_submodule_that_is_not_left_closed_is_refused(coring):
    C = coring()
    open_ = [L for L in enumerate_submodules(C.carrier) if not _left_closed(C, L)]
    assert open_
    for L in open_:
        with pytest.raises(FormatError, match=re.escape("TABLE left action not closed")):
            sub_table(C.carrier, L.elements, "E")
