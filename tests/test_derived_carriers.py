"""Sub and quotient carriers of a two-sided carrier keep both actions.

The carrier of Sweedler's coring A (x)_B A is an (A, A)-bisemimodule.  A
sub table or a quotient is read from its rows, left rows included, and a
subset or congruence that the left action does not respect is refused.
A right comodule on such a carrier uses its right action alone, so its
(co)equalizers are formed on the carrier without its left rows.
"""
import itertools
import re

import pytest

from semikernel.atoms import two_sided
from semikernel.errors import FormatError
from semikernel.semicomodules import (
    check_comodule,
    colinear_maps,
    comodule_coequalizer,
    comodule_equalizer,
    coring_as_comodule,
    verify_coequalizer_universal,
    verify_equalizer_universal,
)
from semikernel.semicorings import (
    _linear_semicoalgebra,
    check_semicoring,
    coideal_check,
    quotient_semicoring,
    sweedler_semicoring,
)
from semikernel.semimodules import (
    Congruence,
    congruence_is_compatible,
    congruence_mod,
    enumerate_submodules,
    module_congruence_closure,
    quotient_by_congruence,
    right_module,
    span,
    sub_table,
)
from semikernel.semirings import SemiringMorphism, bool_semiring, tropcap
from test_cayley_folds import _bool_pairs
from test_semicorings import _noncommutative

B = bool_semiring()


def _bxb():
    return sweedler_semicoring(SemiringMorphism(B, _bool_pairs(), lambda s: (s, s)))


def _tropcap1():
    return sweedler_semicoring(SemiringMorphism(B, tropcap(1), {0: "oo", 1: 0}.__getitem__))


def _gl_t2():
    """The group-like coring on two points over the upper triangular BOOL
    matrices: a free carrier over a non-commutative base, so two-sided."""
    S = _noncommutative()
    return _linear_semicoalgebra(S, ["p", "q"], "GL(T2)", [[(0, S.one, 0)], [(1, S.one, 1)]], [S.one, S.one])


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


# ---------------------------------------------------------------- comodule limits

@pytest.mark.parametrize("coring", [_bxb, _gl_t2], ids=["BxB", "GL(T2)"])
def test_right_module_drops_only_the_left_action(coring):
    car = coring().carrier
    R = right_module(car)
    assert two_sided(car.atoms[0]) and not two_sided(R.atoms[0])
    assert R.elements() == car.elements() and R.zero == car.zero
    els, scalars = car.elements(), car.base.elements
    assert all(R.add(x, y) == car.add(x, y) for x in els for y in els)
    assert all(R.act(x, a) == car.act(x, a) for x in els for a in scalars)
    assert right_module(R) is R


@pytest.fixture(scope="module")
def bxb_comodule():
    A = coring_as_comodule(_bxb())
    return A, list(itertools.product(colinear_maps(A, A), repeat=2))


def test_limits_a_left_action_would_refuse_are_comodules_over_bxb(bxb_comodule):
    """The equalizers that are not left-closed and the coequalizer
    congruences that break the left action, 84 of the 256 pairs each, are
    formed on the right module alone and are comodules."""
    A, pairs = bxb_comodule
    C, car = A.coring, A.carrier
    els = car.elements()
    open_ = [(f, g) for f, g in pairs if not _left_closed(C, span(car, [m for m in els if f(m) == g(m)]))]
    broken = [(f, g) for f, g in pairs
              if not congruence_is_compatible(module_congruence_closure(car, [(f(m), g(m)) for m in els]))[0]]
    assert len(pairs) == 256 and len(open_) == len(broken) == 84
    for f, g in open_:
        eq, iota = comodule_equalizer(f, g, A, A)
        assert check_comodule(eq).ok and all(iota(e) == e[0] for e in eq.carrier.elements())
    for f, g in broken:
        coeq, pi = comodule_coequalizer(f, g, A, A)
        assert check_comodule(coeq).ok and all(pi(f(m)) == pi(g(m)) for m in els)


def test_every_limit_over_the_tropcap1_sweedler_coring_is_universal():
    A = coring_as_comodule(_tropcap1())
    ends = colinear_maps(A, A)
    assert len(ends) == 6
    for f, g in itertools.product(ends, ends):
        eq, iota = comodule_equalizer(f, g, A, A)
        coeq, pi = comodule_coequalizer(f, g, A, A)
        assert check_comodule(eq).ok and check_comodule(coeq).ok
        assert verify_equalizer_universal(f, g, A, A, eq, iota, [eq, A]) == (True, None)
        assert verify_coequalizer_universal(f, g, A, A, coeq, pi, [coeq, A]) == (True, None)


def test_limits_a_left_action_would_refuse_are_comodules_over_a_free_two_sided_carrier():
    """Delta over GL(T2): the first pair whose equalizer is not left-closed
    and the first whose coequalizer congruence breaks the left action."""
    C = _gl_t2()
    A = coring_as_comodule(C)
    car, els = A.carrier, A.carrier.elements()
    pairs = list(itertools.product(colinear_maps(A, A), repeat=2))
    f, g = next((f, g) for f, g in pairs if not _left_closed(C, span(car, [m for m in els if f(m) == g(m)])))
    eq, iota = comodule_equalizer(f, g, A, A)
    assert check_comodule(eq).ok and all(iota(e) == e[0] for e in eq.carrier.elements())
    f, g = next((f, g) for f, g in pairs
                if not congruence_is_compatible(module_congruence_closure(car, [(f(m), g(m)) for m in els]))[0])
    coeq, pi = comodule_coequalizer(f, g, A, A)
    assert check_comodule(coeq).ok and all(pi(f(m)) == pi(g(m)) for m in els)
