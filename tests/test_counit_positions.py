"""The comodule counit triangle on positions against the element loop.

`check_comodule` folds sum k * (m1 . eps(c1)) over the compiled coaction
terms of each position m, reading the action off the carrier's indexed
rows, and falls back to the element sum when an epsilon value lies
outside the base, after checking that the carrier can act by it.  The
reference is the element loop it replaced: the first m, in element order,
whose sum util.fs_eval makes differ from m, with that sum.  Both must give the same verdict and the same witness (or
raise the same error) on the finite gallery comodules, the (co)equalizers
of the hom-search ambients and the epsilon-mutants of the small gallery
corings, an epsilon value off the base among them.
"""
import itertools
import re

import pytest

from semikernel.errors import FormatError
from semikernel.gallery import GALLERY_NAMES, gallery_coring
from semikernel.semicomodules import (
    Semicomodule,
    check_comodule,
    cofree_comodule,
    colinear_maps,
    comodule_coequalizer,
    comodule_equalizer,
    coring_as_comodule,
)
from semikernel.semimodules import free_semimodule
from semikernel.semirings import bool_semiring
from semikernel.util import fs_eval

B = bool_semiring()
GL = gallery_coring("grouplike_bool_2")
CX = gallery_coring("coext_bool")
SMALL = ("sweedler_id", "coext_bool", "coext_zmod2", "grouplike_bool_2")


def reference_counit(M):
    """The first (m, sum) of the counit triangle on elements, or None.  An
    epsilon value off the base that the carrier cannot act by is a
    FormatError naming the first such c, in the coring's element order, and
    so is a sum the carrier cannot form of the values it acts by."""
    car, C = M.carrier, M.coring
    for c in C.carrier.elements():
        v = C.eps[c]
        try:
            if v not in C.base.elements:
                [car.act(m, v) for m in car.elements()]
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"{C.name}: {car.name} cannot be acted on by eps({c!r}) = {v!r}") from e
    for m in car.elements():
        try:
            acc = fs_eval(car, ((car.act(m1, C.eps[c1]), mult) for (m1, c1), mult in M.coaction[m]))
        except (KeyError, TypeError, ValueError) as e:
            c = next(c for c in C.carrier.elements() if C.eps[c] not in C.base.elements)
            what = f"{car.name} cannot add its elements acted on by"
            raise FormatError(f"{C.name}: {what} eps({c!r}) = {C.eps[c]!r}") from e
        if acc != m:
            return m, acc
    return None


def _outcome(fn, M):
    try:
        return "value", fn(M)
    except Exception as e:  # the routes must raise alike too
        return "raises", type(e), str(e)


def _kernel_counit(M):
    rep = check_comodule(M)
    law, splits = (next(c for c in rep.checks if c.name == name) for name in ("counit-law", "coaction-splits"))
    assert (law.ok, law.witness) == (splits.ok, splits.witness)
    return law.witness


def _gallery():
    for name in GALLERY_NAMES:
        C = gallery_coring(name)
        if not C.structured:
            yield name, coring_as_comodule(C)


def _ambient_limits():
    """Every coequalizer and equalizer of two colinear endomorphisms of the
    three ambients the hom-search workload pairs up."""
    ambients = (coring_as_comodule(GL), coring_as_comodule(CX), cofree_comodule(free_semimodule(B, 1), GL))
    for A in ambients:
        ends = colinear_maps(A, A)
        for f, g in itertools.product(ends, ends):
            yield f"{A.name}:{f.name}:{g.name}:coeq", comodule_coequalizer(f, g, A, A)[0]
            yield f"{A.name}:{f.name}:{g.name}:eq", comodule_equalizer(f, g, A, A)[0]


def _eps_mutants():
    """Each small gallery coring over itself with one epsilon value changed:
    to every other base element, and to a value off the base."""
    for name in SMALL:
        C = gallery_coring(name)
        for c in C.carrier.elements():
            for a in list(C.base.elements) + ["off-base"]:
                if a != C.eps[c]:
                    yield f"{name}:eps[{c}]->{a}", coring_as_comodule(C.mutate(eps={c: a}))


def _restated(M):
    """M with each term k * (m (x) c) of its coaction written 3k * (m (x) c),
    and 2 * (top (x) top) added to each: the same coaction over ZMOD(2)."""
    top = (M.carrier.elements()[-1], M.coring.carrier.elements()[-1])
    rho = {m: tuple((pair, 3 * k) for pair, k in terms) + ((top, 2),) for m, terms in M.coaction.items()}
    return Semicomodule(M.coring, M.carrier, rho, name=f"{M.name}[3k+2]")


CASES = list(_gallery()) + list(_ambient_limits()) + list(_eps_mutants())
CASES += [(f"{name}[3k+2]", _restated(M)) for name, M in CASES if name.startswith("coext_zmod2")]


@pytest.mark.parametrize("M", [M for _, M in CASES], ids=[n for n, _ in CASES])
def test_counit_on_positions_matches_the_element_loop(M):
    assert _outcome(_kernel_counit, M) == _outcome(reference_counit, M)


# each c of a coring over itself that a coaction term has on its right,
# where epsilon(c) = "z" acts through Python's operators but cannot be added
UNADDABLE = [
    ("grouplike_bool_2", ((0, 1),)), ("grouplike_bool_2", ((1, 0),)),
    ("coext_bool", ((0,), 1)), ("coext_bool", ((1,), 0)),
]


@pytest.mark.parametrize("name, c", UNADDABLE)
def test_an_epsilon_the_carrier_cannot_add_is_a_format_error(name, c):
    """A free carrier 'acts' by "z" through Python's operators, so the
    action check lets it through, but BOOL cannot add the "z" coefficients
    it makes: the element sum raises a FormatError naming eps(c), not a
    bare TypeError."""
    C = gallery_coring(name).mutate(eps={c: "z"})
    with pytest.raises(FormatError, match=re.escape(f"cannot add its elements acted on by eps({c!r}) = 'z'")):
        check_comodule(coring_as_comodule(C))


def test_the_cases_reach_both_routes_and_both_verdicts():
    outcomes = {name: _outcome(reference_counit, M) for name, M in CASES}
    in_base = [o for name, o in outcomes.items() if not name.endswith("off-base")]
    assert ("value", None) in in_base
    assert any(o[0] == "value" and o[1] is not None for o in in_base)
    assert any(o[0] == "raises" for o in outcomes.values())
