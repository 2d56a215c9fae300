"""Colinear search on generators against the all-elements filter.

`colinear_maps` tests the colinearity square only on zero and the greedy
additive generators when both coactions are additive, and on every element
otherwise.  The reference keeps every hom whose square commutes on every
element.  The gallery's poly corings (65,536 endomorphisms each) are left
out: the reference alone takes minutes on them.
"""
import itertools

import pytest

from semikernel.atoms import greedy
from semikernel.gallery import gallery_coring
from semikernel.semicomodules import (
    Semicomodule,
    cofree_comodule,
    colinear_maps,
    comodule_coequalizer,
    comodule_equalizer,
    comodule_hom_check,
    coring_as_comodule,
)
from semikernel.semimodules import free_semimodule, hom_enumerate, identity_map, semiring_module
from semikernel.semirings import bool_semiring
from semikernel.tensors import TensorProduct

B = bool_semiring()
GL = gallery_coring("grouplike_bool_2")
CX = gallery_coring("coext_bool")
SMALL = ("sweedler_id", "coext_bool", "coext_zmod2", "grouplike_bool_2")


def ref_colinear(M, N):
    return [f for f in hom_enumerate(M.carrier, N.carrier) if comodule_hom_check(f, M, N)]


def _mutant(M, at, source):
    """M with the coaction at `at` replaced by the coaction at `source`."""
    rho = {**M.coaction, at: M.coaction[source]}
    return Semicomodule(M.coring, M.carrier, rho, name=f"{M.name}[{at}<-{source}]")


def _gallery_families():
    """Each small gallery coring over itself, its rho(0) <- rho(top) and
    rho(top) <- rho(0) mutants, and over GL the cofree B (x) GL."""
    for name in SMALL:
        C = gallery_coring(name)
        CC = coring_as_comodule(C)
        z, top = C.carrier.zero, C.carrier.elements()[-1]
        family = [CC, _mutant(CC, z, top), _mutant(CC, top, z)]
        if C is GL:
            family.append(cofree_comodule(semiring_module(B), GL))
        yield name, family


def _criterion_9_results():
    """Every (co)equalizer of two colinear endomorphisms of GL and CX over
    themselves, with its ambient."""
    for C in (GL, CX):
        CC = coring_as_comodule(C)
        ends = colinear_maps(CC, CC)
        for f, g in itertools.product(ends, ends):
            coeq, _ = comodule_coequalizer(f, g, CC, CC)
            eq, _ = comodule_equalizer(f, g, CC, CC)
            yield f"{C.name}:{f.name}:{g.name}", [CC, coeq, eq]


FAMILIES = list(_gallery_families()) + list(_criterion_9_results())


@pytest.mark.parametrize("family", [f for _, f in FAMILIES], ids=[n for n, _ in FAMILIES])
def test_generator_route_matches_every_element(family):
    for M, N in itertools.product(family, family):
        assert [f.mapping for f in colinear_maps(M, N)] == [f.mapping for f in ref_colinear(M, N)], (M.name, N.name)


def test_mutants_take_the_fallback():
    families = dict(_gallery_families())
    assert all(family[0].additivity_witness is None for family in families.values())
    # over sweedler_id (carrier 0, 1 with 1 + 1 = 1) both mutants are still
    # additive, so the generator route stays sound there; every other
    # mutant falls back
    additive = [(name, i) for name, family in families.items() for i in (1, 2) if family[i].additivity_witness is None]
    assert additive == [("sweedler_id", 1), ("sweedler_id", 2)]
    # and the fallback matters: the top element is a sum of generators, so
    # the identity into the rho(top) mutant passes on zero and the generators
    CC, _, top_mutant = families["grouplike_bool_2"][:3]
    identity = identity_map(CC.carrier)
    ix = CC.carrier.indexed()
    gens = [ix.elements[g] for g in greedy(ix.plus, ix.zero, range(len(ix.elements)))[0]]
    assert comodule_hom_check(identity, CC, top_mutant, [CC.carrier.zero, *gens])
    assert not comodule_hom_check(identity, CC, top_mutant)


def test_cofree_search_pushes_at_most_five_times_per_candidate(monkeypatch):
    XC = cofree_comodule(free_semimodule(B, 2), GL)
    candidates = len(hom_enumerate(XC.carrier, XC.carrier))
    push = TensorProduct.push
    calls = []

    def counted(self, terms, maps=None):
        calls.append(1)
        return push(self, terms, maps)

    monkeypatch.setattr(TensorProduct, "push", counted)
    assert len(colinear_maps(XC, XC)) == 256
    assert candidates == 65536 and len(calls) <= 5 * candidates
