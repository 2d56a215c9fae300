"""Cross-route oracle for the congruence builders.

The builders close generating pairs with one integer union-find over
`Semimodule.indexed()`.  The references below are the element-level
definitions: a relation scan for ≡ mod L and [~]_L, a naive fixpoint for the
closure of a set of pairs, and a quotient built from a dict keyed by pairs of
class representatives.
"""
import random

import pytest

from semikernel.semimodules import (
    congruence_bracket,
    congruence_mod,
    enumerate_modules,
    enumerate_submodules,
    free_semimodule,
    module_congruence_closure,
    quotient_by_congruence,
    semiring_module,
    table_module,
)
from semikernel.semirings import bool_semiring, tropcap, zmod
from semikernel.util import ordkey

B = bool_semiring()
Z2 = zmod(2)


def _partition(M, related):
    """Classes of an equivalence given as a relation, ordered by least element."""
    els = M.elements()
    class_of = {}
    for x in els:
        if x not in class_of:
            cls = frozenset(y for y in els if related(x, y))
            class_of.update((y, cls) for y in cls)
    return sorted(set(class_of.values()), key=lambda c: ordkey(min(c, key=ordkey)))


def ref_mod(L):
    M = L.ambient
    shifted = {m: frozenset(M.add(m, l) for l in L.elements) for m in M.elements()}
    return _partition(M, lambda x, y: bool(shifted[x] & shifted[y]))


def ref_bracket(L):
    M = L.ambient
    els = M.elements()
    plusL = {m: frozenset(M.add(m, l) for l in L.elements) for m in els}
    return _partition(M, lambda x, y: any(plusL[M.add(x, mp)] & plusL[M.add(y, mp)] for mp in els))


def ref_closure(M, pairs):
    """Naive fixpoint: merge classes until every class is closed under
    adding any element and under every scalar."""
    els = M.elements()
    cls = {e: frozenset([e]) for e in els}

    def merge(a, b):
        if cls[a] is cls[b]:
            return False
        joined = cls[a] | cls[b]
        cls.update((e, joined) for e in joined)
        return True

    for a, b in pairs:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for a in els:
            for b in cls[a]:
                for c in els:
                    changed |= merge(M.add(a, c), M.add(b, c))
                for s in M.base.elements or ():
                    changed |= merge(M.act(a, s), M.act(b, s))
    return sorted(set(cls.values()), key=lambda c: ordkey(min(c, key=ordkey)))


def ref_quotient(M, classes):
    """The quotient as a table module built from a dict over representative pairs."""
    rep_of = {e: min(c, key=ordkey) for c in classes for e in c}
    reps = [min(c, key=ordkey) for c in classes]
    add = {(a, b): rep_of[M.add(a, b)] for a in reps for b in reps}
    action = {(a, s): rep_of[M.act(a, s)] for a in reps for s in M.base.elements}
    return table_module(M.base, reps, add, action)


FAMILY = enumerate_modules(B, 4) + enumerate_modules(Z2, 4) + [free_semimodule(B, 2), free_semimodule(B, 3)]

# min-plus actions reach what addition cannot, so a closure that skipped the
# action would still pass over BOOL and ZMOD(2) but not here
ACTING = [free_semimodule(tropcap(1), 2), semiring_module(tropcap(2))]


def _assert_quotient_matches(M, cong):
    Q, pi = quotient_by_congruence(M, cong)
    R = ref_quotient(M, cong.classes)
    els = Q.elements()
    assert els == R.elements()
    assert all(Q.add(x, y) == R.add(x, y) for x in els for y in els)
    assert all(pi(x) == (min(cong.class_of[x], key=ordkey),) for x in M.elements())


def test_family_size():
    assert sum(len(enumerate_submodules(M)) for M in FAMILY) == 98


@pytest.mark.parametrize("i", range(len(FAMILY) + len(ACTING)))
def test_mod_and_bracket_match_relation_scan(i):
    M = (FAMILY + ACTING)[i]
    for L in enumerate_submodules(M):
        for build, ref in ((congruence_mod, ref_mod), (congruence_bracket, ref_bracket)):
            cong = build(L)
            assert cong.classes == ref(L), (M.name, sorted(L.elements), build.__name__)
            assert cong.class_of == {e: c for c in cong.classes for e in c}
            assert cong.witness is L
            _assert_quotient_matches(M, cong)


def test_closure_matches_naive_fixpoint():
    rng = random.Random(2024)
    mods = FAMILY + ACTING
    for trial in range(100):
        M = mods[trial % len(mods)]
        els = M.elements()
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(rng.randrange(0, 4))]
        cong = module_congruence_closure(M, pairs)
        assert cong.kind == "custom" and cong.witness is None
        assert cong.classes == ref_closure(M, pairs), (M.name, pairs)
        _assert_quotient_matches(M, cong)
