"""The semiring checks on position tables against the element-level checks.

`check_semiring_axioms` and `structural_predicates` evaluate a finite
semiring on integer tables and map each witness back to elements.  The
references below are the element-level definitions they replace; both
routes must give the same checks (name, order, ok, witness), the same
`sampled` flag and the same structural flags.
"""
import random

import pytest

from semikernel.errors import KernelError
from semikernel.gallery import GALLERY_NAMES, gallery_coring
from semikernel.semicorings import dual_semiring
from semikernel.semirings import (
    _triples,
    bool_semiring,
    candidate_semiring,
    check_semiring_axioms,
    ideals,
    nat,
    natcap,
    structural_predicates,
    tropcap,
    zmod,
)
from semikernel.util import Report, ordkey


def reference_axioms(S) -> Report:
    rep = Report(f"semiring {S.name}")
    triples, sampled = _triples(S)
    rep.sampled = sampled
    pairs = {(a, b) for a, b, _ in triples} | {(b, c) for _, b, c in triples}

    w = next(((a, b) for a, b in pairs if S.add(a, b) != S.add(b, a)), None)
    rep.add("add-commutative", w is None, w)
    w = next(((a,) for a, _ in pairs if S.add(a, S.zero) != a), None)
    rep.add("add-identity", w is None, w)
    w = next((t for t in triples if S.add(S.add(t[0], t[1]), t[2]) != S.add(t[0], S.add(t[1], t[2]))), None)
    rep.add("add-associative", w is None, w)
    w = next((t for t in triples if S.mul(S.mul(t[0], t[1]), t[2]) != S.mul(t[0], S.mul(t[1], t[2]))), None)
    rep.add("mul-associative", w is None, w)
    w = next(((a,) for a, _ in pairs if S.mul(a, S.one) != a or S.mul(S.one, a) != a), None)
    rep.add("mul-identity", w is None, w)
    w = next((t for t in triples if S.mul(t[0], S.add(t[1], t[2])) != S.add(S.mul(t[0], t[1]), S.mul(t[0], t[2]))), None)
    rep.add("left-distributive", w is None, w)
    w = next((t for t in triples if S.mul(S.add(t[0], t[1]), t[2]) != S.add(S.mul(t[0], t[2]), S.mul(t[1], t[2]))), None)
    rep.add("right-distributive", w is None, w)
    w = next(
        ((a, S.zero) for a, _ in pairs if S.mul(a, S.zero) != S.zero or S.mul(S.zero, a) != S.zero),
        None,
    )
    rep.add("absorption", w is None, w)
    rep.add("one-neq-zero", S.one != S.zero, (S.one, S.zero))
    return rep


def reference_predicates(S) -> dict:
    triples, sampled = _triples(S)
    pairs = sorted({(a, b) for a, b, _ in triples}, key=ordkey)
    out = {"sampled": sampled}
    w = next((p for p in pairs if S.mul(p[0], p[1]) != S.mul(p[1], p[0])), None)
    out["commutative"] = w is None
    out["commutative_witness"] = w
    w = None
    for a, b, c in triples:
        if S.add(a, b) == S.add(a, c) and b != c:
            w = (a, b, c)
            break
    out["cancellative"] = w is None
    out["cancellative_witness"] = w
    w = next(((a,) for a, _ in pairs if S.add(a, a) != a), None)
    out["additively_idempotent"] = w is None
    out["additively_idempotent_witness"] = w
    return out


def checks(rep):
    return [(c.name, c.ok, c.witness) for c in rep.checks], rep.sampled


def assert_same_route(S, built=True):
    ref = checks(reference_axioms(S))
    assert checks(check_semiring_axioms(S)) == ref
    assert structural_predicates(S) == reference_predicates(S)
    if built:  # a constructed Semiring checked itself on one shared sample
        assert checks(S.axiom_report) == ref
        assert S.flags == reference_predicates(S)


def builtins():
    yield bool_semiring()
    yield from (zmod(n) for n in range(2, 7))
    yield from (zmod(30), zmod(200))  # sampled triples on tables, and on elements
    yield from (natcap(k) for k in range(1, 4))
    yield from (tropcap(k) for k in range(1, 4))
    yield from (ideals(6), ideals(12), nat())


@pytest.mark.parametrize("S", list(builtins()), ids=lambda S: S.name)
def test_builtins_agree_with_element_checks(S):
    assert_same_route(S)


def gallery_duals():
    for name in GALLERY_NAMES:
        for side in ("left", "right", "two"):
            try:
                yield dual_semiring(gallery_coring(name), side).semiring
            except KernelError:  # over the size cap, or a structured coring
                continue


def test_gallery_duals_agree_with_element_checks():
    seen = 0
    for S in gallery_duals():
        assert_same_route(S)
        seen += 1
    assert seen == 18  # six corings, three sides each


def test_random_tables_agree_with_element_checks():
    rng = random.Random(7)
    failing = 0
    for _ in range(240):
        els = rng.sample(range(10), rng.choice((2, 3)))  # values unlike their positions
        add = {(a, b): rng.choice(els) for a in els for b in els}
        mul = {(a, b): rng.choice(els) for a in els for b in els}
        zero, one = rng.sample(els, 2)
        cand = candidate_semiring("rand", els, add, mul, zero, one)
        assert_same_route(cand, built=False)
        failing += not check_semiring_axioms(cand).ok
    assert failing > 200  # most random tables fail, so first witnesses are compared


def test_string_elements_agree_with_element_checks():
    # set iteration order of string pairs depends on the hash seed; both
    # routes must still pick the same first witness
    els = ["a", "b", "c"]
    add = {(x, y): max(x, y) for x in els for y in els}
    mul = {(x, y): min(x, y) for x in els for y in els}
    mul[("c", "b")] = "c"
    cand = candidate_semiring("strings", els, add, mul, "a", "c")
    assert not check_semiring_axioms(cand).ok
    assert_same_route(cand, built=False)
