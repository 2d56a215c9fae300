"""The law scans on positions against the element-level scans they replace.

`util.unpreserved_rows` scans a finite carrier's integer positions: the
images read once, the source operation's rows and the target operation on
the images.  The references below are the element-level definitions:
`reference_unpreserved` is the scan on element pairs (util.unpreserved),
and `reference_semicoring` is check_semicoring built on it.  Both routes
must give the same checks (name, order, ok, first witness) on the gallery
corings, the mutation corpus, every rank-2 linear semicoalgebra over BOOL
and over ZMOD(2), and a coring whose epsilon leaves the base (one that
the carrier cannot act by is a FormatError); the coaction
scans of check_comodule are held to the same on the gallery corings.
check_semimodule_axioms decides associativity by Light's test on rows;
`reference_nonassociative`, the scan of every element triple, must find
the same first triple on every module of enumerate_modules(BOOL|ZMOD(2),
4), on single-entry mutants of their sums, on the six distinct carriers
of the mutation corpus and on "max except 1 + 2 = 4" tables of up to 260
elements.
"""
import itertools
import re

import pytest

from semikernel.errors import FormatError
from semikernel.gallery import GALLERY_NAMES, gallery_coring, mutation_corpus
from semikernel.semicomodules import check_comodule, coring_as_comodule
from semikernel.semicorings import _linear_semicoalgebra, check_semicoring
from semikernel.semimodules import check_semimodule_axioms, enumerate_modules, table_module
from semikernel.semirings import bool_semiring, zmod
from semikernel.util import Report, fs_eval


def reference_unpreserved(f, op, top, pairs, scalar=False):
    """The first (a, b) of pairs, in the order given, with f(op(a, b)) !=
    top(f(a), f(b)), or != top(f(a), b) when b is a scalar acting on a."""
    if scalar:
        return next(((a, b) for a, b in pairs if f(op(a, b)) != top(f(a), b)), None)
    return next(((a, b) for a, b in pairs if f(op(a, b)) != top(f(a), f(b))), None)


def reference_semicoring(C) -> Report:
    """check_semicoring on elements: every scan reads the carrier's and
    C (x) C's element operations and the normalized Delta(c) of each c."""
    rep = Report(f"semicoring {C.name}")
    car = C.carrier
    els = car.elements()
    T2 = C.cc()
    dm = {c: C.delta_norm(c) for c in els}
    pairs = list(itertools.product(els, els))
    acts = list(itertools.product(els, C.base.elements))
    w = reference_unpreserved(dm.__getitem__, car.add, T2.result.add, pairs)
    rep.add("comult-additive", w is None, w)
    w = reference_unpreserved(dm.__getitem__, car.act, T2.result.act, acts, scalar=True)
    rep.add("comult-right-linear", w is None, w)
    left, tleft = (lambda x, s: car.act_left(s, x)), (lambda d, s: T2.result.act_left(s, d))
    w = reference_unpreserved(dm.__getitem__, left, tleft, acts, scalar=True)
    rep.add("comult-left-linear", w is None, w)
    w = reference_unpreserved(C.eps.__getitem__, car.add, C.base.add, pairs)
    rep.add("counit-additive", w is None, w)
    w = reference_unpreserved(C.eps.__getitem__, car.act, C.base.mul, acts, scalar=True)
    rep.add("counit-right-linear", w is None, w)
    w = None
    for c in els:
        lhs = fs_eval(car, ((car.act_left(C.eps[c1], c2), mult) for (c1, c2), mult in C.delta[c]))
        rhs = fs_eval(car, ((car.act(c1, C.eps[c2]), mult) for (c1, c2), mult in C.delta[c]))
        if lhs != c:
            w = ("left", c, lhs)
            break
        if rhs != c:
            w = ("right", c, rhs)
            break
    rep.add("counit-law", w is None, w)
    return rep


def _scans(rep):
    """The checks of a report as (name, ok, witness), the coassociativity
    check (no scan of pairs, the same route on both sides) left out."""
    return [(c.name, c.ok, c.witness) for c in rep.checks if not c.name.startswith("coassociative")]


def _assert_same(C):
    new, ref = check_semicoring(C), reference_semicoring(C)
    assert _scans(new) == _scans(ref), C.name
    assert new.sampled == ref.sampled
    return new


@pytest.mark.parametrize("name", [n for n in GALLERY_NAMES if n != "counterexample_4"])
def test_gallery_corings(name):
    assert _assert_same(gallery_coring(name)).ok


def test_mutation_corpus():
    """The 57 mutants, and for each finite gallery coring the two mutants
    with Delta(0) and eps(0) not zero, which reach the linearity scans."""
    muts = [C for _, C in mutation_corpus()]
    assert len(muts) == 57
    for name in GALLERY_NAMES[:-1]:
        C = gallery_coring(name)
        z, top = C.carrier.zero, C.carrier.elements()[-1]
        muts.append(C.mutate(delta={z: C.delta[top]}))
        muts.append(C.mutate(eps={z: next(a for a in C.base.elements if a != C.eps[z])}))
    failing = {c.name for C in muts for c in _assert_same(C).failures()}
    assert {name for name, _, _ in _scans(check_semicoring(gallery_coring("words3_L2")))} <= failing


@pytest.mark.parametrize("base", ["BOOL", "ZMOD(2)"])
def test_every_rank2_linear_semicoalgebra(base):
    """Delta(e_i) any sum of the four e_j (x) e_k and eps(e_i) any scalar:
    16 * 16 * 2 * 2 = 1,024 candidates, passing and failing."""
    S = bool_semiring() if base == "BOOL" else zmod(2)
    pairs = list(itertools.product(range(2), range(2)))
    sums = [[(j, S.one, k) for bit, (j, k) in enumerate(pairs) if mask >> bit & 1] for mask in range(16)]
    passing = failing = 0
    for d0, d1 in itertools.product(sums, sums):
        for eps in itertools.product(S.elements, S.elements):
            rep = _assert_same(_linear_semicoalgebra(S, ["a", "b"], "C", [d0, d1], list(eps)))
            passing += rep.ok
            failing += not rep.ok
    assert passing + failing == 1024 and passing and failing


def test_an_epsilon_off_the_base_fails_the_counit_checks():
    """An epsilon value outside S has no position in S: the counit scans
    compare it as an element and the triangles are summed on elements, so
    the report is the element-level one, witnesses included."""
    C = gallery_coring("grouplike_bool_2")
    bad = C.mutate(eps={C.carrier.elements()[1]: 5})
    rep = _assert_same(bad)
    assert [c.name for c in rep.failures()] == ["counit-additive", "counit-law"]
    assert rep.checks[5].witness == ("left", ((0, 1),), ((0, 5),))


@pytest.mark.parametrize(
    "name, v", [("sweedler_id", 2), ("sweedler_id", "z"), ("grouplike_bool_2", "z")], ids=["2", "z", "grouplike-z"]
)
def test_an_epsilon_the_carrier_cannot_act_by_is_a_format_error(name, v):
    """sweedler_id's table carrier has no action by 2 or by "z": both
    checks raise a FormatError naming c and eps(c), not a bare KeyError or
    TypeError from the element fallbacks.  grouplike_bool_2's free carrier
    acts by "z" through Python's operators, but BOOL cannot add "z", so
    only check_semicoring, whose counit scans add the values, raises; no
    Delta term has c at its right, so the comodule check is ok."""
    C0 = gallery_coring(name)
    c = C0.carrier.elements()[-1]
    C = C0.mutate(eps={c: v})
    with pytest.raises(FormatError, match=re.escape(f"eps({c!r}) = {v!r}")):
        check_semicoring(C)
    if name == "grouplike_bool_2":
        assert check_comodule(coring_as_comodule(C)).ok
        for w in (2, 5):  # values BOOL can add keep their report
            rep = check_semicoring(C0.mutate(eps={c: w}))
            assert [(k.name, k.witness) for k in rep.failures()] == [("counit-additive", (((0, 1),), ((1, 0),)))]
    else:
        with pytest.raises(FormatError, match=re.escape(f"eps({c!r}) = {v!r}")):
            check_comodule(coring_as_comodule(C))


def test_coaction_scans_of_the_gallery_corings_over_themselves():
    for name in GALLERY_NAMES:
        if name == "counterexample_4" or name.startswith("words"):
            continue
        M = coring_as_comodule(gallery_coring(name))
        els, T = M.carrier.elements(), M.mc().result
        add = reference_unpreserved(M.rho_norm, M.carrier.add, T.add, itertools.product(els, els))
        acts = itertools.product(els, M.coring.base.elements)
        act = reference_unpreserved(M.rho_norm, M.carrier.act, T.act, acts, scalar=True)
        rep = check_comodule(M)
        assert [(c.ok, c.witness) for c in rep.checks[:2]] == [(add is None, add), (act is None, act)]


def reference_nonassociative(M):
    """The first element triple (x, y, z), in M.elements() order, with
    (x + y) + z != x + (y + z), or None: the law as every triple."""
    els = M.elements()
    plus = {(x, y): M.add(x, y) for x in els for y in els}
    triples = itertools.product(els, repeat=3)
    return next(((x, y, z) for x, y, z in triples if plus[plus[x, y], z] != plus[x, plus[y, z]]), None)


def _assert_same_associativity(M):
    rep = check_semimodule_axioms(M)
    check = next(c for c in rep.checks if c.name == "add-associative")
    w = reference_nonassociative(M)
    assert (check.ok, check.witness) == (w is None, w), M.name
    assert not rep.sampled or M.base.elements is None
    return check


@pytest.mark.parametrize("S", [bool_semiring(), zmod(2)], ids=lambda S: S.name)
def test_associativity_on_small_modules_and_their_mutants(S):
    """Every module with at most 4 elements, and every table made from one
    by setting a + b = b + a = c for non-zero a, b (the zero stays the
    identity, the law may break)."""
    verdicts = []
    for M in enumerate_modules(S, 4):
        assert _assert_same_associativity(M).ok
        atom = M.atoms[0]
        els = atom.elements()
        add = {(a, b): atom.add(a, b) for a in els for b in els}
        act = {(a, s): atom.act(a, s) for a in els for s in S.elements}
        nonzero = [a for a in els if a != atom.zero]
        for (a, b), c in itertools.product(itertools.combinations_with_replacement(nonzero, 2), els):
            mutant = dict(add)
            mutant[a, b] = mutant[b, a] = c
            verdicts.append(_assert_same_associativity(table_module(S, els, mutant, act, name=f"{M.name}[{a}+{b}={c}]")).ok)
    assert True in verdicts and False in verdicts


def test_associativity_on_the_mutation_corpus_carriers():
    carriers = {}
    for _, C in mutation_corpus():
        M = C.carrier
        carriers.setdefault((M.base.name, repr([a.describe() for a in M.atoms])), M)
    assert len(carriers) == 6  # poly1 and poly2 share ZMOD(2)^4, words1..3 BOOL^7
    for M in carriers.values():
        assert _assert_same_associativity(M).ok


@pytest.mark.parametrize("n", [5, 40, 41, 42, 260])
def test_associativity_of_a_max_table_with_one_wrong_sum(n):
    """Sum max except 1 + 2 = 2 + 1 = 4: (1 + 2) + 3 = 4 but 1 + (2 + 3) =
    3.  At 41 elements and more the check once drew one random z per pair
    and passed; 260 elements take array rows."""
    els = list(range(n))
    add = {(a, b): max(a, b) for a in els for b in els}
    add[1, 2] = add[2, 1] = 4
    B = bool_semiring()
    M = table_module(B, els, add, {(a, s): a * s for a in els for s in B.elements})
    assert _assert_same_associativity(M).witness == ((1,), (2,), (3,))
