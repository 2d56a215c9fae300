"""Comodules over free corings on coordinates against the saturation route.

When the coring's carrier has certified coordinates C = S^n
(`Indexed.coordinates`), `check_comodule` holds M (x) C as M^n and M (x) C
(x) C as (M^n)^n on M's positions, and `comodule_coequalizer` checks its
induced coaction as the colinearity square of the projection, class by
class.  The references below are the route they replaced, through the
computed tensors: rho(m) at its position in the computed M (x) C, the
coassociativity pushes through the lazy M (x) C (x) C, the coequalizer's
coaction pushed through the computed Q (x) C (`TensorProduct.descend`) and
the equalizer's lifted from the computed M (x) C through
`TensorProduct.map_of` (`reference_lift`), which the kernel's
`lift_coaction` replaced with a lookup on positions.  Both must give the same
checks (name, verdict, witness), coactions and failure messages on every
certified gallery coring over itself, the cofree X (x) C for X = B^1, B^2
and the 3-chain, every (co)equalizer of the three hom-search ambients, and
the Delta and epsilon mutants of grouplike_bool_2, coext_bool and
coext_zmod2 with their coequalizers against the identity.
"""
import itertools
from types import SimpleNamespace

import pytest

from semikernel.atoms import TableAtom, two_sided
from semikernel.errors import CertificateError, FormatError, InternalInvariantError
from semikernel.gallery import GALLERY_NAMES, gallery_coring, mutation_corpus
from semikernel.presentations import MonoidPresentation
from semikernel import pairings, semicomodules
from semikernel.semicorings import _linear_semicoalgebra, sweedler_semicoring
from semikernel.semicomodules import (
    Semicomodule,
    check_comodule,
    cofree_comodule,
    colinear_maps,
    comodule_coequalizer,
    comodule_equalizer,
    coring_as_comodule,
    lift_coaction,
    verify_coequalizer_universal,
    verify_equalizer_universal,
)
from semikernel.semimodules import (
    LinearMap,
    Semimodule,
    cyclic_module,
    enumerate_modules,
    find_isomorphism,
    free_semimodule,
    hom_enumerate,
    identity_map,
    module_congruence_closure,
    quotient_by_congruence,
    sub_table,
    table_module,
)
from semikernel.semirings import SemiringMorphism, bool_semiring, nat, natcap, tropcap, zmod
from semikernel.tensors import TensorProduct, tensor, tensor_multi
from semikernel.util import fold, fs_make, ordkey, unpreserved_rows
import test_pairings
import test_semicomodules
from test_cayley_folds import _bool_pairs
from test_counit_positions import reference_counit
from test_semicorings import _noncommutative

B, Z2, Z3 = bool_semiring(), zmod(2), zmod(3)
GL, CX = gallery_coring("grouplike_bool_2"), gallery_coring("coext_bool")
CHAIN3 = table_module(B, [0, 1, 2], {(a, b): max(a, b) for a in range(3) for b in range(3)},
                      {(a, s): a * s for a in range(3) for s in B.elements}, name="chain3")


def _ambients():
    return (coring_as_comodule(GL), coring_as_comodule(CX), cofree_comodule(free_semimodule(B, 1), GL))


# ---------------------------------------------------------------- references

def reference_checks(M):
    """check_comodule through the computed tensors, as (name, ok, witness)."""
    C, ix = M.coring, M.carrier.indexed()
    els = ix.elements
    T = tensor(M.carrier, C.carrier, over=C.base)
    P = T.result.indexed()
    rhobar = [T.position(M.coaction[m]) for m in els]
    add = unpreserved_rows(rhobar, ix.add, P.plus, els)
    lin = unpreserved_rows(rhobar, ix.act, P.scale, els, C.base.elements)
    counit = reference_counit(M)
    T3 = tensor_multi([M.carrier, C.carrier, C.carrier], over=C.base, lazy=True)
    coassoc = None
    for m in els:
        rm = M.coaction[m]
        lhs = [((m11, c11, c1), k * n) for (m1, c1), k in rm for (m11, c11), n in M.coaction[m1]]
        rhs = [((m1, c11, c12), k * n) for (m1, c1), k in rm for (c11, c12), n in C.delta[c1]]
        if T3.push(lhs) != T3.push(rhs):
            coassoc = m
            break
    named = [("coaction-additive", add), ("coaction-linear", lin), ("counit-law", counit),
             ("coaction-splits", counit), ("coassociative", coassoc)]
    return [(name, w is None, w) for name, w in named]


def _first_failure(checks):
    return next(((name, w) for name, ok, w in checks if not ok), None)


def reference_coequalizer(f, g, M, N):
    """The coequalizer's coaction, descended through the computed Q (x) C."""
    C = N.coring
    cong = module_congruence_closure(N.carrier, [(f(m), g(m)) for m in M.carrier.elements()])
    Q, pi = quotient_by_congruence(N.carrier, cong)
    TQ = tensor(Q, C.carrier, over=C.base)
    classes = (sorted(cls, key=ordkey) for cls in cong.classes)

    def fail(q):
        return FormatError(f"induced coaction not well defined at {q}")

    coaction = {q: formal for q, _, formal in TQ.descend(classes, N.coaction, (pi, None), fail)}
    bad = _first_failure(reference_checks(Semicomodule(C, Q, coaction, mc=TQ)))
    if bad is not None:
        raise FormatError(f"coequalizer fails comodule axioms: {bad}")
    return coaction


def reference_lift(E, C, incl, T):
    """lift_coaction element by element: each class of the computed
    E (x) C pushed through TensorProduct.map_of, which checks the induced
    map with LinearMap.check, and preimages kept by element of T."""
    TE = tensor(E, C.carrier, over=C.base)
    FI = TE.map_of([incl, identity_map(C.carrier)], T)
    pre = {}
    collision = None
    for x in TE.result.elements():
        y = FI(x)
        if y in pre and collision is None:
            collision = x
        pre.setdefault(y, []).append(x)

    def lift(target, fail):
        coaction = {}
        for e in E.elements():
            cands = pre.get(target(e), ())
            if len(cands) != 1:
                raise fail(e)
            coaction[e] = fs_make(TE.rep(cands[0]))
        return coaction

    return lift, collision, TE


def reference_equalizer(f, g, M, N):
    """The equalizer's coaction, rho(m) pushed through the computed M (x) C."""
    C = M.coring
    E = sub_table(M.carrier, [m for m in M.carrier.elements() if f(m) == g(m)], name="E")
    T = tensor(M.carrier, C.carrier, over=C.base)
    lift, collision, TE = reference_lift(E, C, LinearMap(E, M.carrier, lambda x: x[0]), T)
    if collision is not None:
        raise CertificateError(f"tensoring does not preserve the equalizer inclusion (collapse at {collision})")
    coaction = lift(
        lambda e: T.push(M.coaction[e[0]]),
        lambda e: CertificateError(f"coaction of {e} does not restrict to the equalizer"),
    )
    return coaction, reference_checks(Semicomodule(C, E, coaction, mc=TE))


def _checks(M):
    return [(c.name, c.ok, c.witness) for c in check_comodule(M).checks]


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as e:  # the routes must raise alike too
        return "raises", type(e), str(e)


# ---------------------------------------------------------------- families

def _certified(M):
    return M.coring.carrier.indexed().coordinates is not None


def _restated(M):
    """M with each term k * (m (x) c) of its coaction written 3k * (m (x) c),
    and 2 * (top (x) top) added to each: the same coaction over ZMOD(2)."""
    top = (M.carrier.elements()[-1], M.coring.carrier.elements()[-1])
    rho = {m: tuple((pair, 3 * k) for pair, k in terms) + ((top, 2),) for m, terms in M.coaction.items()}
    return Semicomodule(M.coring, M.carrier, rho, name=f"{M.name}[3k+2]")


def _comodules():
    for name in GALLERY_NAMES:
        C = gallery_coring(name)
        if not C.structured and C.carrier.indexed().coordinates is not None:
            yield name, coring_as_comodule(C)
    for C in (GL, CX):
        for X in (free_semimodule(B, 1), free_semimodule(B, 2), CHAIN3):
            yield f"{X.name}(x){C.name}", cofree_comodule(X, C)
    CZ = coring_as_comodule(gallery_coring("coext_zmod2"))
    yield "coext_zmod2[3k+2]", _restated(CZ)


MUTANTS = [(n, C) for n, C in mutation_corpus() if n.split(":")[0] in ("grouplike_bool_2", "coext_bool", "coext_zmod2")]
COMODULES = list(_comodules()) + [(n, coring_as_comodule(C)) for n, C in MUTANTS]


@pytest.mark.parametrize("M", [M for _, M in COMODULES], ids=[n for n, _ in COMODULES])
def test_check_comodule_matches_the_saturation_route(M):
    assert _certified(M)
    assert _outcome(_checks, M) == _outcome(reference_checks, M)


def _limit_cases():
    for A in _ambients():
        ends = colinear_maps(A, A)
        for f, g in itertools.product(ends, ends):
            yield f"{A.name}:{f.name}:{g.name}", (f, g, A)


LIMITS = list(_limit_cases())


def test_the_ambients_have_48_pairs():
    assert len(LIMITS) == 48


@pytest.mark.parametrize("case", [c for _, c in LIMITS], ids=[n for n, _ in LIMITS])
def test_criterion_9_limits_match_the_saturation_route(case):
    f, g, A = case
    coeq, _ = comodule_coequalizer(f, g, A, A)
    assert coeq.coaction == reference_coequalizer(f, g, A, A)
    assert _checks(coeq) == reference_checks(coeq)
    eq, _ = comodule_equalizer(f, g, A, A)
    coaction, checks = reference_equalizer(f, g, A, A)
    assert eq.coaction == coaction
    assert _checks(eq) == checks


def _lift_outcome(route, E, C, incl, T, target):
    """(collision, the lifted coaction or the lift's failure), or the
    message the route raises."""
    try:
        lift, collision, _ = route(E, C, incl, T)
    except InternalInvariantError as e:
        return "raises", str(e)
    return collision, _outcome(lift, target, lambda e: CertificateError(f"no lift at {e}"))


def _assert_lifts_match(E, C, incl, T, target):
    kernel = _lift_outcome(lift_coaction, E, C, incl, T, target)
    assert kernel == _lift_outcome(reference_lift, E, C, incl, T, target)
    return kernel


@pytest.mark.parametrize("case", [c for _, c in LIMITS], ids=[n for n, _ in LIMITS])
def test_the_equalizer_lift_matches_the_reference_lift(case):
    f, g, A = case
    E = sub_table(A.carrier, [m for m in A.carrier.elements() if f(m) == g(m)], name="E")
    incl = LinearMap(E, A.carrier, lambda x: x[0], name="eq-incl")
    collision, (kind, *_) = _assert_lifts_match(E, A.coring, incl, A.mc(), lambda e: A.rho_norm(e[0]))
    assert collision is None and kind == "value"


def test_the_rational_part_and_closure_lifts_match_the_reference_lift(monkeypatch):
    """Every lift that the rational-part and finiteness-closure tests make
    through pairings.lift_coaction, recorded with its target."""
    cases, lift_coaction_of = [], pairings.lift_coaction

    def recorded(E, C, incl, T):
        lift, collision, TE = lift_coaction_of(E, C, incl, T)

        def lift_recorded(target, fail):
            cases.append((E, C, incl, T, target))
            return lift(target, fail)

        return lift_recorded, collision, TE

    monkeypatch.setattr(pairings, "lift_coaction", recorded)
    for test in (test_pairings.test_rational_part_roundtrip_gallery, test_pairings.test_rational_part_proper_subobject,
                 test_pairings.test_coring_is_rational_part_of_dual, test_pairings.test_finiteness_closure_cases,
                 test_semicomodules.test_rational_part_lift_pushes_back_to_the_coaction,
                 test_semicomodules.test_finiteness_closure_lift_pushes_back_to_the_coaction):
        test()
    assert len(cases) == 14
    for case in cases:
        assert _assert_lifts_match(*case)[1][0] == "value"


@pytest.mark.parametrize(
    "images, outcome",
    [({0: 0, 2: 2, 4: 4, 6: 6}, "collision"), ({0: 0, 2: 2, 4: 2, 6: 6}, "raises"), ({0: 2, 2: 4, 4: 6, 6: 0}, "raises")],
    ids=["inclusion", "not-additive", "sends-zero-elsewhere"],
)
def test_the_nat_lifts_match_the_reference_lift(images, outcome):
    """2Z/8 in Z/8 over NAT tensored with Z/4 (test_semicomodules' collision
    and trap inputs): the inclusion collapses, and the two maps that are
    not linear are trapped with the same message."""
    Nat = nat()
    C8, C4 = cyclic_module(Nat, 8), cyclic_module(Nat, 4)
    els = [(0,), (2,), (4,), (6,)]
    E = table_module(Nat, els, {(a, b): C8.add(a, b) for a in els for b in els})
    incl = LinearMap(E, C8, lambda x: (images[x[0][0]],), name="incl")
    T = tensor(C8, C4)
    got = _assert_lifts_match(E, SimpleNamespace(carrier=C4, base=Nat), incl, T, lambda e: T.result.zero)
    if outcome == "raises":
        assert got == ("raises", got[1]) and got[1].startswith("tensor map not well defined: (inclxid): not linear: ('additive'")
    else:
        assert got[0] is not None and got[1][0] == "raises"


def _mutant_coequalizers():
    """The coequalizer of the identity and each endomorphism of every
    mutant comodule: their coactions need not descend."""
    for name, C in MUTANTS:
        M = coring_as_comodule(C)
        for h in hom_enumerate(M.carrier, M.carrier):
            yield f"{name}:id:{h.name}", (identity_map(M.carrier), h, M)


MUTANT_LIMITS = list(_mutant_coequalizers())


def _coequalizer_coaction(f, g, M):
    return comodule_coequalizer(f, g, M, M)[0].coaction


@pytest.mark.parametrize("case", [c for _, c in MUTANT_LIMITS], ids=[n for n, _ in MUTANT_LIMITS])
def test_mutant_coequalizers_match_the_saturation_route(case):
    f, g, M = case
    assert _outcome(_coequalizer_coaction, f, g, M) == _outcome(reference_coequalizer, f, g, M, M)


def test_the_cases_reach_every_verdict():
    """A comodule that is not coassociative, and a coequalizer whose induced
    coaction is not well defined."""
    assert any(not ok for _, M in COMODULES for name, ok, _ in reference_checks(M) if name == "coassociative")
    outcomes = [_outcome(reference_coequalizer, f, g, M, M) for _, (f, g, M) in MUTANT_LIMITS]
    assert any(o[0] == "raises" and "not well defined" in o[2] for o in outcomes)
    assert any(o[0] == "value" for o in outcomes)


def test_coactions_on_sweedler_id_fail_coassociativity_as_the_reference():
    """sweedler_id's carrier, B (x)_B B = B, is certified of rank 1, so
    check_comodule folds coassociativity in coordinates.  Of the 256
    coactions on its two elements whose terms m' (x) c have multiplicity 0
    or 1, 48 fail there, each with the reference's checks, which push
    through the lazy M (x) C (x) C; rho(e0) = e1 (x) e1 with rho(e1) = 0
    fails at e0."""
    C = gallery_coring("sweedler_id")
    els = C.carrier.elements()
    pairs = list(itertools.product(els, els))
    sums = [fs_make((p, 1) for p, keep in zip(pairs, mask) if keep) for mask in itertools.product((0, 1), repeat=4)]
    failed = {}
    for rho in itertools.product(sums, repeat=2):
        M = Semicomodule(C, C.carrier, dict(zip(els, rho)))
        checks = _checks(M)
        assert checks == reference_checks(M)
        if not checks[-1][1]:
            failed[rho] = checks[-1]
    assert len(failed) == 48
    assert failed[((((els[1], els[1]), 1),), ())] == ("coassociative", False, els[0]) == ("coassociative", False, ((0,),))


# ---------------------------------------------------------------- certificate

def _round_trips(M):
    """Indexed.coordinates of M, checked to round-trip at every position."""
    ix = M.indexed()
    gens, digits = ix.coordinates
    S = M.base
    n = 0
    for c in range(len(S.elements) ** len(gens)):
        assert fold(ix.plus, ix.zero, ((ix.scale(g, k), 1) for g, k in zip(gens, digits(c)))) == c
        n += 1
    return n


def _linear_bijection(M):
    """The digits of Indexed.coordinates of M as a map M -> S^n, checked
    bijective, additive and S-linear on every position; returns n."""
    ix, S = M.indexed(), M.base
    gens, digits = ix.coordinates
    plus, times = S.tables()
    n, q = len(ix.elements), len(S.elements)
    d = [tuple(digits(c)) for c in range(n)]
    assert len(set(d)) == n == q ** len(gens)
    for p, r in itertools.product(range(n), repeat=2):
        assert d[ix.plus(p, r)] == tuple(plus[a][b] for a, b in zip(d[p], d[r]))
    for p, k in itertools.product(range(n), range(q)):
        assert d[ix.scale(p, k)] == tuple(times[a][k] for a in d[p])
    return len(gens)


@pytest.mark.parametrize("S", [B, Z2, Z3, natcap(2), tropcap(2), _noncommutative()], ids=lambda S: S.name)
@pytest.mark.parametrize("rank", [1, 2])
def test_a_free_atom_is_certified_by_its_unit_vectors(S, rank):
    """Over any finite base, commutative or not, and over bases (TROPCAP)
    whose sum the greedy generators cannot read a basis off."""
    F = free_semimodule(S, rank)
    ix = F.indexed()
    assert [ix.element(g) for g in ix.coordinates[0]] == F.basis
    assert _linear_bijection(F) == rank
    assert _round_trips(F) == len(S.elements) ** rank


@pytest.mark.parametrize("S", [B, Z2], ids=lambda S: S.name)
def test_a_module_of_four_or_fewer_elements_is_certified_exactly_when_free(S):
    frees = [free_semimodule(S, r) for r in range(3)]
    ranks = []
    for M in enumerate_modules(S, 4):
        same = (r for r, F in enumerate(frees) if len(F.elements()) == len(M.elements()))
        rank = next((r for r in same if find_isomorphism(M, frees[r])), None)
        if rank is None:
            assert M.indexed().coordinates is None, M
        else:
            assert _linear_bijection(M) == rank, M
            ranks.append(rank)
    # over BOOL, M4#3 is B^2 with its top element before the unit vectors
    assert ranks == [0, 1, 2]


def _b2_table(changes=()):
    """B^2 as a table on 0, 1, 2, 3 = 0, (1,0), (0,1), (1,1), with the sums
    x + y = y + x and actions x * y set to v for each (x, op, y, v) in changes."""
    els = [(0, 0), (1, 0), (0, 1), (1, 1)]
    add = {(x, y): els.index(tuple(map(max, els[x], els[y]))) for x in range(4) for y in range(4)}
    act = {(x, s): x * s for x in range(4) for s in B.elements}
    for x, op, y, v in changes:
        (add if op == "+" else act)[(x, y)] = v
        if op == "+":
            add[(y, x)] = v
    return table_module(B, range(4), add, act, name="T")


def test_a_table_that_breaks_the_laws_is_not_certified():
    assert _linear_bijection(_b2_table()) == 2
    # M4#4, the 4-chain, is not free
    assert enumerate_modules(B, 4)[4].indexed().coordinates is None
    # not associative: (1 + 1) + 2 = 3 but 1 + (1 + 2) = 1 + 3 = 2, though
    # 1 and 2 span the other two elements one to one
    assert _b2_table([(1, "+", 3, 2)]).indexed().coordinates is None
    # not linear: 3 * 1 = 1
    assert _b2_table([(3, "*", 1, 1)]).indexed().coordinates is None


@pytest.mark.parametrize("S", [B, Z2, Z3], ids=lambda S: S.name)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_modules_have_coordinates(S, rank):
    F = free_semimodule(S, rank)
    assert F.indexed().radix is not None
    assert _round_trips(F) == len(S.elements) ** rank == len(F.elements())
    # S^rank as a sum of rank-1 atoms has no Radix: its greedy generators are certified
    G = Semimodule(S, free_semimodule(S, 1).atoms * rank, name="G")
    assert rank == 1 or G.indexed().radix is None
    assert _round_trips(G) == len(G.elements())


@pytest.mark.parametrize("name", ["coext_bool", "coext_zmod2", "words1_L2", "words2_L2", "words3_L2"])
def test_gallery_carriers_have_coordinates(name):
    car = gallery_coring(name).carrier
    assert _round_trips(car) == len(car.elements())


def _sweedler_tropcap1():
    """Sweedler's coring of BOOL -> TROPCAP(1), 0 -> oo and 1 -> 0: its
    6-element carrier is acted on differently on each side by TROPCAP(1)."""
    return sweedler_semicoring(SemiringMorphism(B, tropcap(1), {0: "oo", 1: 0}.__getitem__))


def test_carriers_without_coordinates():
    car = _sweedler_tropcap1().carrier
    assert two_sided(car.atoms[0]) and car.indexed().coordinates is None
    # B^2 as a table, and the same table with left rows of its own (0 * x = x):
    # only the first is certified, though both act on the right alike
    els = [(0, 0), (1, 0), (0, 1), (1, 1)]
    add = {(x, y): tuple(map(max, x, y)) for x in els for y in els}
    act = {(x, s): tuple(c * s for c in x) for x in els for s in B.elements}
    left = {(x, s): act[(x, 1 - s)] for x in els for s in B.elements}
    assert Semimodule(B, [TableAtom(B, els, add, act)]).indexed().coordinates is not None
    two = Semimodule(B, [TableAtom(B, els, add, act, left)], name="two-sided")
    assert two_sided(two.atoms[0]) and two.indexed().coordinates is None


def _saturated(M, N):
    return tensor(M, N, force_saturation=True).result


@pytest.mark.parametrize(
    "make, rank",
    [
        (lambda: _saturated(free_semimodule(B, 2), free_semimodule(B, 1)), 2),
        (lambda: _saturated(free_semimodule(Z2, 2), free_semimodule(Z2, 1)), 2),
        (lambda: _saturated(free_semimodule(Z3, 2), free_semimodule(Z3, 1)), 2),
        (lambda: _saturated(enumerate_modules(B, 4)[3], free_semimodule(B, 1)), 2),
        (lambda: gallery_coring("coext_bool").cc().result, 4),
        (lambda: gallery_coring("sweedler_id").carrier, 1),
        (lambda: gallery_coring("sweedler_id").cc().result, 1),
        (lambda: _sweedler_tropcap1().cc().result, None),
    ],
    ids=["BOOL^2(x)BOOL", "ZMOD(2)^2(x)ZMOD(2)", "ZMOD(3)^2(x)ZMOD(3)", "M4#3(x)BOOL", "coext_bool:CxC", "sweedler_id", "sweedler_id:CxC", "tropcap1:CxC"],
)
def test_saturation_results_are_certified_when_free(make, rank):
    """A saturation result is a plain table, acted on alike on both sides
    when its factors are, and certified when it is free.  The C (x) C of
    Sweedler's tropcap1 coring keeps left rows: it gets no certificate."""
    M = make()
    assert any(map(two_sided, M.atoms)) is (rank is None)
    if rank is None:
        assert M.indexed().coordinates is None
    else:
        assert _linear_bijection(M) == rank
        assert _round_trips(M) == len(M.elements())


def _noncommutative_comodules():
    """Comodules over the group-like coring on two points over the upper
    triangular BOOL matrices, which is certified free though its base is
    not commutative: Delta itself, and x -> x (x) e_p and x -> e_p (x) x."""
    S = _noncommutative()
    C = _linear_semicoalgebra(S, ["p", "q"], "GL(T2)", [[(0, S.one, 0)], [(1, S.one, 1)]], [S.one, S.one])
    e_p = ((S.one, S.zero),)
    els = C.carrier.elements()
    return [Semicomodule(C, C.carrier, dict(C.delta), name="Delta"),
            Semicomodule(C, C.carrier, {x: (((x, e_p), 1),) for x in els}, name="x(x)e_p"),
            Semicomodule(C, C.carrier, {x: (((e_p, x), 1),) for x in els}, name="e_p(x)x")]


@pytest.mark.parametrize("M", _noncommutative_comodules(), ids=lambda M: M.name)
def test_a_comodule_over_a_noncommutative_free_coring_matches_the_saturation_route(M):
    assert _certified(M)
    assert _checks(M) == reference_checks(M)


# ---------------------------------------------------------------- rho(m) by two routes

def compiled_rho(M, m):
    """rho(m) read off the compiled coaction: the element at rhobar(m) of
    the indexed M (x) C or, over a certified coring, the push of the sum of
    x_i (x) gens_i over the coordinates x_i of rhobar(m)."""
    c, ix, T = M.compiled, M.carrier.indexed(), M.mc()
    u = c.rhobar[ix.index[m]]
    if c.coords is None:
        return T.result.indexed().element(u)
    gen = M.coring.carrier.indexed().element
    return T.push(((ix.element(x), gen(g)), 1) for x, g in zip(u, c.coords[0]))


def _rho_comodules():
    """Each finite gallery coring over itself, the cofree B (x) GL, the
    coequalizer and equalizer of every criterion-9 pair, and the Sweedler
    coring of BOOL -> BxB over itself, a two-sided carrier without
    coordinates."""
    for name in GALLERY_NAMES:
        if not gallery_coring(name).structured:
            yield name, coring_as_comodule(gallery_coring(name))
    yield "B(x)GL", _ambients()[2]
    for name, (f, g, A) in LIMITS:
        yield f"Coeq:{name}", comodule_coequalizer(f, g, A, A)[0]
        yield f"Eq:{name}", comodule_equalizer(f, g, A, A)[0]
    yield "Sw(BxB/BOOL)", coring_as_comodule(sweedler_semicoring(SemiringMorphism(B, _bool_pairs(), lambda s: (s, s))))


def test_rho_norm_is_the_compiled_coaction_and_reads_nothing_compiled(monkeypatch):
    comodules = list(_rho_comodules())
    assert len(comodules) == 9 + 1 + 2 * 48 + 1  # nine of the gallery corings are finite
    Sw = comodules[-1][1]
    assert two_sided(Sw.carrier.atoms[0]) and not _certified(Sw)
    compiled = {(name, m): compiled_rho(M, m) for name, M in comodules for m in M.carrier.elements()}

    def refused(M):
        raise AssertionError("rho_norm read the compiled coaction")

    monkeypatch.setattr(Semicomodule, "compiled", property(refused))
    pushed = {(name, m): M.rho_norm(m) for name, M in comodules for m in M.carrier.elements()}
    assert pushed == compiled
    CC = coring_as_comodule(GL)
    assert [CC.rho_norm(c) for c in GL.carrier.elements()] == [compiled[GL.name, c] for c in GL.carrier.elements()]


# ---------------------------------------------------------------- work

def _count(monkeypatch):
    """Count MonoidPresentation builds (all, and those of the equalizer's
    E (x) C inside lift_coaction), Semicomodule.mcc calls and
    TensorProduct.map_of calls."""
    counts = {"presentations": 0, "in_lift": 0, "mcc": 0, "map_of": 0}
    init, lift, mcc, map_of = MonoidPresentation.__init__, semicomodules.lift_coaction, Semicomodule.mcc, TensorProduct.map_of

    def counted_init(self, *args, **kwargs):
        counts["presentations"] += 1
        init(self, *args, **kwargs)

    def counted_lift(*args):
        before = counts["presentations"]
        out = lift(*args)
        counts["in_lift"] += counts["presentations"] - before
        return out

    def counted_mcc(self):
        counts["mcc"] += 1
        return mcc(self)

    monkeypatch.setattr(MonoidPresentation, "__init__", counted_init)
    monkeypatch.setattr(semicomodules, "lift_coaction", counted_lift)
    def counted_map_of(self, *args):
        counts["map_of"] += 1
        return map_of(self, *args)

    monkeypatch.setattr(Semicomodule, "mcc", counted_mcc)
    monkeypatch.setattr(TensorProduct, "map_of", counted_map_of)
    return counts


def _criterion_9_query(f, g, A):
    coeq, pi = comodule_coequalizer(f, g, A, A)
    check_comodule(coeq)
    verify_coequalizer_universal(f, g, A, A, coeq, pi, [coeq])
    eq, iota = comodule_equalizer(f, g, A, A)
    check_comodule(eq)
    verify_equalizer_universal(f, g, A, A, eq, iota, [eq])


@pytest.mark.parametrize("index", range(3))
def test_a_criterion_9_query_solves_only_the_equalizer_word_problem(monkeypatch, index):
    A = _ambients()[index]
    ends = colinear_maps(A, A)
    A.mc()  # the ambient's M (x) C, which the equalizer's lift reads, is built once per ambient
    counts = _count(monkeypatch)
    _criterion_9_query(ends[0], ends[-1], A)
    assert counts["presentations"] == counts["in_lift"] == 1
    assert counts["mcc"] == counts["map_of"] == 0


def test_a_carrier_without_coordinates_still_saturates(monkeypatch):
    C = _sweedler_tropcap1()
    counts = _count(monkeypatch)
    assert check_comodule(coring_as_comodule(C)).ok
    assert counts["mcc"] == 1
