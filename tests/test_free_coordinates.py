"""Comodules over free corings on coordinates against the saturation route.

When the coring's carrier has certified coordinates C = S^n
(`Indexed.coordinates`), `check_comodule` holds M (x) C as M^n and M (x) C
(x) C as (M^n)^n on M's positions, and `comodule_coequalizer` checks its
induced coaction as the colinearity square of the projection, class by
class.  The references below are the route they replaced, through the
computed tensors: rho(m) at its position in the computed M (x) C, the
coassociativity pushes through the lazy M (x) C (x) C, the coequalizer's
coaction pushed through the computed Q (x) C (`TensorProduct.descend`) and
the equalizer's lifted from the computed M (x) C.  Both must give the same
checks (name, verdict, witness), coactions and failure messages on every
certified gallery coring over itself, the cofree X (x) C for X = B^1, B^2
and the 3-chain, every (co)equalizer of the three hom-search ambients, and
the Delta and epsilon mutants of grouplike_bool_2, coext_bool and
coext_zmod2 with their coequalizers against the identity.
"""
import itertools

import pytest

from semikernel.errors import CertificateError, FormatError
from semikernel.gallery import GALLERY_NAMES, gallery_coring, mutation_corpus
from semikernel.presentations import MonoidPresentation
from semikernel import semicomodules
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
from semikernel.semirings import bool_semiring, zmod
from semikernel.tensors import tensor, tensor_multi
from semikernel.util import fold, fs_make, ordkey, unpreserved_rows
from test_counit_positions import reference_counit

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


def reference_equalizer(f, g, M, N):
    """The equalizer's coaction, rho(m) pushed through the computed M (x) C."""
    C = M.coring
    E = sub_table(M.carrier, [m for m in M.carrier.elements() if f(m) == g(m)], name="E")
    T = tensor(M.carrier, C.carrier, over=C.base)
    lift, collision, TE = lift_coaction(E, C, LinearMap(E, M.carrier, lambda x: x[0]), T)
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


def test_coactions_on_a_carrier_without_coordinates_fail_coassociativity_as_the_reference():
    """sweedler_id's carrier has no coordinates, so check_comodule pushes
    coassociativity through the lazy M (x) C (x) C.  Of the 256 coactions on
    its two elements whose terms m' (x) c have multiplicity 0 or 1, 48 fail
    there, each with the reference's checks; rho(e0) = e1 (x) e1 with
    rho(e1) = 0 fails at e0."""
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


def test_carriers_without_coordinates():
    assert gallery_coring("sweedler_id").carrier.indexed().coordinates is None
    frees = [free_semimodule(B, r) for r in range(3)]
    seen = 0
    for M in enumerate_modules(B, 4):
        if not any(len(F.elements()) == len(M.elements()) and find_isomorphism(M, F) for F in frees):
            assert M.indexed().coordinates is None, M
            seen += 1
    assert seen
    F = free_semimodule(B, 2)
    left = Semimodule(B, F.atoms, name="left", act_left=lambda s, x: F.act(x, s))
    assert left.indexed().coordinates is None


# ---------------------------------------------------------------- work

def _count(monkeypatch):
    """Count MonoidPresentation builds (all, and those of the equalizer's
    E (x) C inside lift_coaction) and Semicomodule.mcc calls."""
    counts = {"presentations": 0, "in_lift": 0, "mcc": 0}
    init, lift, mcc = MonoidPresentation.__init__, semicomodules.lift_coaction, Semicomodule.mcc

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
    monkeypatch.setattr(Semicomodule, "mcc", counted_mcc)
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
    assert counts["mcc"] == 0


def test_a_carrier_without_coordinates_still_saturates(monkeypatch):
    counts = _count(monkeypatch)
    assert check_comodule(coring_as_comodule(gallery_coring("sweedler_id"))).ok
    assert counts["mcc"] == 1
