from fractions import Fraction

import pytest

from semikernel.errors import FormatError
from semikernel.gallery import gallery_coring
from semikernel.semicomodules import (
    Semicomodule,
    check_comodule,
    cofree_comodule,
    colinear_maps,
    coring_as_comodule,
)
from semikernel.semicorings import (
    basis_elem,
    boolean_word_semicoalgebra,
    counterexample_semicoalgebra,
    grouplike_semicoalgebra,
    sweedler_semicoring,
)
from semikernel.semimodules import (
    enumerate_modules,
    free_semimodule,
    hom_enumerate,
    semiring_module,
    table_module,
    zero_module,
)
from semikernel.semirings import SemiringMorphism, bool_semiring
from semikernel.tensors import tensor
from semikernel.pairings import (
    MeasuringPairing,
    alpha_certify,
    alpha_check,
    alpha_eval,
    canonical_dual_pairing,
    colinear_are_linear_check,
    coring_in_dual_check,
    end_semiring_iso_check,
    finiteness_closure,
    induced_action,
    pairing_tensor,
    rat_property_suite,
    rational_part,
    restrict_to_base,
)

B = bool_semiring()
GL = gallery_coring("grouplike_bool_2")
P = canonical_dual_pairing(GL)


def test_pairing_verifies():
    assert P.verify().ok


def test_alpha_examples():
    # free modules over the base always pass
    assert alpha_check(P, semiring_module(B))["injective"]
    rep = alpha_certify(P, [semiring_module(B), free_semimodule(B, 2)])
    assert rep["alpha_on_family"]
    # the zero module passes vacuously
    r0 = alpha_check(P, zero_module(B))
    assert r0["injective"] and r0["subtractive"]


def test_alpha_failure_on_counterexample_pairing():
    """The counit pairing over the NAT + CYCLIC(n) coalgebra kills torsion:
    a nonzero class maps to the zero functional."""
    from semikernel.semimodules import cyclic_module
    from semikernel.semirings import nat
    from semikernel.structured import rule_tensor

    N = nat()
    C = counterexample_semicoalgebra(4)
    M = cyclic_module(N, 4)
    TZ = rule_tensor(M, C.carrier)
    # evaluation through the counit: alpha(z (x) c)(k) = z * k * eps(c)
    witness = (0, 1)  # the class of 1 in the CYC (x) CYC component
    assert witness != TZ.result.zero
    # all counit evaluations vanish on it: eps kills the cyclic atom
    assert C.eps_formal((0, 1)) == 0
    # and the formal collapse for M = Q/Z: q (x) (0, 1) is already zero
    from semikernel.semimodules import qmodz_module

    Qz = qmodz_module(N)
    TQ = rule_tensor(Qz, C.carrier)
    assert TQ.pure((Fraction(1, 3),), (0, 1)) == TQ.result.zero


def test_induced_action_tables():
    CC = coring_as_comodule(GL)
    MA = induced_action(P, CC)
    from semikernel.semimodules import check_semimodule_axioms

    assert check_semimodule_axioms(MA).ok
    # the action through the counit-unit eta is the underlying action
    x = basis_elem(GL.carrier, 0)
    one = P.asemiring.one
    assert MA.act((x,), one) == (x,)
    assert colinear_are_linear_check(P, CC, CC)


def test_induced_action_trivial_coring_factors_through_counit():
    SW = sweedler_semicoring(SemiringMorphism(B, B, lambda x: x))
    PT = canonical_dual_pairing(SW)
    CC = coring_as_comodule(SW)
    MA = induced_action(PT, CC)
    for m in MA.elements():
        for a in PT.asemiring.elements:
            expected = CC.carrier.act(m[0], PT.ev[(a, _counit_one(SW))])
            assert MA.act(m, a) == (expected,)


def _counit_one(SW):
    return next(c for c in SW.carrier.elements() if SW.eps[c] == SW.base.one)


def test_deconcatenation_induced_action_is_suffix_derivative():
    W = boolean_word_semicoalgebra(1, 2)
    PW = canonical_dual_pairing(W)
    CC = coring_as_comodule(W)
    MA = induced_action(PW, CC)
    words = W.carrier.labels
    x = basis_elem(W.carrier, words.index("x"))
    y = basis_elem(W.carrier, words.index("y"))
    empty = basis_elem(W.carrier, words.index(""))
    # the functional dual to the letter x acts by stripping an x suffix
    fx = next(
        k
        for k in PW.asemiring.elements
        if dict(zip(W.carrier.elements(), k))[x] == 1
        and dict(zip(W.carrier.elements(), k))[y] == 0
        and dict(zip(W.carrier.elements(), k))[empty] == 0
    )
    assert MA.act((x,), fx) == (empty,)
    assert MA.act((y,), fx) == (W.carrier.zero,)


def test_rational_part_roundtrip_gallery():
    fam = [
        coring_as_comodule(GL),
        cofree_comodule(semiring_module(B), GL),
        cofree_comodule(free_semimodule(B, 2), GL),
    ]
    for M in fam:
        MA = induced_action(P, M)
        MA_A = restrict_to_base(P, MA)
        rep = alpha_check(P, MA_A)
        rat = rational_part(P, MA, alpha_report=rep)
        assert len(rat.elements) == len(M.carrier.elements())
        # the recovered coaction is the original one, classwise
        T = rep["tensor"]
        for m in M.carrier.elements():
            acc = T.result.zero
            for (m1, c1), mult in M.coaction[m]:
                acc = T.result.add(acc, T.result.times_int(T.pure((m1,), c1), mult))
            assert rat.rho_class[(m,)] == acc


def test_rational_part_evaluates_alpha_once_per_tensor_and_scalar(monkeypatch):
    """rational_part looks each element up among the alpha values that
    alpha_check evaluated, rather than evaluating them again."""
    from semikernel import pairings

    calls = []

    def counted(P, M_A, T, t, a):
        calls.append((t, a))
        return alpha_eval(P, M_A, T, t, a)

    monkeypatch.setattr(pairings, "alpha_eval", counted)
    MA = induced_action(P, coring_as_comodule(GL))
    rat = rational_part(P, MA)
    assert len(rat.elements) == len(GL.carrier.elements())
    T = tensor(restrict_to_base(P, MA), GL.carrier, over=P.base)
    assert len(calls) == len(set(calls)) == len(T.result.elements()) * len(P.asemiring.elements)


def test_rational_part_proper_subobject():
    """An idempotent extension of Z/2 paired through its projection: only the
    annihilator of the extra idempotent is rational in the regular module."""
    from semikernel.semirings import semiring_from_tables, zmod

    Z2 = zmod(2)
    els = [(u, v) for u in (0, 1) for v in (0, 1)]  # u + v t with t^2 = t
    add = {(x, y): ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2) for x in els for y in els}

    def mul(x, y):
        u, v = x
        up, vp = y
        return ((u * up) % 2, (u * vp + v * up + v * vp) % 2)

    A2 = semiring_from_tables(
        "Z2[t]", els, add, {(x, y): mul(x, y) for x in els for y in els}, (0, 0), (1, 0)
    )
    SW = sweedler_semicoring(SemiringMorphism(Z2, Z2, lambda x: x))
    cels = SW.carrier.elements()
    ev = {(a, c): Z2.mul(a[0], SW.eps[c]) for a in A2.elements for c in cels}
    eta = {0: (0, 0), 1: (1, 0)}
    PP = MeasuringPairing(A2, SW, ev, eta, name="Z2[t]-pairing")
    assert PP.verify().ok
    M = table_module(
        A2,
        A2.elements,
        {(a, b): A2.add(a, b) for a in A2.elements for b in A2.elements},
        {(m, a): A2.mul(m, a) for m in A2.elements for a in A2.elements},
        name="regular",
    )
    rat = rational_part(PP, M)
    # exactly the annihilator of t: 0 and 1 + t
    assert rat.elements == frozenset({((0, 0),), ((1, 1),)})


def test_rat_property_suite_small():
    fam = enumerate_modules(P.asemiring, 3)
    rep = rat_property_suite(P, fam)
    assert rep.ok, rep.failures()


def test_coring_is_rational_part_of_dual():
    assert coring_in_dual_check(P).ok


def test_end_semiring_isomorphism():
    for name in ("grouplike_bool_2", "coext_bool", "sweedler_id"):
        assert end_semiring_iso_check(gallery_coring(name)).ok, name


def test_pairing_tensor_unit():
    GL1 = grouplike_semicoalgebra(B, ["x"])
    P1 = canonical_dual_pairing(GL1)
    PP = pairing_tensor(P1, P1)
    assert PP.verify().ok
    # evaluation formula spot check: <v' (x) v, w (x) w'> = <v, w <v', w'>>
    a = next(iter(PP.asemiring.elements))
    c = next(iter(PP.coring.carrier.elements()))
    assert (a, c) in PP.ev
    # unit pairing: tensoring with the dual of the trivial coring keeps sizes
    SW = sweedler_semicoring(SemiringMorphism(B, B, lambda x: x))
    PT = canonical_dual_pairing(SW)
    PU = pairing_tensor(P1, PT)
    assert len(PU.asemiring.elements) == len(P1.asemiring.elements)
    assert len(PU.coring.carrier.elements()) == len(P1.coring.carrier.elements())
    assert PU.verify().ok


def test_finiteness_closure_cases():
    CC = coring_as_comodule(GL)
    x = basis_elem(GL.carrier, 0)
    N = finiteness_closure(P, CC, [x])
    assert len(N.carrier.elements()) == 2  # the span of one group-like point
    N0 = finiteness_closure(P, CC, [GL.carrier.zero])
    assert len(N0.carrier.elements()) == 1
    Nall = finiteness_closure(P, CC, list(GL.carrier.elements()))
    assert len(Nall.carrier.elements()) == len(GL.carrier.elements())


def test_finiteness_closure_hypothesis_failure():
    """A comodule whose induced module has a non-subtractive submodule is
    rejected; the closure construction only applies to completely
    subtractive carriers."""
    CC = coring_as_comodule(GL)
    car = CC.carrier
    from semikernel.semimodules import direct_sum
    from semikernel.util import fs_make

    D, injs, projs = direct_sum([car, car])
    coaction = {}
    T = None
    for x in D.elements():
        terms = []
        for i, pr in enumerate(projs):
            m = pr(x)
            for (m1, c1), mult in CC.coaction[m]:
                terms.append(((injs[i](m1), c1), mult))
        coaction[x] = fs_make(terms)
    M2 = Semicomodule(GL, D, coaction, name="C+C")
    assert check_comodule(M2).ok
    with pytest.raises(FormatError):
        finiteness_closure(P, M2, [D.zero])


def test_colinear_equals_script_linear():
    """Over the alpha-certified canonical pairing, the colinear maps between
    gallery comodules are exactly the maps linear over the pairing semiring
    (double enumeration)."""
    fam = [coring_as_comodule(GL), cofree_comodule(semiring_module(B), GL)]
    for M in fam:
        for N in fam:
            colin = colinear_maps(M, N)
            MA = induced_action(P, M)
            NA = induced_action(P, N)
            script = hom_enumerate(MA, NA)
            colin_graphs = {
                tuple((x, f(x)) for x in M.carrier.elements()) for f in colin
            }
            script_graphs = {
                tuple((m[0], g(m)[0]) for m in MA.elements()) for g in script
            }
            assert colin_graphs == script_graphs, (M.name, N.name)


def test_alpha_family_member_is_uniformly_flat():
    """Every coring participating in an alpha-certified family pairing passes
    the uniformly-flat probe on the family-derived uniform monomorphisms."""
    from semikernel.semimodules import LinearMap, scalar_to
    from semikernel.tensors import flatness_probe

    SM = semiring_module(B)
    F2 = free_semimodule(B, 2)
    assert alpha_certify(P, [SM, F2])["alpha_on_family"]
    incl = LinearMap(SM, F2, lambda s: ((s[0][0], 0),), name="e1")
    rep = flatness_probe(GL.carrier, [incl])
    assert rep["mono_flat_on_family"] and rep["uniformly_flat_on_family"]


def _raising(exc):
    calls = []

    def enumerate_submodules(M, cap=4096):
        calls.append(M)
        raise exc(f"stand-in failure on {M.name}")

    return enumerate_submodules, calls


def test_rat_property_suite_raises_a_broken_lattice_walk(monkeypatch):
    import semikernel.semimodules as sm

    fake, calls = _raising(FormatError)
    monkeypatch.setattr(sm, "enumerate_submodules", fake)
    with pytest.raises(FormatError, match="stand-in failure"):
        rat_property_suite(P, enumerate_modules(P.asemiring, 2))
    assert calls


def test_rat_property_suite_falls_back_past_the_submodule_cap(monkeypatch):
    import semikernel.semimodules as sm
    from semikernel.errors import UnsupportedError

    fake, calls = _raising(UnsupportedError)
    monkeypatch.setattr(sm, "enumerate_submodules", fake)
    fam = enumerate_modules(P.asemiring, 2)
    rep = rat_property_suite(P, fam)
    assert rep.ok, rep.failures()
    assert len(calls) == len(fam)


def test_rat_property_suite_is_exhaustive_below_the_cap():
    rep = rat_property_suite(P, enumerate_modules(P.asemiring, 3))
    assert rep.ok and not rep.sampled
    assert "sampled" not in repr(rep)


@pytest.mark.parametrize("cap", [None, 1])
def test_rat_property_suite_is_sampled_past_the_submodule_cap(monkeypatch, cap):
    """A family member with more submodules than the cap runs the criterion
    on two of them, and the report says it is sampled: past a stand-in that
    always raises, and past the real walk with a cap of 1."""
    import semikernel.semimodules as sm
    from semikernel.errors import UnsupportedError

    walk = sm.enumerate_submodules
    if cap is None:
        fake, _ = _raising(UnsupportedError)
    else:
        def fake(M, cap=cap):
            return walk(M, cap=cap)
    monkeypatch.setattr(sm, "enumerate_submodules", fake)
    fam = enumerate_modules(P.asemiring, 2)
    rep = rat_property_suite(P, fam)
    assert rep.ok and rep.sampled
    assert repr(rep).endswith("ok sampled>")


def test_criterion_8_family_stays_below_the_submodule_cap():
    """The acceptance family of criterion 8 never reaches the fallback."""
    fam = enumerate_modules(P.asemiring, 4)
    assert not rat_property_suite(P, fam).sampled
