import time

import pytest

from semikernel.errors import FormatError, UnsupportedError
from semikernel.gallery import GALLERY_NAMES, gallery_coring, mutation_corpus
from semikernel.semimodules import (
    LinearMap,
    bool_module,
    cyclic_module,
    find_isomorphism,
    span,
)
from semikernel.semirings import (
    SemiringMorphism,
    bool_semiring,
    semiring_from_tables,
    tropcap,
    zmod,
)
from semikernel.semicorings import (
    basis_elem,
    boolean_word_semicoalgebra,
    check_semicoring,
    coideal_check,
    counterexample_semicoalgebra,
    dual_semiring,
    grouplike_semicoalgebra,
    polynomial_semicoalgebra,
    quotient_semicoring,
    semicoring_morphism_check,
    sweedler_semicoring,
    trivial_coextension,
)

B = bool_semiring()
Z2 = zmod(2)


def test_gallery_all_pass():
    for name in GALLERY_NAMES:
        C = gallery_coring(name)
        assert check_semicoring(C).ok, name


def test_grouplike_details():
    GL = grouplike_semicoalgebra(B, ["x", "y"])
    car = GL.carrier
    x = basis_elem(car, 0)
    y = basis_elem(car, 1)
    xy = car.add(x, y)
    # Delta(x + y) = x (x) x + y (x) y
    assert dict(GL.delta[xy]) == {(x, x): 1, (y, y): 1}
    assert GL.eps[x] == 1 and GL.eps[xy] == 1
    with pytest.raises(FormatError):
        grouplike_semicoalgebra(_noncommutative(), ["x"])


def _noncommutative():
    # 2x2 upper triangular pattern over BOOL: smallest noncommutative semiring
    els = [(a, b, d) for a in (0, 1) for b in (0, 1) for d in (0, 1)]
    add = {(u, v): tuple(max(x, y) for x, y in zip(u, v)) for u in els for v in els}

    def mul(u, v):
        a, b, d = u
        a2, b2, d2 = v
        return (a * a2, max(a * b2, b * d2), d * d2)

    mult = {(u, v): mul(u, v) for u in els for v in els}
    return semiring_from_tables("T2", els, add, mult, (0, 0, 0), (1, 0, 1))


def test_polynomial_variants():
    P1 = polynomial_semicoalgebra(Z2, 3, 1)
    P2 = polynomial_semicoalgebra(Z2, 3, 2)
    assert check_semicoring(P1).ok and check_semicoring(P2).ok
    # binomial comultiplication in characteristic 2: the middle term drops
    car = P2.carrier
    x2 = basis_elem(car, 2)
    terms = P2.delta[x2]
    pairs = {(a, b) for (a, b), _ in terms}
    x0 = basis_elem(car, 0)
    assert (x0, x2) in pairs and (x2, x0) in pairs
    assert all(a != basis_elem(car, 1) for (a, b) in pairs)  # (2 over 1) = 0 in Z/2
    # eps picks the constant coefficient
    v = (car.atoms[0].add(x2[0], basis_elem(car, 0)[0]),)
    assert P2.eps[v] == 1 and P2.eps[x2] == 0


def test_word_variants():
    W2 = boolean_word_semicoalgebra(2, 2)
    car = W2.carrier
    words = car.labels
    xy = basis_elem(car, words.index("xy"))
    empty = basis_elem(car, words.index(""))
    pairs = {(a, b) for (a, b), _ in W2.delta[xy]}
    x = basis_elem(car, words.index("x"))
    y = basis_elem(car, words.index("y"))
    assert pairs == {(empty, xy), (x, y), (xy, empty)}
    assert W2.eps[xy] == 0 and W2.eps[empty] == 1
    W3 = boolean_word_semicoalgebra(2, 3)
    pairs3 = {(a, b) for (a, b), _ in W3.delta[xy]}
    yx = basis_elem(car, words.index("yx"))
    assert pairs3 == {(empty, xy), (x, y), (y, x), (xy, empty)}
    W1 = boolean_word_semicoalgebra(2, 1)
    assert W1.eps[xy] == 1  # every word evaluates to 1 at (1,1)


def test_sweedler_identity_and_general():
    phi = SemiringMorphism(B, B, lambda x: x)
    SW = sweedler_semicoring(phi)
    assert check_semicoring(SW).ok
    assert len(SW.carrier.elements()) == 2
    # eps(1 (x) 1) = 1
    one = [c for c in SW.carrier.elements() if SW.eps[c] == B.one]
    assert one
    # nonidentity: the product semiring over its diagonal
    A = _product_bool()
    phi2 = SemiringMorphism(B, A, lambda s: (s, s))
    SW2 = sweedler_semicoring(phi2)
    assert len(SW2.carrier.elements()) == 16
    assert check_semicoring(SW2).ok


def test_sweedler_over_a_non_free_extension():
    # TROPCAP(1) has 3 elements, so it is not free over BOOL and A (x)_B A is
    # built on A as a (B, B)-bisemimodule
    phi = SemiringMorphism(B, tropcap(1), {0: "oo", 1: 0}.__getitem__)
    SW = sweedler_semicoring(phi)
    assert len(SW.carrier.elements()) == 6
    assert check_semicoring(SW).ok


def _product_bool():
    els = [(a, b) for a in (0, 1) for b in (0, 1)]
    add = {(u, v): (max(u[0], v[0]), max(u[1], v[1])) for u in els for v in els}
    mul = {(u, v): (u[0] * v[0], u[1] * v[1]) for u in els for v in els}
    return semiring_from_tables("BxB", els, add, mul, (0, 0), (1, 1))


def test_coextension_cases():
    C = trivial_coextension(B, bool_module(B))
    assert check_semicoring(C).ok
    CZ = trivial_coextension(Z2, cyclic_module(Z2, 2))
    assert check_semicoring(CZ).ok
    # M = 0 degenerates to the trivial coring on A
    from semikernel.semimodules import zero_module

    C0 = trivial_coextension(B, zero_module(B))
    assert check_semicoring(C0).ok
    assert len(C0.carrier.elements()) == 2


def test_counterexample_formal_values():
    C = counterexample_semicoalgebra(4)
    # Delta(1, 0) = (1,0) (x) (1,0): a single pure tensor
    assert C.delta_formal((1, 0)) == ((((1, 0), (1, 0)), 1),)
    # Delta(0, 1) has a nonzero CYC (x) CYC summand
    terms = dict(C.delta_formal((0, 1)))
    assert (((0, 1), (0, 1))) in terms
    assert C.eps_formal((7, 3)) == 7
    assert check_semicoring(C).ok


def test_mutations_all_fail():
    muts = mutation_corpus()
    assert len(muts) >= 20
    for name, C in muts:
        rep = check_semicoring(C)
        assert not rep.ok, name
        assert rep.first_witness() is not None


def test_dual_semirings():
    GL = grouplike_semicoalgebra(B, ["x", "y"])
    D = dual_semiring(GL, "left")
    assert len(D.homs) == 4
    # pointwise function semiring on two points, witnessed
    els = [(a, b) for a in (0, 1) for b in (0, 1)]
    add = {(u, v): (max(u[0], v[0]), max(u[1], v[1])) for u in els for v in els}
    mul = {(u, v): (u[0] * v[0], u[1] * v[1]) for u in els for v in els}
    F2 = semiring_from_tables("fun2", els, add, mul, (0, 0), (1, 1))
    assert _semiring_iso(D.semiring, F2) is not None
    # trivial coring: dual is the base
    SW = sweedler_semicoring(SemiringMorphism(B, B, lambda x: x))
    DT = dual_semiring(SW, "left")
    assert _semiring_iso(DT.semiring, B) is not None
    # cocommutative coalgebras: left and right convolutions coincide
    DR = dual_semiring(GL, "right")
    for a in D.semiring.elements:
        for b in D.semiring.elements:
            assert D.semiring.mul(a, b) == DR.semiring.mul(a, b)
    # deconcatenation at L=1: convolution of singleton functionals is
    # concatenation truncated to length <= 1
    W = boolean_word_semicoalgebra(1, 2)
    DW = dual_semiring(W, "left")
    words = W.carrier.labels
    fx = _indicator(W, DW, "x")
    fe = _indicator(W, DW, "")
    prod = DW.semiring.mul(fe, fx)
    # the concatenation ''+x = x: the product functional must accept x
    assert dict(zip(W.carrier.elements(), prod))[basis_elem(W.carrier, words.index("x"))] == 1


def _indicator(W, DW, word):
    words = W.carrier.labels
    target = basis_elem(W.carrier, words.index(word))
    for k in DW.semiring.elements:
        vals = dict(zip(W.carrier.elements(), k))
        if vals[target] == 1 and all(
            vals[basis_elem(W.carrier, i)] == 0
            for i in range(len(words))
            if basis_elem(W.carrier, i) != target
        ):
            return k
    raise AssertionError("indicator functional not found")


def _semiring_iso(S, T):
    import itertools

    Sel, Tel = list(S.elements), list(T.elements)
    if len(Sel) != len(Tel):
        return None
    for perm in itertools.permutations(Tel):
        f = dict(zip(Sel, perm))
        if f[S.zero] != T.zero or f[S.one] != T.one:
            continue
        if all(
            f[S.add(a, b)] == T.add(f[a], f[b]) and f[S.mul(a, b)] == T.mul(f[a], f[b])
            for a in Sel
            for b in Sel
        ):
            return f
    return None


def test_dual_cap_refuses_oversize():
    W2 = boolean_word_semicoalgebra(2, 2)  # dual would have 128 elements
    with pytest.raises(UnsupportedError):
        dual_semiring(W2, "left")
    # the cap is a parameter, not a constant
    GL = grouplike_semicoalgebra(B, ["x", "y"])
    with pytest.raises(UnsupportedError):
        dual_semiring(GL, "left", max_size=2)
    W1 = boolean_word_semicoalgebra(1, 2)
    assert len(dual_semiring(W1, "left", max_size=8).homs) == 8


def test_coideal_checks():
    GL = grouplike_semicoalgebra(B, ["x", "y"])
    K0 = span(GL.carrier, [])
    out = coideal_check(GL, K0)
    assert out["is_coideal"] is True
    Q, pi = quotient_semicoring(GL, K0)
    assert find_isomorphism(Q.carrier, GL.carrier) is not None
    # K = C is never a coideal: the counit is not zero on it
    KC = span(GL.carrier, [e for e in GL.carrier.elements()])
    out2 = coideal_check(GL, KC)
    assert out2["is_uniform"] and not out2["counit_condition"]
    assert out2["is_coideal"] is False


def test_coextension_coideal_and_quotient():
    C = trivial_coextension(B, bool_module(B))
    m_part = C.m_inject((1,))
    K = span(C.carrier, [m_part])
    out = coideal_check(C, K)
    assert out["is_coideal"] is True
    Q, pi = quotient_semicoring(C, K)
    # quotient is the trivial coring on the base
    SW = sweedler_semicoring(SemiringMorphism(B, B, lambda x: x))
    assert find_isomorphism(Q.carrier, SW.carrier) is not None
    # the projection is a morphism of semicorings
    assert semicoring_morphism_check(pi, C, Q).ok


def test_morphism_checks():
    GL = grouplike_semicoalgebra(B, ["x", "y"])
    ident = LinearMap(GL.carrier, GL.carrier, lambda x: x, name="id")
    assert semicoring_morphism_check(ident, GL, GL).ok
    # eps as a map to the trivial coring is a morphism
    SW = sweedler_semicoring(SemiringMorphism(B, B, lambda x: x))
    to_triv = LinearMap(
        GL.carrier, SW.carrier, lambda c: _scalar_to_sw(SW, GL.eps[c]), name="eps"
    )
    assert semicoring_morphism_check(to_triv, GL, SW).ok
    # a non-morphism is caught
    swap = {0: 1, 1: 0}
    bad = LinearMap(
        GL.carrier, GL.carrier, lambda v: (tuple(v[0][::-1]),), name="swap-points"
    )
    rep = semicoring_morphism_check(bad, GL, GL)
    assert rep.ok  # swapping points is a coalgebra automorphism
    x = basis_elem(GL.carrier, 0)
    collapse = LinearMap(GL.carrier, GL.carrier, lambda v: GL.carrier.zero, name="0")
    assert not semicoring_morphism_check(collapse, GL, GL).ok


def test_a_map_that_breaks_the_comult_square_fails_at_its_first_element():
    """The identity into grouplike_bool_2 with Delta(e1) set to Delta(e2)
    is counital but not comultiplicative: the square fails first at e1."""
    GL = gallery_coring("grouplike_bool_2")
    e = GL.carrier.elements()
    target = GL.mutate(delta={e[1]: GL.delta[e[2]]})
    ident = LinearMap(GL.carrier, target.carrier, lambda x: x, name="id")
    rep = semicoring_morphism_check(ident, GL, target)
    assert [(c.name, c.ok, c.witness) for c in rep.checks] == [
        ("comult-square", False, ((0, 1),)),
        ("counit-triangle", True, None),
    ]


def _scalar_to_sw(SW, a):
    for c in SW.carrier.elements():
        if SW.eps[c] == a:
            return c
    raise AssertionError


def test_coideal_equivalence_sweep():
    """For every uniform two-sided K in the small gallery corings, the closure
    condition on the comultiplication holds iff the quotient construction
    succeeds with a semicoring-morphism projection."""
    from semikernel.semimodules import enumerate_submodules, subtractive_closure

    for name in ("sweedler_id", "coext_bool", "coext_zmod2", "grouplike_bool_2"):
        C = gallery_coring(name)
        for K in enumerate_submodules(C.carrier):
            if subtractive_closure(K).elements != K.elements:
                continue
            # two-sided closure (gallery actions are symmetric, checked anyway)
            if any(
                C.carrier.act_left(s, k) not in K.elements
                for s in C.base.elements
                for k in K.elements
            ):
                continue
            out = coideal_check(C, K)
            if out["is_coideal"] is True:
                Q, pi = quotient_semicoring(C, K)
                assert semicoring_morphism_check(pi, C, Q).ok, (name, K)
            else:
                with pytest.raises(FormatError):
                    quotient_semicoring(C, K)


def _closure_delta_condition(C, K):
    """The delta condition by its definition: Δ(k) in the subtractive
    closure of the span of K (x) C and C (x) K, for every k in K."""
    from semikernel.semimodules import subtractive_closure

    T = C.cc()
    gens = [T.pure(k, c) for k in K.elements for c in C.carrier.elements()]
    gens += [T.pure(c, k) for k in K.elements for c in C.carrier.elements()]
    closed = subtractive_closure(span(T.result, gens)).elements
    return all(C.delta_norm(k) in closed for k in K.elements)


def test_delta_condition_is_the_closure_definition():
    from semikernel.semimodules import enumerate_submodules

    for name in ("sweedler_id", "coext_bool", "coext_zmod2", "grouplike_bool_2"):
        C = gallery_coring(name)
        for K in enumerate_submodules(C.carrier):
            assert coideal_check(C, K)["delta_condition"] == _closure_delta_condition(C, K), (name, K)


@pytest.mark.parametrize(
    "g,verdicts",
    [
        # (is_uniform, counit_condition, delta_condition, is_coideal), as the
        # closure of all of C (x) C (65,536 elements) decides them
        (((0, 0, 0, 1),), (True, False, True, False)),
        (((0, 0, 1, 1),), (True, True, True, True)),
        (((0, 1, 1, 1),), (True, False, False, False)),
        (((1, 1, 1, 1),), (True, True, False, False)),
    ],
)
def test_coideal_check_of_a_two_element_k_in_poly1(g, verdicts):
    C = gallery_coring("poly1_zmod2_3")
    K = span(C.carrier, [g])
    assert len(K.elements) == 2
    start = time.process_time()
    out = coideal_check(C, K)
    assert time.process_time() - start < 5  # the closure of C (x) C took 46 s
    keys = ("is_uniform", "counit_condition", "delta_condition", "is_coideal")
    assert tuple(out[k] for k in keys) == verdicts


# the six of the fifteen 2-element submodules of poly1_zmod2_3 that are coideals
POLY1_COIDEALS = [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]


@pytest.mark.parametrize("g", POLY1_COIDEALS, ids=str)
def test_quotients_of_poly1_by_two_element_coideals_check_in_a_second(g):
    """Each quotient is F_2^3 as an 8-element table, presented on its 3
    greedy generators, so its tensor square saturates on 9 pure generators
    (on all 7 x 7 non-zero pairs it ran out of its budget after 8-14 s)."""
    C = gallery_coring("poly1_zmod2_3")
    K = span(C.carrier, [(g,)])
    start = time.process_time()
    Q, pi = quotient_semicoring(C, K)
    assert check_semicoring(Q).ok
    assert time.process_time() - start < 1
    assert len(Q.carrier.elements()) == 8 and len(Q.carrier.gens()) == 3


def test_grouplike_empty_point_set_is_zero_coalgebra():
    C = grouplike_semicoalgebra(B, [])
    assert len(C.carrier.elements()) == 1
    assert check_semicoring(C).ok


def test_semicoring_morphism_class():
    from semikernel.semicorings import SemicoringMorphism

    GL = gallery_coring("grouplike_bool_2")
    SemicoringMorphism(GL, GL, lambda x: x, name="id")
    with pytest.raises(FormatError):
        SemicoringMorphism(GL, GL, lambda x: GL.carrier.zero, name="collapse")
