
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from semikernel.errors import FormatError, UnsupportedError
from semikernel.semimodules import (
    LinearMap,
    Semimodule,
    bool_module,
    cancellative_reflection,
    check_semimodule_axioms,
    cokernel,
    congruence_bracket,
    congruence_mod,
    cyclic_module,
    direct_sum,
    dual_basis_projectivity,
    enumerate_modules,
    enumerate_submodules,
    exactness_check,
    find_isomorphism,
    free_semimodule,
    hom_enumerate,
    hom_module,
    identity_map,
    induced_first_iso,
    is_cancellative,
    joint_verdict,
    kernel,
    map_predicates,
    quotient_by_congruence,
    quotient_by_sub,
    scalar_of,
    search_dual_basis,
    semiring_module,
    short_exact_sequence,
    span,
    subtractive_closure,
    table_module,
    zero_module,
)
from semikernel.semirings import bool_semiring, nat, natcap, tropcap, zmod
from semikernel.util import ordkey, sorted_elems

B = bool_semiring()
N = nat()
Z2 = zmod(2)


def diag_sub():
    B2 = free_semimodule(B, 2)
    return B2, span(B2, [((1, 1),)])


def test_module_axioms():
    assert check_semimodule_axioms(semiring_module(B)).ok
    rep = check_semimodule_axioms(cyclic_module(N, 4))
    assert rep.ok and rep.sampled  # scalars over NAT are sampled


def test_planted_action_violation_detected():
    els = [0, 1]
    add = {(a, b): max(a, b) for a in els for b in els}
    action = {(a, s): a * s for a in els for s in B.elements}
    action[(1, 1)] = 0  # breaks act-one
    M = table_module(B, els, add, action)
    rep = check_semimodule_axioms(M)
    assert not rep.ok


def test_free_modules():
    assert len(free_semimodule(B, 2).elements()) == 4
    assert len(zero_module(B).elements()) == 1
    assert len(free_semimodule(zmod(2), 3).elements()) == 8


def test_direct_sum_and_iso_search():
    M1 = bool_module(B)
    Z, injs, projs = direct_sum([M1, zero_module(B)])
    assert find_isomorphism(Z, M1) is not None  # M + 0 = M
    BB, _, _ = direct_sum([bool_module(B), bool_module(B)])
    assert find_isomorphism(BB, free_semimodule(B, 2)) is not None


def test_subtractive_closure_examples():
    B2, L = diag_sub()
    assert len(L.elements) == 2
    Lbar = subtractive_closure(L)
    assert Lbar.elements == frozenset(B2.elements())  # (1,0)+(1,1) = (1,1)
    # over an additive group every submodule is subtractive
    C4 = cyclic_module(zmod(4), 4)
    for sub in enumerate_submodules(C4):
        assert subtractive_closure(sub).elements == sub.elements
    # L = {0} in BOOL stays {0}: 1 + 0 = 0 has no solution
    Bm = bool_module(N)
    z = span(Bm, [])
    assert subtractive_closure(z).elements == z.elements


def test_closure_idempotent_exhaustive():
    """One saturation pass suffices: closure of closure = closure, checked on
    every submodule of every enumerated module (sizes <= 4, three bases) and
    on handpicked 5-element carriers."""
    fams = [enumerate_modules(S, 4) for S in (B, Z2, zmod(3))]
    mods = [m for fam in fams for m in fam]
    # 5-element semilattices over BOOL: a chain, a diamond with a tail, and
    # the three-atom fan (joins computed from the covering data)
    chain5 = {(i, j): max(i, j) for i in range(5) for j in range(5)}
    mods.append(table_module(B, range(5), chain5, {(i, s): i * s for i in range(5) for s in (0, 1)}))

    def lattice(join_pairs, size=5):
        tab = {}
        for i in range(size):
            for j in range(size):
                tab[(i, j)] = join_pairs.get((min(i, j), max(i, j)), max(i, j))
        return table_module(
            B, range(size), tab, {(i, s): i * s for i in range(size) for s in (0, 1)}
        )

    # 0 < 1,2 < 3 < 4 with 1 v 2 = 3
    mods.append(lattice({(1, 2): 3}))
    # 0 < 1,2,3 < 4: any two distinct atoms join to the top
    mods.append(lattice({(1, 2): 4, (1, 3): 4, (2, 3): 4}))
    for M in mods:
        from semikernel.semimodules import check_semimodule_axioms

        assert check_semimodule_axioms(M).ok
        for L in enumerate_submodules(M):
            c1 = subtractive_closure(L)
            c2 = subtractive_closure(c1)
            assert c1.elements == c2.elements


def test_quotients():
    B2, L = diag_sub()
    Q, pi = quotient_by_sub(B2, L)
    assert len(Q.elements()) == 1  # closure is everything
    M = cyclic_module(N, 4)
    triv = span(M, [])
    Q2, pi2 = quotient_by_sub(M, triv)
    assert find_isomorphism(Q2, M) is not None  # M/0 = M


def test_bracket_quotient_cancellative():
    for M in enumerate_modules(B, 3):
        for L in enumerate_submodules(M):
            Q, _ = quotient_by_congruence(M, congruence_bracket(L))
            ok, w = is_cancellative(Q)
            assert ok, (M.name, w)


def test_cancellative_reflection_examples():
    cB, pi = cancellative_reflection(bool_module(N))
    assert len(cB.elements()) == 1
    C4 = cyclic_module(N, 4)
    c4, _ = cancellative_reflection(C4)
    assert find_isomorphism(c4, C4) is not None
    # saturating carrier collapses: m + k = m' + k for all m, m'
    k = 2
    els = list(range(k + 1))
    M = table_module(
        N, els, {(a, b): min(a + b, k) for a in els for b in els}, None, name="cap"
    )
    cM, _ = cancellative_reflection(M)
    assert len(cM.elements()) == 1


def test_reflection_projection_k_uniform():
    for M in enumerate_modules(B, 4) + enumerate_modules(Z2, 4):
        _, pi = cancellative_reflection(M)
        preds = map_predicates(pi)
        assert preds["k_uniform"], M.name


def test_hom_enumeration():
    Bm = semiring_module(B)
    assert len(hom_enumerate(Bm, Bm)) == 2  # zero and identity
    Z0 = zero_module(B)
    assert len(hom_enumerate(Bm, Z0)) == 1
    maps = hom_enumerate(cyclic_module(N, 2), cyclic_module(N, 4))
    images = sorted(f((1,))[0] for f in maps)
    assert images == [0, 2]
    # reflection adjunction: maps into a cancellative target factor through c(-)
    M = bool_module(N)
    cM, pi = cancellative_reflection(M)
    T = cyclic_module(N, 3)
    assert len(hom_enumerate(M, T)) == len(hom_enumerate(cM, T))


def test_hom_search_does_not_depend_on_the_element_order():
    """Each BOOL and ZMOD(2) module up to size 4, relabelled in every order,
    has the hom sets of the original into each module, transported.  A
    generator whose image were folded from a non-zero x with x + g = g
    would make some candidates collide and others be missed."""
    mods = [M for S in (B, Z2) for M in enumerate_modules(S, 4)]

    def relabelled(M, perm):
        els = [e for (e,) in M.elements()]
        add = {(perm[a], perm[b]): perm[M.add((a,), (b,))[0]] for a in els for b in els}
        act = {(perm[a], s): perm[M.act((a,), s)[0]] for a in els for s in M.base.elements}
        return table_module(M.base, list(perm), add, act, name=f"{M.name}{perm}")

    for M in mods:
        for N in mods:
            if M.base is not N.base:
                continue
            want = sorted(tuple(f(x) for x in M.elements()) for f in hom_enumerate(M, N))
            for perm in itertools.permutations(range(len(M.elements()))):
                got = sorted(tuple(f((perm[x],)) for (x,) in M.elements()) for f in hom_enumerate(relabelled(M, perm), N))
                assert got == want, (M.name, N.name, perm)


def test_hom_module_structure():
    Bm = semiring_module(B)
    H = hom_module(Bm, Bm)
    assert len(H.elements()) == 2
    assert check_semimodule_axioms(H).ok


def test_map_predicates():
    B2 = free_semimodule(B, 2)
    Bm = semiring_module(B)
    f = LinearMap(B2, Bm, lambda x: ((B.add(x[0][0], x[0][1]),),), name="sum")
    p = map_predicates(f)
    assert not p["k_uniform"]
    assert kernel(f).elements == frozenset({B2.zero})
    assert not p["injective"]  # kernels do not detect injectivity
    p_id = map_predicates(identity_map(B2))
    assert all(p_id[k] for k in ("injective", "surjective", "i_uniform", "k_uniform", "uniform"))


def test_kernel_cokernel():
    C4, C2 = cyclic_module(N, 4), cyclic_module(N, 2)
    f = LinearMap(C4, C2, lambda x: (x[0] % 2,), name="red")
    assert kernel(f).elements == frozenset({(0,), (2,)})
    Q, _ = cokernel(f)
    assert len(Q.elements()) == 1
    assert kernel(identity_map(C4)).elements == frozenset({C4.zero})
    Q2, _ = cokernel(identity_map(C4))
    assert len(Q2.elements()) == 1


def test_first_isomorphism_both_directions():
    mods = enumerate_modules(B, 3)
    for M in mods:
        for Nn in mods:
            for f in hom_enumerate(M, Nn):
                _, _, iso = induced_first_iso(f)
                ku, _ = map_predicates(f)["k_uniform"], None
                assert iso == map_predicates(f)["k_uniform"]


def test_exactness_taxonomy():
    B2, L = diag_sub()
    seq = short_exact_sequence(L)
    ok, joints = exactness_check(seq, "exact")
    assert ok, joints
    # proper-exactness fails at the middle joint when L is not closed
    Lmod = table_module(
        B,
        sorted(L.elements),
        {(a, b): B2.add(a, b) for a in L.elements for b in L.elements},
        {(a, s): B2.act(a, s) for a in L.elements for s in B.elements},
    )
    iota = LinearMap(Lmod, B2, lambda x: x[0])
    Q, pi = quotient_by_sub(B2, L)
    ok_p, _ = joint_verdict(iota, pi, "proper")
    ok_s, _ = joint_verdict(iota, pi, "semi")
    assert not ok_p and ok_s


def test_injectivity_iff_left_exact():
    Bm = semiring_module(B)
    B2 = free_semimodule(B, 2)
    Z0 = zero_module(B)
    for f in hom_enumerate(Bm, B2):
        ok, _ = exactness_check([LinearMap(Z0, Bm, lambda x: Bm.zero), f], "exact")
        assert ok == map_predicates(f)["injective"]


def test_monomorphism_equals_injective():
    """Non-injective maps are distinguished by a pair of maps from the base."""
    B2 = free_semimodule(B, 2)
    Bm = semiring_module(B)
    f = LinearMap(B2, Bm, lambda x: ((B.add(x[0][0], x[0][1]),),))
    p = map_predicates(f)
    assert not p["injective"]
    m1, m2 = p["injective_witness"]
    g = LinearMap(Bm, B2, lambda s: B2.act(m1, scalar_of(Bm, s)))
    h = LinearMap(Bm, B2, lambda s: B2.act(m2, scalar_of(Bm, s)))
    one = ((1,),)
    assert g(one) != h(one)
    assert all(f(g(x)) == f(h(x)) for x in Bm.elements())


def test_dual_basis():
    Bm = semiring_module(B)
    pairs = [(((1,),), identity_map(Bm))]
    ok, _ = dual_basis_projectivity(Bm, pairs)
    assert ok
    # cyclic module over the naturals has no dual basis (dual is trivial)
    C2 = cyclic_module(N, 2)
    assert search_dual_basis(C2, bound=4) is None
    # free rank 2 over Z/2 with coordinate functionals
    F = free_semimodule(Z2, 2)
    SM = semiring_module(Z2)
    e1, e2 = (((1, 0),)), (((0, 1),))
    f1 = LinearMap(F, SM, lambda x: ((x[0][0],),))
    f2 = LinearMap(F, SM, lambda x: ((x[0][1],),))
    ok, _ = dual_basis_projectivity(F, [(e1, f1), (e2, f2)])
    assert ok
    assert search_dual_basis(semiring_module(B), bound=1) is not None


def test_custom_congruence_rejected_with_witness():
    B2 = free_semimodule(B, 2)
    from semikernel.semimodules import Congruence

    els = B2.elements()
    bad = [frozenset({els[0], els[1]})] + [frozenset({e}) for e in els[2:]]
    class_of = {e: c for c in bad for e in c}
    cong = Congruence(B2, "custom", None, bad, class_of)
    with pytest.raises(FormatError):
        quotient_by_congruence(B2, cong)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(2, 5))
def test_mod_congruence_transitive_by_construction(seed, n):
    M = cyclic_module(N, n)
    import random

    rng = random.Random(seed)
    gens = [M.sample(rng)] if n > 1 else []
    L = span(M, gens)
    cong = congruence_mod(L)
    # partition verified: classes are disjoint and cover the carrier
    seen = set()
    for cls in cong.classes:
        assert not (cls & seen)
        seen |= cls
    assert seen == set(M.elements())


def test_non_composable_sequence_rejected():
    Bm = semiring_module(B)
    C4 = cyclic_module(N, 4)
    f = identity_map(Bm)
    g = identity_map(C4)
    with pytest.raises(FormatError):
        exactness_check([f, g], "exact")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_quotient_projection_always_k_uniform(seed):
    """Projections onto quotients by the additive-shift congruence satisfy the
    kernel-uniformity that makes the induced first-isomorphism map bijective."""
    import random

    rng = random.Random(seed)
    fam = enumerate_modules(B, 4) + enumerate_modules(Z2, 4)
    M = fam[rng.randrange(len(fam))]
    els = M.elements()
    gens = [rng.choice(els) for _ in range(rng.randrange(0, 3))]
    L = span(M, gens)
    Q, pi = quotient_by_sub(M, L)
    assert map_predicates(pi)["k_uniform"]
    _, _, iso = induced_first_iso(pi)
    assert iso


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_tensor_pure_bilinear_random(seed):
    import random

    from semikernel.tensors import tensor

    rng = random.Random(seed)
    fam = enumerate_modules(B, 3) + enumerate_modules(zmod(3), 4)
    M = fam[rng.randrange(len(fam))]
    Nn = fam[rng.randrange(len(fam))]
    if M.base is not Nn.base:
        return
    T = tensor(M, Nn, force_saturation=True)
    for _ in range(6):
        m, m2 = rng.choice(M.elements()), rng.choice(M.elements())
        n = rng.choice(Nn.elements())
        assert T.pure(M.add(m, m2), n) == T.result.add(T.pure(m, n), T.pure(m2, n))
        s = rng.choice(M.base.elements)
        assert T.pure(M.act(m, s), n) == T.pure(m, Nn.act_left(s, n))


# ------------------------------------------- lattice walk and span vs brute force

def _closed(M, sub):
    scalars = M.base.elements or ()
    return all(M.add(x, y) in sub for x in sub for y in sub) and all(
        M.act(x, s) in sub for x in sub for s in scalars
    )


def _brute_submodules(M):
    """Every subset holding zero that is closed under add and act, ordered by
    size and then by the ordkeys of its sorted elements."""
    rest = [e for e in M.elements() if e != M.zero]
    subs = [
        frozenset((M.zero, *combo))
        for k in range(len(rest) + 1)
        for combo in itertools.combinations(rest, k)
    ]
    subs = [sub for sub in subs if _closed(M, sub)]
    subs.sort(key=lambda sub: (len(sub), tuple(ordkey(e) for e in sorted_elems(sub))))
    return subs


def _brute_span(M, gens):
    scalars = M.base.elements or ()
    cur = {M.zero, *gens}
    while True:
        nxt = cur | {M.add(x, y) for x in cur for y in cur}
        nxt |= {M.act(x, s) for x in cur for s in scalars}
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def _skew_table():
    """A non-commutative table over NAT on 0, a..e: a + a = b, b + a = e and
    c + b = d; every other sum of two non-zeros is its left term.  Closing
    {a, c} finds b first, then e only as (new b) + (old a) and d only as
    (old c) + (new b), so a closure must add new elements on both sides."""
    special = {(1, 1): 2, (2, 1): 5, (3, 2): 4}

    def add(x, y):
        if x == 0 or y == 0:
            return x + y
        return special.get((x, y), x)

    return table_module(N, range(6), {(x, y): add(x, y) for x in range(6) for y in range(6)}, name="skew")


def _oracle_carriers():
    from semikernel.tensors import SaturationTensor

    mods = [free_semimodule(B, n) for n in (1, 2, 3)]
    mods += [free_semimodule(Z2, 2), free_semimodule(zmod(3), 2)]
    # min-plus scalars: the action adds what addition alone cannot reach
    mods += [free_semimodule(tropcap(1), 2), semiring_module(tropcap(2))]
    # over NAT: no action table
    mods += [cyclic_module(N, 4), cyclic_module(N, 6), _skew_table()]
    mods += enumerate_modules(B, 4) + enumerate_modules(Z2, 4)
    mods.append(SaturationTensor([free_semimodule(B, 1), free_semimodule(B, 3)], B, name="B(x)B^3").result)
    return mods


@pytest.mark.parametrize("M", _oracle_carriers(), ids=lambda M: M.name)
def test_enumerate_submodules_matches_brute_force(M):
    subs = enumerate_submodules(M)
    assert [s.elements for s in subs] == _brute_submodules(M)
    assert all(s.ambient is M and frozenset(s.generators) == s.elements for s in subs)


def test_submodule_counts_of_free_bool_modules():
    # the Moore families of B^0 .. B^4
    counts = [len(enumerate_submodules(free_semimodule(B, n))) for n in range(5)]
    assert counts == [1, 2, 7, 61, 2480]


def test_enumerate_submodules_cap_boundary():
    B3 = free_semimodule(B, 3)
    assert len(enumerate_submodules(B3, cap=61)) == 61
    with pytest.raises(UnsupportedError):
        enumerate_submodules(B3, cap=60)


def test_elements_come_in_ordkey_order():
    from semikernel.tensors import tensor

    frees = [free_semimodule(S, n) for S in (B, Z2, zmod(3), natcap(3), tropcap(2)) for n in (1, 2)]
    C3 = table_module(N, range(3), {(i, j): min(i + j, 2) for i in range(3) for j in range(3)})
    table_cyclic, _, _ = direct_sum([C3, cyclic_module(N, 4)])
    free_bool_table, _, _ = direct_sum([free_semimodule(B, 2), bool_module(B), enumerate_modules(B, 3)[-1]])
    B2 = free_semimodule(B, 2)
    tensors = [tensor(M, Nn, force_saturation=True).result for M, Nn in ((B2, B2), (B2, bool_module(B)))]
    mods = frees + enumerate_modules(B, 3) + enumerate_modules(zmod(3), 3) + [table_cyclic, free_bool_table]
    for M in mods + tensors:
        assert M.elements() == sorted_elems(M.elements()), M.name


def test_enumerate_submodules_rejects_escaping_action():
    from semikernel.atoms import BoolAtom

    class EscapingBool(BoolAtom):
        __slots__ = ()

        def act(self, a, s):
            return 2

    bad = Semimodule(B, [EscapingBool(B)])
    with pytest.raises(FormatError, match=r"\(0,\) \* 0"):
        enumerate_submodules(bad)


def test_span_matches_brute_force():
    from semikernel.tensors import tensor

    B3 = free_semimodule(B, 3)
    T = tensor(B3, B3, force_saturation=True).result
    assert len(T.elements()) == 512
    skew = _skew_table()
    assert span(skew, [(1,), (3,)]).elements == frozenset((x,) for x in range(6))
    rng = random.Random(7)
    for M in _oracle_carriers() + [T]:
        els = M.elements()
        for k in (0, 1, 2, 3):
            for _ in range(3 if k else 1):
                gens = [rng.choice(els) for _ in range(k)]
                assert span(M, gens).elements == _brute_span(M, gens), (M.name, gens)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda t: t.pop((1, 2)), r"TABLE add missing \(1,2\)"),
        (lambda t: t.update({(2, 1): 7}), "TABLE add not closed"),
        (lambda t: t.update({(7, 0): 0}), "TABLE add not closed"),
        (lambda t: t.update({(0, a): (a + 1) % 3 for a in range(3)}), "no additive identity"),
    ],
)
def test_table_atom_rejects_bad_tables(edit, message):
    from semikernel.atoms import TableAtom

    N = nat()
    table = {(a, b): max(a, b) for a in range(3) for b in range(3)}  # a 3-chain under max
    assert TableAtom(N, range(3), dict(table)).zero == 0
    edit(table)
    with pytest.raises(FormatError, match=message):
        TableAtom(N, range(3), table)


def test_negative_counts_raise_at_once():
    import signal

    from semikernel.atoms import BoolAtom, CyclicAtom, FreeAtom, NatAtom, QmodzAtom, TableAtom
    from semikernel.errors import InternalInvariantError

    def hung(signum, frame):
        raise AssertionError("times_int(x, -1) did not return at once")

    atoms = [
        (FreeAtom(B, [0, 1]), (1, 0)),
        (NatAtom(N), 3),
        (CyclicAtom(N, 4), 1),
        (BoolAtom(B), 1),
        (QmodzAtom(N), QmodzAtom(N).zero),
        (TableAtom(N, [0, 1], {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)}), 1),
    ]
    cases = [(a.times_int, x) for a, x in atoms]
    cases += [(free_semimodule(B, 2).times_int, ((1, 0),)), (zero_module(B).times_int, ())]
    cases += [(S.times_int, S.one) for S in (zmod(3), B, N)]
    old = signal.signal(signal.SIGALRM, hung)
    try:
        for times_int, x in cases:
            signal.setitimer(signal.ITIMER_REAL, 5)
            with pytest.raises(InternalInvariantError, match="k = -1"):
                times_int(x, -1)
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
