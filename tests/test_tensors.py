import random
from math import gcd

import pytest

from semikernel.errors import UndecidedError
from semikernel.presentations import Budget
from semikernel.semimodules import (
    LinearMap,
    bool_module,
    cancellative_reflection,
    cyclic_module,
    enumerate_modules,
    enumerate_submodules,
    find_isomorphism,
    free_semimodule,
    hom_enumerate,
    identity_map,
    semiring_module,
    span,
    subtractive_closure,
    table_module,
    zero_module,
)
from semikernel.semirings import bool_semiring, nat, zmod
from semikernel.tensors import (
    FreeTensor,
    SaturationTensor,
    flatness_probe,
    flip_isomorphism,
    product_interchange,
    takahashi_tensor,
    tensor,
    tensor_of_maps,
    unit_isos_left,
    unit_isos_right,
)
from semikernel.util import fs_eval

B = bool_semiring()
N = nat()
Z2 = zmod(2)
Z3 = zmod(3)


def test_cyclic_tensors_match_gcd():
    for a in range(1, 7):
        for b in range(1, 7):
            T = tensor(cyclic_module(N, a), cyclic_module(N, b))
            assert len(T.result.elements()) == gcd(a, b)


def test_zero_and_unit():
    Z0 = zero_module(B)
    T = tensor(Z0, free_semimodule(B, 2))
    assert len(T.result.elements()) == 1
    C4 = cyclic_module(N, 4)
    SM = semiring_module(N)
    T, th, thinv = unit_isos_right(C4, SM)
    assert th(T.pure((3,), (2,))) == (2,)  # 3 * 2 = 6 = 2 mod 4
    _, thl, _ = unit_isos_left(C4, SM)


def test_free_fast_path_agrees_with_saturation():
    B2 = free_semimodule(B, 2)
    Tf = tensor(B2, B2)
    assert isinstance(Tf, FreeTensor)
    Ts = tensor(B2, B2, force_saturation=True)
    # pure tensors correspond one-to-one across the two routes
    mapped = {}
    for m in B2.elements():
        for n in B2.elements():
            mapped.setdefault(Tf.pure(m, n), set()).add(Ts.pure(m, n))
    assert all(len(v) == 1 for v in mapped.values())
    # the additive extension along representatives is a witnessed isomorphism
    def h(x):
        acc = Ts.result.zero
        for (m, n), mult in Tf.rep(x):
            acc = Ts.result.add(acc, Ts.result.times_int(Ts.pure(m, n), mult))
        return acc

    from semikernel.semimodules import map_predicates

    hmap = LinearMap(Tf.result, Ts.result, h, name="free-to-sat", check=True)
    p = map_predicates(hmap)
    assert p["injective"] and p["surjective"]


def test_bilinearity_and_balance_exhaustive():
    mods = enumerate_modules(B, 3)
    for M in mods:
        for Nn in mods:
            T = tensor(M, Nn, force_saturation=True)
            R = T.result
            for m in M.elements():
                for m2 in M.elements():
                    for n in Nn.elements():
                        assert T.pure(M.add(m, m2), n) == R.add(T.pure(m, n), T.pure(m2, n))
            for m in M.elements():
                for n in Nn.elements():
                    for n2 in Nn.elements():
                        assert T.pure(m, Nn.add(n, n2)) == R.add(T.pure(m, n), T.pure(m, n2))
                    for s in B.elements:
                        assert T.pure(M.act(m, s), n) == T.pure(m, Nn.act_left(s, n))


def test_flip_isomorphism():
    M = cyclic_module(N, 4)
    Nn = cyclic_module(N, 6)
    T = tensor(M, Nn)
    Tf = tensor(Nn, M)
    flip_isomorphism(T, Tf)


def test_takahashi():
    _, Q, _ = takahashi_tensor(bool_module(N), bool_module(N))
    assert len(Q.elements()) == 1  # c(B (x) B) = c(B) = 0
    C3 = cyclic_module(N, 3)
    _, Q2, _ = takahashi_tensor(C3, C3)
    assert find_isomorphism(Q2, C3) is not None
    # M box S = c(M) for a non-cancellative M
    Bm = bool_module(N)
    SM = semiring_module(N)
    _, Qb, _ = takahashi_tensor(Bm, SM)
    cB, _ = cancellative_reflection(Bm)
    assert find_isomorphism(Qb, cB) is not None


def test_tensor_of_maps_identity_and_small():
    B2 = free_semimodule(B, 2)
    Bm = semiring_module(B)
    T = tensor(B2, Bm)
    F, _, _ = tensor_of_maps(identity_map(B2), identity_map(Bm), T, T)
    assert all(F(x) == x for x in T.result.elements())
    # (iota_L (x) id) has image generated by collapsed pure tensors
    L = span(B2, [((1, 1),)])
    Lmod = table_module(
        B,
        sorted(L.elements),
        {(a, b): B2.add(a, b) for a in L.elements for b in L.elements},
        {(a, s): B2.act(a, s) for a in L.elements for s in B.elements},
    )
    iota = LinearMap(Lmod, B2, lambda x: x[0])
    TL = tensor(Lmod, Bm)
    F2 = TL.map_of([iota, identity_map(Bm)], T)
    img = {F2(x) for x in TL.result.elements()}
    expected = {T.result.zero, T.pure(((1, 1),), ((1,),))}
    assert img == expected


def test_quotient_tensor_kernel_formula():
    """Ker(pi_K (x) pi_M) is the subtractive closure of the two side images,
    exhaustively on factors with at most 4 elements."""
    fams = {
        "B": enumerate_modules(B, 3),
        "Z2": enumerate_modules(Z2, 4),
    }
    nat_mods = [cyclic_module(N, 2), cyclic_module(N, 4), bool_module(N)]
    checked = 0
    for S, fam in (("B", fams["B"]), ("Z2", fams["Z2"]), ("NAT", nat_mods)):
        for L in fam:
            for Nn in fam:
                subsL = enumerate_submodules(L)
                subsN = enumerate_submodules(Nn)
                for K in subsL:
                    for M in subsN:
                        _assert_kernel_formula(L, Nn, K, M)
                        checked += 1
    assert checked > 50


def _assert_kernel_formula(L, Nmod, K, Msub):
    from semikernel.semimodules import quotient_by_sub

    T = tensor(L, Nmod, force_saturation=True)
    QL, piK = quotient_by_sub(L, K)
    QN, piM = quotient_by_sub(Nmod, Msub)
    TQ = tensor(QL, QN, force_saturation=True)
    F = T.map_of([piK, piM], TQ)
    ker = {x for x in T.result.elements() if F(x) == TQ.result.zero}
    Kbar = subtractive_closure(K).elements
    Mbar = subtractive_closure(Msub).elements
    gens = [T.pure(k, n) for k in Kbar for n in Nmod.elements()]
    gens += [T.pure(l, m) for l in L.elements() for m in Mbar]
    reach = span(T.result, gens)
    closed = subtractive_closure(reach)
    assert closed.elements == frozenset(ker)


def test_flatness_probe_families():
    B2 = free_semimodule(B, 2)
    Bm = semiring_module(B)
    # free modules pass every (uniform) family member
    subsets = enumerate_submodules(B2)
    family = []
    for L in subsets:
        if len(L.elements) in (1, len(B2.elements())):
            continue
        Lmod = table_module(
            B,
            sorted(L.elements),
            {(a, b): B2.add(a, b) for a in L.elements for b in L.elements},
            {(a, s): B2.act(a, s) for a in L.elements for s in B.elements},
        )
        family.append(LinearMap(Lmod, B2, lambda x: x[0], name=f"L{len(L.elements)}"))
    rep = flatness_probe(Bm, family[:3])
    assert rep["mono_flat_on_family"]
    assert rep["uniformly_flat_on_family"]


def test_product_interchange():
    Bm = semiring_module(B)
    phi, preds = product_interchange(Bm, [Bm])
    assert preds["bijective"]
    phi2, preds2 = product_interchange(Bm, [Bm, Bm])
    assert preds2["bijective"]
    C2 = cyclic_module(N, 2)
    fam = [cyclic_module(N, 2), cyclic_module(N, 4), cyclic_module(N, 3)]
    phi3, preds3 = product_interchange(C2, fam)
    assert preds3["surjective"]


def _chain_module(k):
    """The chain 0 < 1 < ... < k under max, as a table module over B."""
    els = list(range(k + 1))
    return table_module(
        B,
        els,
        {(a, b): max(a, b) for a in els for b in els},
        {(a, s): a * s for a in els for s in B.elements},
    )


@pytest.mark.parametrize(
    "mods",
    [
        [free_semimodule(B, 2), free_semimodule(B, 2)],
        [free_semimodule(Z2, 2), free_semimodule(Z2, 2)],
        [free_semimodule(Z3, 2), free_semimodule(Z3, 1)],
        [cyclic_module(N, 4), cyclic_module(N, 6)],
        [_chain_module(3), semiring_module(B)],
        [free_semimodule(B, 1), free_semimodule(B, 2), free_semimodule(B, 2)],
    ],
    ids=["B2xB2", "Z2^2xZ2^2", "Z3^2xZ3", "C4xC6", "chain3xB", "B1xB2xB2"],
)
def test_result_table_matches_rewriting(mods):
    """Oracle: the addition table folded from the Cayley graph agrees with
    rewriting every sum, and the graph is the quotient's right Cayley graph
    with a spanning tree that reaches parents first."""
    T = SaturationTensor(mods, mods[0].base)
    pres = T.pres
    atom = T.result.atoms[0]
    els = atom.elements()
    for a in els:
        for b in els:
            assert atom.add(a, b) == pres.reduce(tuple(x + y for x, y in zip(a, b)))
    q = pres.enumerate_quotient()
    assert sorted(q.order) == sorted(els)
    assert [g for _, g in atom.gens()] == [q.order[j] for j in q.steps[0]]
    for i, v in enumerate(q.order):
        for g in range(pres.n):
            e = tuple(1 if h == g else 0 for h in range(pres.n))
            assert q.order[q.steps[i][g]] == pres.reduce(tuple(x + y for x, y in zip(v, e)))
    assert q.parent[0] is None and q.order[0] == atom.zero
    for j in range(1, len(q.order)):
        i, g = q.parent[j]
        assert i < j and q.steps[i][g] == j


def test_budget_exceeded_is_undecided():
    with pytest.raises(UndecidedError):
        tensor(
            cyclic_module(N, 5),
            cyclic_module(N, 5),
            budget=Budget(3),
        )


def test_deterministic_tensor():
    M = cyclic_module(N, 4)
    T1 = tensor(M, M)
    T2 = tensor(M, M)
    assert T1.result.elements() == T2.result.elements()
    for m in M.elements():
        for n in M.elements():
            assert T1.pure(m, n) == T2.pure(m, n)


def _left_fold(T, terms, maps):
    acc = T.result.zero
    for ms, mult in terms:
        ms = [m if f is None else f(m) for f, m in zip(maps, ms)]
        acc = T.result.add(acc, T.result.times_int(T.pure(*ms), mult))
    return acc


@pytest.mark.parametrize(
    "case",
    ["free B2 (x) B2", "saturation B2 (x) B2", "C4 (x) C6 over NAT"],
)
def test_push_is_the_left_fold(case):
    if case == "C4 (x) C6 over NAT":
        M, Nn = cyclic_module(N, 4), cyclic_module(N, 6)
        T = tensor(M, Nn)
    else:
        M = Nn = free_semimodule(B, 2)
        T = tensor(M, Nn, force_saturation=case.startswith("saturation"))
    assert isinstance(T, FreeTensor) == case.startswith("free")
    rng = random.Random(7)
    f = rng.choice(hom_enumerate(M, M))
    g = rng.choice(hom_enumerate(Nn, Nn))
    pairs = [(m, n) for m in M.elements() for n in Nn.elements()]
    term_lists = [[]] + [
        [(rng.choice(pairs), rng.randint(1, 4)) for _ in range(size)] for size in (1, 2, 5, 9)
    ]
    for terms in term_lists:
        for maps in (None, (None, None), (f, None), (None, g), (f, g)):
            want = _left_fold(T, terms, maps or (None, None))
            assert T.push(terms, maps) == want
            assert T.push(iter(terms), maps) == want
    assert T.push([]) == T.result.zero


def test_fs_eval_over_a_semiring():
    Z6 = zmod(6)
    assert fs_eval(Z6, []) == Z6.zero
    pairs = [(2, 3), (5, 1), (4, 0), (1, 7)]
    acc = Z6.zero
    for x, k in pairs:
        acc = Z6.add(acc, Z6.times_int(x, k))
    assert fs_eval(Z6, pairs) == acc == (2 * 3 + 5 + 7) % 6
