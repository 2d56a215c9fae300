from fractions import Fraction

import pytest

from semikernel.atoms import CyclicAtom, NatAtom, TableAtom
from semikernel.errors import UnsupportedError
from semikernel.semimodules import (
    LinearMap,
    Semimodule,
    bool_module,
    cyclic_module,
    qmodz_module,
)
from semikernel.semirings import bool_semiring, nat, zmod
from semikernel.structured import (
    StructuredMap,
    rule_tensor,
    structured_identity,
    structured_map_tensor,
    structured_mono_flat_probe,
)
from semikernel.tensors import tensor

N = nat()
B = bool_semiring()


def single(atom):
    return Semimodule(N, [atom], name=atom.kind)


def rule_vs_saturation(M, Nn, over=None):
    """Witnessed agreement of the two tensor routes on finite atom pairs."""
    over = over or M.base
    TR = rule_tensor(M, Nn, over=over)
    TS = tensor(M, Nn, over=over, force_saturation=True)
    if not TR.result.is_finite:
        raise UnsupportedError("only finite instances compare")

    def h(x):
        # extend the pure-tensor correspondence additively from generators
        acc = TS.result.zero
        for i, atom in enumerate(TR.result.atoms):
            coord = x[i]
            src_i, src_j, beta = TR.comps[i]
            gm = M.inject(src_i, M.atoms[src_i].gens()[0][1])
            gn = Nn.inject(src_j, Nn.atoms[src_j].gens()[0][1])
            acc = TS.result.add(
                acc, TS.result.times_int(TS.pure(gm, gn), coord)
            )
        return acc

    hm = LinearMap(TR.result, TS.result, h, name="rule-to-sat", check=True)
    from semikernel.semimodules import map_predicates

    p = map_predicates(hm)
    assert p["injective"] and p["surjective"], (M.name, Nn.name)
    for m in _elems(M):
        for n in _elems(Nn):
            assert hm(TR.pure(m, n)) == TS.pure(m, n)


def _elems(M):
    return M.elements()


def test_cyclic_rule_matches_saturation_up_to_6():
    for a in range(1, 7):
        for b in range(1, 7):
            rule_vs_saturation(cyclic_module(N, a), cyclic_module(N, b))


def test_bool_rules_match_saturation():
    rule_vs_saturation(bool_module(N), bool_module(N))
    for n in range(1, 7):
        rule_vs_saturation(bool_module(N), cyclic_module(N, n))
        rule_vs_saturation(cyclic_module(N, n), bool_module(N))


def test_cyclic_rule_over_zmod():
    Z4 = zmod(4)
    for a in (2, 4):
        for b in (2, 4):
            rule_vs_saturation(
                cyclic_module(Z4, a), cyclic_module(Z4, b), over=Z4
            )


def test_bool_cyclic_collapses_to_zero():
    T = rule_tensor(bool_module(N), cyclic_module(N, 5))
    assert len(T.result.atoms) == 0
    Ts = tensor(bool_module(N), cyclic_module(N, 5), force_saturation=True)
    assert len(Ts.result.elements()) == 1


def test_qmodz_rules():
    Qz = qmodz_module(N)
    # QMODZ (x) NAT = QMODZ (unit), QMODZ (x) CYCLIC = 0
    T = rule_tensor(Qz, single(NatAtom(N)))
    assert [a.kind for a in T.result.atoms] == ["QMODZ"]
    T2 = rule_tensor(Qz, cyclic_module(N, 5))
    assert len(T2.result.atoms) == 0
    with pytest.raises(UnsupportedError):
        rule_tensor(Qz, Qz)


def test_qmodz_colimit_surrogate():
    """Q/Z (x) Z/n = 0 via truncations: the transition maps Z/m -> Z/m' with
    m' = m n (multiplication by n) kill every tensor class."""
    n = 4
    for m in (2, 3, 5):
        mprime = m * n
        A = cyclic_module(N, m)
        Ap = cyclic_module(N, mprime)
        Znm = cyclic_module(N, n)
        f = LinearMap(A, Ap, lambda x: ((x[0] * n) % mprime,), name="transition")
        TA = tensor(A, Znm)
        TAp = tensor(Ap, Znm)
        F = TA.map_of([f, LinearMap(Znm, Znm, lambda x: x)], TAp)
        assert all(F(x) == TAp.result.zero for x in TA.result.elements())


def test_nat_unit_rules():
    NA = single(NatAtom(N))
    C = Semimodule(N, [NatAtom(N), CyclicAtom(N, 4)], name="C")
    T = rule_tensor(NA, C)
    assert [a.describe() for a in T.result.atoms] == [a.describe() for a in C.atoms]
    T2 = rule_tensor(C, NA)
    assert [a.describe() for a in T2.result.atoms] == [a.describe() for a in C.atoms]
    # pure tensors realize the unit law k (x) x = kx
    assert T.pure((3,), (2, 1)) == (6, 3)


def test_structured_map_algebra():
    Zn = cyclic_module(N, 4)
    Qz = qmodz_module(N)
    iota = StructuredMap(Zn, Qz, [("gen", (Fraction(1, 4),))], name="iota")
    double = StructuredMap(Qz, Qz, [("qmz", {0: 2})], name="x2")
    comp = double.compose(iota)
    assert comp((1,)) == (Fraction(1, 2),)
    s = double.add(double)
    assert s((Fraction(1, 8),)) == (Fraction(1, 2),)
    assert structured_identity(Qz).is_injective()[0]
    inj, w = double.is_injective()
    assert not inj and w is not None
    assert StructuredMap(Qz, Qz, [("qmz", {0: 1})]).is_injective()[0]


def test_structured_map_linearity_guards():
    Zn = cyclic_module(N, 4)
    Qz = qmodz_module(N)
    from semikernel.errors import FormatError

    with pytest.raises(FormatError):
        StructuredMap(Zn, Qz, [("gen", (Fraction(1, 3),))])  # 4 * 1/3 != 0


def test_structured_tensor_functoriality():
    Zn = cyclic_module(N, 4)
    Qz = qmodz_module(N)
    C = Semimodule(N, [NatAtom(N), CyclicAtom(N, 4)], name="C")
    iota = StructuredMap(Zn, Qz, [("gen", (Fraction(1, 4),))], name="iota")
    idC = structured_identity(C)
    TZ = rule_tensor(Zn, C)
    TQ = rule_tensor(Qz, C)
    F = structured_map_tensor(iota, idC, TZ, TQ)
    # the CYC (x) CYC component dies in Q/Z (x) C
    assert F((0, 1)) == TQ.result.zero
    assert F((1, 0)) == (Fraction(1, 4),)


def test_mono_flat_probe_negative_and_positive():
    C = Semimodule(N, [NatAtom(N), CyclicAtom(N, 4)], name="C")
    Zn = cyclic_module(N, 4)
    Qz = qmodz_module(N)
    iota = StructuredMap(Zn, Qz, [("gen", (Fraction(1, 4),))], name="iota")
    rep = structured_mono_flat_probe(C, [iota])
    assert not rep["mono_flat_on_family"]
    assert rep["family"][0]["collapsing_witness"] == (0, 1)
    # NAT alone is flat on the same family
    NA = single(NatAtom(N))
    rep2 = structured_mono_flat_probe(NA, [iota])
    assert rep2["mono_flat_on_family"]


def test_the_rule_lane_saturates_a_finite_pair_without_a_rule():
    """A TABLE atom has no rule: beside a finite atom the pair is tensored
    by saturation (Z/2 (x) C_4 = C_2), beside NAT it is refused."""
    T = Semimodule(N, [TableAtom(N, [0, 1], {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)})], name="T")
    assert len(rule_tensor(T, cyclic_module(N, 4)).result.elements()) == 2
    with pytest.raises(UnsupportedError, match=r"^no tensor rule for atom pair TABLE \(x\) NAT$"):
        rule_tensor(T, single(NatAtom(N)))
