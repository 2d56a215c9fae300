import bisect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from semikernel.errors import CertificateError, FormatError, InternalInvariantError, UnsupportedError
from semikernel.gallery import gallery_coring, mutation_corpus
from semikernel.pairings import (
    alpha_check,
    canonical_dual_pairing,
    finiteness_closure,
    induced_action,
    rational_part,
    restrict_to_base,
)
from semikernel.semicorings import basis_elem, dual_semiring
from semikernel.semimodules import (
    Indexed,
    LinearMap,
    _hom_positions,
    cyclic_module,
    find_isomorphism,
    free_semimodule,
    hom_enumerate,
    identity_map,
    semiring_module,
    table_module,
    zero_module,
)
from semikernel.semirings import bool_semiring, nat
from semikernel.semicomodules import (
    Semicomodule,
    check_comodule,
    cofree_adjunction_check,
    cofree_comodule,
    cogenerator_probe,
    colinear_maps,
    comodule_coequalizer,
    comodule_equalizer,
    comodule_hom_check,
    coring_as_comodule,
    counterexample_equalizer_refusal,
    lift_coaction,
    two_coactions_counterexample,
    verify_coequalizer_universal,
    verify_equalizer_universal,
)
from semikernel.tensors import SaturationTensor, tensor

B = bool_semiring()
GL = gallery_coring("grouplike_bool_2")


def test_coring_over_itself():
    assert check_comodule(coring_as_comodule(GL)).ok


def test_regular_comodule_shares_the_corings_tensor():
    """C as a comodule over itself takes C (x) C for its M (x) C rather than
    saturating a second copy."""
    CX = gallery_coring("coext_bool")
    assert isinstance(CX.cc(), SaturationTensor)
    assert coring_as_comodule(CX).mc() is CX.cc()


def test_planted_violation_detected():
    CC = coring_as_comodule(GL)
    bad = dict(CC.coaction)
    # drop a summand from one coaction value
    key = next(k for k, v in bad.items() if len(v) == 2)
    bad[key] = bad[key][:1]
    M = Semicomodule(GL, CC.carrier, bad, name="planted")
    rep = check_comodule(M)
    assert not rep.ok


def test_cofree_and_adjunction():
    SM = semiring_module(B)
    XC = cofree_comodule(SM, GL)
    assert check_comodule(XC).ok
    # X = A recovers the coring as a comodule over itself
    CC = coring_as_comodule(GL)
    assert len(XC.carrier.elements()) == len(CC.carrier.elements())
    assert cofree_adjunction_check(CC, SM).ok
    assert cofree_adjunction_check(CC, free_semimodule(B, 2)).ok


def test_coaction_is_colinear():
    """The coaction itself is a comodule morphism into the cofree object."""
    CC = coring_as_comodule(GL)
    XC = cofree_comodule(CC.carrier, GL)
    T = XC.base_tensor
    rho = LinearMap(CC.carrier, XC.carrier, CC.rho_norm, name="rho")
    assert comodule_hom_check(rho, CC, XC)


def test_colinear_maps_and_coequalizer():
    CC = coring_as_comodule(GL)
    ends = colinear_maps(CC, CC)
    assert len(ends) == 4
    f, g = ends[1], ends[2]
    coeq, pi = comodule_coequalizer(f, g, CC, CC)
    assert check_comodule(coeq).ok
    ok, w = verify_coequalizer_universal(f, g, CC, CC, coeq, pi, [CC, coeq])
    assert ok, w
    same, _ = comodule_coequalizer(f, f, CC, CC)
    assert len(same.carrier.elements()) == len(CC.carrier.elements())


def test_cokernel_as_coequalizer_with_zero():
    CC = coring_as_comodule(GL)
    ends = colinear_maps(CC, CC)
    zero = next(
        h for h in ends if all(h(m) == CC.carrier.zero for m in CC.carrier.elements())
    )
    f = next(h for h in ends if h is not zero and not _is_identity(h, CC))
    coker, pi = comodule_coequalizer(f, zero, CC, CC)
    # N / f(M): classes collapse the image of f to zero
    img = {f(m) for m in CC.carrier.elements()}
    assert all(pi(x) == pi(CC.carrier.zero) for x in img)


def _is_identity(h, M):
    return all(h(x) == x for x in M.carrier.elements())


def test_equalizer_with_flat_coring():
    CC = coring_as_comodule(GL)
    ends = colinear_maps(CC, CC)
    f, g = ends[1], ends[2]
    eq, iota = comodule_equalizer(f, g, CC, CC)
    assert check_comodule(eq).ok
    ok, w = verify_equalizer_universal(f, g, CC, CC, eq, iota, [CC, eq])
    assert ok, w
    full, _ = comodule_equalizer(f, f, CC, CC)
    assert len(full.carrier.elements()) == len(CC.carrier.elements())


def test_universal_properties_fail_for_the_wrong_pair():
    # the (co)equalizer of (h0, h2) has 2 elements; checked against (h0, h0),
    # which every endomorphism equalizes, h2 neither factors through pi nor
    # lifts through iota
    CC = coring_as_comodule(GL)
    h0, h2 = colinear_maps(CC, CC)[:2]
    coeq, pi = comodule_coequalizer(h0, h2, CC, CC)
    eq, iota = comodule_equalizer(h0, h2, CC, CC)
    assert len(coeq.carrier.elements()) == len(eq.carrier.elements()) == 2
    expected = (False, ("h2", "(grouplike_bool_2,Delta)"))
    assert verify_coequalizer_universal(h0, h0, CC, CC, coeq, pi, [CC]) == expected
    assert verify_equalizer_universal(h0, h0, CC, CC, eq, iota, [CC]) == expected


def test_coring_mutants_fail_coassociativity_as_comodules():
    # the words corings are left out: their triple tensors take seconds
    failing = []
    for label, C in mutation_corpus():
        if label.startswith("words"):
            continue
        rep = check_comodule(coring_as_comodule(C))
        coassociative = next(c for c in rep.checks if c.name == "coassociative")
        if not coassociative.ok:
            assert coassociative.witness in C.carrier.elements(), label
            failing.append(label)
    assert len(failing) == 14


def test_equalizer_refuses_failed_certificate():
    CC = coring_as_comodule(GL)
    ends = colinear_maps(CC, CC)
    with pytest.raises(CertificateError):
        comodule_equalizer(
            ends[1], ends[2], CC, CC, certificate={"mono_flat_on_family": False}
        )


def test_counterexample_reproduction():
    rep, objs = two_coactions_counterexample(4)
    assert rep["rho1_passes"] and rep["rho2_passes"] and rep["ambient_passes"]
    assert rep["distinct"]
    assert rep["iota_colinear_rho1"] and rep["iota_colinear_rho2"]
    assert not rep["mono_flat"]
    assert rep["collapsing_witness"] == (0, 1)


def test_counterexample_equalizer_refusal():
    with pytest.raises(CertificateError):
        counterexample_equalizer_refusal(4)


def test_cogenerator_probe():
    CC = coring_as_comodule(GL)
    ends = colinear_maps(CC, CC)
    f, g = ends[1], ends[2]
    SM = semiring_module(B)
    rep = cogenerator_probe(SM, GL, [(f, g, CC, CC)])
    assert rep["all_separated"]
    rep2 = cogenerator_probe(SM, GL, [(f, f, CC, CC)])
    assert rep2["all_separated"] and rep2["family"][0].get("vacuous")
    Z0 = zero_module(B)
    rep3 = cogenerator_probe(Z0, GL, [(f, g, CC, CC)])
    assert not rep3["all_separated"]


def test_equalizer_lift_pushes_back_to_the_coaction():
    CC = coring_as_comodule(GL)
    ends = colinear_maps(CC, CC)
    T = CC.mc()
    for f in ends:
        for g in ends:
            eq, iota = comodule_equalizer(f, g, CC, CC)
            for e in eq.carrier.elements():
                assert T.push(eq.coaction[e], (iota, None)) == CC.rho_norm(iota(e))


def test_rational_part_lift_pushes_back_to_the_coaction():
    P = canonical_dual_pairing(GL)
    for M in (
        coring_as_comodule(GL),
        cofree_comodule(semiring_module(B), GL),
        cofree_comodule(free_semimodule(B, 2), GL),
    ):
        MA = induced_action(P, M)
        rep = alpha_check(P, restrict_to_base(P, MA))
        rat = rational_part(P, MA, alpha_report=rep)
        for e in rat.comodule.carrier.elements():
            assert rep["tensor"].push(rat.comodule.coaction[e]) == rat.rho_class[e]


def test_finiteness_closure_lift_pushes_back_to_the_coaction():
    P = canonical_dual_pairing(GL)
    CC = coring_as_comodule(GL)
    T = CC.mc()
    for F in ([basis_elem(GL.carrier, 0)], [GL.carrier.zero], list(GL.carrier.elements())):
        Nc = finiteness_closure(P, CC, F)
        for e in Nc.carrier.elements():
            assert T.push(Nc.coaction[e], (lambda x: x[0], None)) == CC.rho_norm(e[0])


@pytest.mark.parametrize(
    "image,message",
    [
        # 0, e_x and e_y are fixed and e_x + e_y is not
        (lambda els, m: els[0] if m == els[-1] else m, "TABLE add not closed"),
        # only e_x + e_y is fixed, and 0 = (e_x + e_y) * 0 is not
        (lambda els, m: els[-1], "TABLE action not closed"),
    ],
)
def test_the_equalizer_of_non_linear_maps_is_refused_by_its_table(image, message):
    CC = coring_as_comodule(GL)
    els = CC.carrier.elements()
    g = LinearMap(CC.carrier, CC.carrier, lambda m: image(els, m), name="g")
    with pytest.raises(FormatError, match=f"^{message}$"):
        comodule_equalizer(identity_map(CC.carrier), g, CC, CC)


def test_the_equalizer_over_an_infinite_base_must_hold_the_zero():
    """Over NAT no action row asks for the zero: two maps that agree only at
    x = x + x != 0 give {x}, closed under sums, which is refused all the same."""
    Nat = nat()
    T = table_module(Nat, [0, 1], {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)})
    x = next(m for m in T.elements() if m != T.zero)
    M = SimpleNamespace(coring=None, carrier=T)
    g = LinearMap(T, T, lambda m: x, name="g")
    with pytest.raises(FormatError, match="^TABLE misses the zero$"):
        comodule_equalizer(identity_map(T), g, M, M)


def test_lift_coaction_reports_the_first_collision():
    """2Z/8 in Z/8 over NAT collapses under - (x) Z/4: k (2 (x) 1) maps to
    2k (1 (x) 1), so images repeat twice and the first repeat is reported."""
    Nat = nat()
    C8, C4 = cyclic_module(Nat, 8), cyclic_module(Nat, 4)
    els = [(0,), (2,), (4,), (6,)]
    E = table_module(Nat, els, {(a, b): C8.add(a, b) for a in els for b in els})
    incl = LinearMap(E, C8, lambda x: x[0], name="incl")
    T = tensor(C8, C4)
    coring = SimpleNamespace(carrier=C4, base=Nat)
    lift, collision, _ = lift_coaction(E, coring, incl, T)
    TE = tensor(E, C4)
    FI = TE.map_of([incl, identity_map(C4)], T)
    seen, repeats = set(), []
    for x in TE.result.elements():
        if FI(x) in seen:
            repeats.append(x)
        seen.add(FI(x))
    assert len(repeats) == 2 and collision == repeats[0]
    with pytest.raises(CertificateError, match=r"^no lift at \(\(0,\),\)$"):
        lift(lambda e: T.result.zero, lambda e: CertificateError(f"no lift at {e}"))
    # an injective inclusion has no collision and lifts every target
    lift, collision, _ = lift_coaction(C8, coring, identity_map(C8), T)
    assert collision is None
    lifted = lift(lambda m: T.pure(m, (1,)), lambda e: CertificateError(str(e)))
    assert all(T.push(lifted[m]) == T.pure(m, (1,)) for m in C8.elements())


@pytest.mark.parametrize(
    "images",
    [{0: 0, 2: 2, 4: 2, 6: 6}, {0: 2, 2: 4, 4: 6, 6: 0}],
    ids=["not-additive", "sends-zero-elsewhere"],
)
def test_lift_coaction_traps_an_inclusion_that_is_not_linear(images):
    """2Z/8 in Z/8 over NAT, tensored with Z/4: an inclusion that is not
    additive, and the shift x -> x + 2, which sends zero to 2, both make the
    induced map on tensors fail its additivity test, a bug trap."""
    Nat = nat()
    C8, C4 = cyclic_module(Nat, 8), cyclic_module(Nat, 4)
    els = [(0,), (2,), (4,), (6,)]
    E = table_module(Nat, els, {(a, b): C8.add(a, b) for a in els for b in els})
    incl = LinearMap(E, C8, lambda x: (images[x[0][0]],), name="incl")
    coring = SimpleNamespace(carrier=C4, base=Nat)
    with pytest.raises(InternalInvariantError, match=r"^tensor map not well defined: \(inclxid\): not linear: \('additive'"):
        lift_coaction(E, coring, incl, tensor(C8, C4))


POLY_NAMES = [f"h{i}" for i in (0, 8, 64, 72, 512, 520, 576, 584, 4096, 4104, 4160, 4168, 4608, 4616, 4672, 4680)]
# VmHWM is the peak RSS of this process image alone; ru_maxrss would also
# count the test process that the child was forked from
POLY_SEARCH = """
import json, re, time
from pathlib import Path
from semikernel.gallery import gallery_coring
from semikernel.semicomodules import colinear_maps, coring_as_comodule
CC = coring_as_comodule(gallery_coring("poly1_zmod2_3"))
maps = colinear_maps(CC, CC)
peak_kib = int(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text()).group(1))
print(json.dumps({"names": [f.name for f in maps], "cpu_s": time.process_time(), "rss_mib": peak_kib / 1024}))
"""


def test_colinear_search_with_a_large_tensor_stays_small():
    """poly1_zmod2_3 over itself: 65,536 endomorphisms, and C (x) C has
    65,536 elements, so the colinearity folds must not index it.  A fresh
    process finds the 16 colinear ones, named by their rank among all
    homs, within 5 s of CPU and 114 MiB, the element-level search's cost
    (2-core x86-64 VM)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", POLY_SEARCH], env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["names"] == POLY_NAMES
    assert result["cpu_s"] <= 5.0 and result["rss_mib"] <= 114, result


def test_cofree_colinear_search_builds_one_linear_map_per_survivor(monkeypatch):
    """End^C(B^2 (x) GL) keeps 256 of the 65,536 homs, and only those 256
    become LinearMaps.  Reference: the cofree adjunction, f = (phi (x) C) .
    rho for each of the 256 phi in Hom(B^2 (x) GL, B^2), each named h{i} by
    its rank i among all homs in the search's order."""
    X = free_semimodule(B, 2)
    XC = cofree_comodule(X, GL)
    built = []
    init = LinearMap.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinearMap, "__init__", counted)
    maps = colinear_maps(XC, XC)
    monkeypatch.undo()
    assert len(maps) == 256 and built == maps

    ix, T = XC.carrier.indexed(), XC.base_tensor
    graphs = sorted(
        tuple(ix.index[T.push(XC.coaction[y], (phi, None))] for y in ix.elements)
        for phi in hom_enumerate(XC.carrier, X)
    )
    every = _hom_positions(XC.carrier, XC.carrier)
    assert [f.name for f in maps] == [f"h{bisect.bisect_left(every, g)}" for g in graphs]
    assert [tuple(ix.index[f(y)] for y in ix.elements) for f in maps] == graphs


def test_linear_maps_are_built_only_for_callers_that_get_maps(monkeypatch):
    """Inside the kernel a hom set stays position tuples: both universal
    verifiers, run on a criterion-9 pair, build no LinearMap, nor does the
    left dual of words1_L2, which searches all 128 functionals before its
    size cap refuses them; find_isomorphism builds only the one map it
    returns, named as in hom_enumerate."""
    CC = coring_as_comodule(GL)
    ends = colinear_maps(CC, CC)
    f, g = ends[0], ends[-1]
    coeq, pi = comodule_coequalizer(f, g, CC, CC)
    eq, iota = comodule_equalizer(f, g, CC, CC)
    W1 = gallery_coring("words1_L2")
    X = free_semimodule(B, 2)
    built = []
    init = LinearMap.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinearMap, "__init__", counted)
    coeq_verdict = verify_coequalizer_universal(f, g, CC, CC, coeq, pi, [coring_as_comodule(GL), coeq])
    eq_verdict = verify_equalizer_universal(f, g, CC, CC, eq, iota, [eq])
    with pytest.raises(UnsupportedError, match="128 elements"):
        dual_semiring(W1, "left")
    assert built == []
    iso = find_isomorphism(X, X)
    monkeypatch.undo()
    assert coeq_verdict == (True, None) and eq_verdict == (True, None)
    assert built == [iso]
    first = next(h for h in hom_enumerate(X, X) if len(set(h.mapping.values())) == len(X.elements()))
    assert (iso.name, iso.mapping) == (first.name, first.mapping)


def test_positions_are_handed_out_once_across_threads():
    """Eight threads ask one fresh Indexed of a free module (numbered by
    its Radix) for the same 256 elements at once, each from another
    starting point, switching every microsecond: every element gets one
    position, the same in every thread."""
    R = free_semimodule(B, 8)
    els = R.elements()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            P = Indexed(R)
            barrier = threading.Barrier(8)
            seen = {}

            def run(k):
                barrier.wait()
                seen[k] = {x: P.of(x) for x in els[32 * k:] + els[:32 * k]}

            threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(seen[k] == seen[0] for k in range(8))
            assert sorted(seen[0].values()) == list(range(len(els)))
    finally:
        sys.setswitchinterval(interval)
