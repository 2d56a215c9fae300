import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from semikernel.errors import FormatError
from semikernel.semirings import (
    SemiringMorphism,
    bool_semiring,
    builtin_semiring,
    candidate_semiring,
    check_semiring_axioms,
    ideals,
    nat,
    natcap,
    semiring_from_tables,
    tropcap,
    zmod,
)


def test_builtins_pass_axioms():
    for S in (bool_semiring(), zmod(4), natcap(3), tropcap(3), ideals(4)):
        assert S.axiom_report.ok
        assert not S.axiom_report.sampled


def test_nat_is_sampled():
    N = nat()
    assert N.axiom_report.ok
    assert N.axiom_report.sampled
    assert not N.is_finite


def test_zmod4_exhaustive_pass():
    rep = check_semiring_axioms(zmod(4))
    assert rep.ok and len(rep.checks) == 9


def test_swapped_mul_table_fails_absorption_with_witness():
    els = [0, 1]
    add = {(a, b): max(a, b) for a in els for b in els}
    mul = {(a, b): a * b for a in els for b in els}
    mul[(1, 0)] = 1  # plant the violation
    cand = candidate_semiring("bad", els, add, mul, 0, 1)
    rep = check_semiring_axioms(cand)
    absorption = [c for c in rep.checks if c.name == "absorption"][0]
    assert not absorption.ok
    assert absorption.witness == (1, 0)


def test_non_closed_table_is_format_error():
    els = [0, 1]
    add = {(a, b): max(a, b) for a in els for b in els}
    mul = {(a, b): a * b for a in els for b in els}
    mul[(1, 1)] = 7
    with pytest.raises(FormatError):
        candidate_semiring("bad", els, add, mul, 0, 1)


def test_structural_predicates_bool():
    f = bool_semiring().flags
    assert f["commutative"]
    assert not f["cancellative"]
    # witness: a + b = a + c with b != c
    a, b, c = f["cancellative_witness"]
    S = bool_semiring()
    assert S.add(a, b) == S.add(a, c) and b != c
    assert f["additively_idempotent"]


def test_structural_predicates_zmod():
    for n in (2, 3, 4):
        f = zmod(n).flags
        assert f["cancellative"]
        assert not f["additively_idempotent"]


def test_tropcap_idempotent():
    assert tropcap(4).flags["additively_idempotent"]


def test_natcap_distributivity_up_to_8():
    for k in range(1, 9):
        assert natcap(k).axiom_report.ok


def test_ideals4_is_three_chain():
    I = ideals(4)
    assert I.elements == (1, 2, 4)
    assert I.zero == 4 and I.one == 1
    # ideal sum of (2) and (2) is (2); intersection of (2) and (4) is (4)
    assert I.add(2, 2) == 2
    assert I.mul(2, 4) == 4


def test_natcap1_isomorphic_to_bool():
    NC, B = natcap(1), bool_semiring()
    f = {0: 0, 1: 1}
    for a in NC.elements:
        for b in NC.elements:
            assert f[NC.add(a, b)] == B.add(f[a], f[b])
            assert f[NC.mul(a, b)] == B.mul(f[a], f[b])


def test_builtin_dispatch_and_param_errors():
    assert builtin_semiring("ZMOD", n=5).elements == tuple(range(5))
    with pytest.raises(FormatError):
        builtin_semiring("ZMOD", n=1)
    with pytest.raises(FormatError):
        builtin_semiring("NATCAP", k=0)
    with pytest.raises(FormatError):
        builtin_semiring("NOPE")


def test_morphism_check():
    B = bool_semiring()
    Z4 = zmod(4)
    SemiringMorphism(B, B, lambda x: x)
    with pytest.raises(FormatError):
        SemiringMorphism(Z4, B, lambda x: min(x, 1))  # not additive: 2+2=0 -> 0, 1+1


def test_one_equals_zero_rejected():
    els = [0]
    with pytest.raises(FormatError):
        semiring_from_tables("triv", els, {(0, 0): 0}, {(0, 0): 0}, 0, 0)


def test_every_builtin_passes_its_axioms():
    builtins = [bool_semiring(), nat()]
    builtins += [zmod(n) for n in (2, 3, 4, 5, 6, 30, 200)]
    builtins += [natcap(k) for k in (1, 2, 3)] + [tropcap(k) for k in (1, 2, 3)]
    builtins += [ideals(6), ideals(12)]
    for S in builtins:
        assert S.axiom_report.ok, (S.name, S.axiom_report.first_witness())


def test_concurrent_first_reads_draw_once(monkeypatch):
    """Eight threads that read the report of an unchecked NAT at once get
    equal reports, from one draw."""
    from semikernel import semirings

    drawn, calls = semirings._drawn, []
    monkeypatch.setattr(semirings, "_drawn", lambda S: calls.append(S.name) or drawn(S))
    N = semirings.nat.__wrapped__()  # a NAT of its own, so the cached one stays as it is
    start = threading.Barrier(8)

    def read():
        start.wait()
        return N.axiom_report

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so their first reads overlap
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(read) for _ in range(8)]
            reports = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert calls == ["NAT"]
    assert all(rep == reports[0] for rep in reports)
    assert reports[0] == check_semiring_axioms(N)
