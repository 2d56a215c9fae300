"""Golden of the checkers' full reports: every check name, verdict, witness
repr and `sampled` flag of check_semicoring, check_comodule, LinearMap.check,
SemiringMorphism.check and MeasuringPairing.verify, plus the key lists of
dual_semiring, over a fixed corpus of passing and failing subjects.

Re-record (only for a change that means to alter a report) with
    PYTHONPATH=src python tests/test_checker_golden.py
"""
import json
from pathlib import Path

from semikernel.gallery import GALLERY_NAMES, gallery_coring, mutation_corpus
from semikernel.pairings import MeasuringPairing, canonical_dual_pairing
from semikernel.semicomodules import (
    Semicomodule,
    check_comodule,
    cofree_comodule,
    coring_as_comodule,
)
from semikernel.semicorings import check_semicoring, dual_semiring, sweedler_semicoring
from semikernel.semimodules import (
    LinearMap,
    cyclic_module,
    free_semimodule,
    hom_enumerate,
    semiring_module,
)
from semikernel.semirings import (
    SemiringMorphism,
    bool_semiring,
    nat,
    natcap,
    semiring_from_tables,
    zmod,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "checker_reports.json"

# the checks whose scans share one homomorphism helper; each must fail somewhere
HELPER_CHECKS = {
    "linear": ("additive", "action"),
    "morphism": ("additive", "multiplicative"),
    "semicoring": (
        "comult-additive",
        "comult-right-linear",
        "comult-left-linear",
        "counit-additive",
        "counit-right-linear",
    ),
    "comodule": ("coaction-additive", "coaction-linear"),
    "measuring": ("kappa-values-additive", "kappa-values-left-linear"),
}

FINITE = [n for n in GALLERY_NAMES if not n.startswith(("words", "counterexample"))]


def _record(label, rep):
    return {
        "label": label,
        "subject": rep.subject,
        "sampled": rep.sampled,
        "checks": [[c.name, c.ok, repr(c.witness)] for c in rep.checks],
    }


def _corings():
    out = [(n, check_semicoring(gallery_coring(n))) for n in FINITE]
    out += [
        (label, check_semicoring(C))
        for label, C in mutation_corpus()
        if not label.startswith("words")
    ]
    for n in FINITE:
        C = gallery_coring(n)
        z = C.carrier.zero
        c = C.carrier.elements()[-1]
        out.append((f"{n}:delta[0]<-delta[top]", check_semicoring(C.mutate(delta={z: C.delta[c]}))))
        other = next(a for a in C.base.elements if a != C.eps[z])
        out.append((f"{n}:eps[0]->{other}", check_semicoring(C.mutate(eps={z: other}))))
    return out


def _comodules():
    out = []
    for n in FINITE:
        C = gallery_coring(n)
        M = coring_as_comodule(C)
        out.append((f"{n}:as-comodule", check_comodule(M)))
        z, c = C.carrier.zero, C.carrier.elements()[-1]
        bad = Semicomodule(C, C.carrier, {**M.coaction, z: M.coaction[c]}, name=f"{M.name}*")
        out.append((f"{n}:rho[0]<-rho[top]", check_comodule(bad)))
    GL = gallery_coring("grouplike_bool_2")
    XC = cofree_comodule(semiring_module(bool_semiring()), GL)
    out.append(("cofree B(x)GL", check_comodule(XC)))
    return out


def _linear_maps():
    B = bool_semiring()
    B2 = free_semimodule(B, 2)
    out = [(f"B2 endo {i}", f.check()) for i, f in enumerate(hom_enumerate(B2, B2))]
    # (1, 0) goes to 0 but (1, 1) to itself
    g = {((0, 0),): ((0, 0),), ((0, 1),): ((0, 1),), ((1, 0),): ((0, 0),), ((1, 1),): ((1, 1),)}
    out.append(("B2 non-linear", LinearMap(B2, B2, g.__getitem__, name="g").check()))
    out.append(("B2 f(0)!=0", LinearMap(B2, B2, lambda x: ((1, 1),), name="one").check()))
    B1 = free_semimodule(B, 1)
    out.append(("B1 outside target", LinearMap(B1, B1, lambda x: ((7,),), name="out").check()))
    Z2 = zmod(2)
    Z2M = semiring_module(Z2)
    out.append(("Z2 zero", LinearMap(Z2M, Z2M, lambda x: ((0,),)).check()))
    N = nat()
    N1 = free_semimodule(N, 1)
    for name, fn in (
        ("double", lambda x: (2 * x[0],)),
        ("succ", lambda x: (x[0] + 1,)),
        ("square", lambda x: (x[0] ** 2,)),
        ("cap", lambda x: (min(x[0], 5),)),
    ):
        out.append((f"NAT {name}", LinearMap(N1, N1, fn, name=name).check()))
    Z4 = cyclic_module(N, 4)
    out.append(("Z/4 double", LinearMap(Z4, Z4, lambda x: ((2 * x[0]) % 4,), name="x2").check()))
    out.append(("Z/4 succ", LinearMap(Z4, Z4, lambda x: ((x[0] + 1) % 4,), name="s").check()))
    return out


def _morphisms():
    B, Z2, Z4 = bool_semiring(), zmod(2), zmod(4)
    cases = [
        ("id BOOL", B, B, lambda x: x),
        ("NATCAP(2)->BOOL", natcap(2), B, lambda x: min(x, 1)),
        ("ZMOD(4)->ZMOD(2)", Z4, Z2, lambda x: x % 2),
        ("ZMOD(2)->BOOL", Z2, B, lambda x: x),
        ("ZMOD(4) x2", Z4, Z4, lambda x: (2 * x) % 4),
        ("BOOL->ZMOD(2)", B, Z2, lambda x: x),
        ("ZMOD(4) square", Z4, Z4, lambda x: (x * x) % 4),
    ]
    return [(label, SemiringMorphism(S, T, f, check=False).check()) for label, S, T, f in cases]


def _pairings():
    out = []
    for n in FINITE:
        P = canonical_dual_pairing(gallery_coring(n))
        out.append((f"{n}:canonical", P.verify()))
        C = P.coring
        z, top = C.carrier.zero, C.carrier.elements()[-1]
        a = P.asemiring.elements[-1]
        for c in (z, top):
            other = next(s for s in P.base.elements if s != P.ev[(a, c)])
            bad = MeasuringPairing(P.asemiring, C, {**P.ev, (a, c): other}, P.eta, name="P*")
            out.append((f"{n}:ev[{a!r},{c!r}]->{other!r}", bad.verify()))
    return out


def _duals():
    out = []
    for n in FINITE:
        for side in ("left", "right", "two"):
            D = dual_semiring(gallery_coring(n), side)
            out.append({"label": f"{n}:{side}", "keys": [repr(k) for k in D.homs]})
    # a Sweedler coring whose left action is not the right one: the left filter
    # keeps 4 of the 16 right-linear functionals
    B = bool_semiring()
    els = [(a, b) for a in (0, 1) for b in (0, 1)]
    add = {(u, v): (max(u[0], v[0]), max(u[1], v[1])) for u in els for v in els}
    mul = {(u, v): (u[0] * v[0], u[1] * v[1]) for u in els for v in els}
    BxB = semiring_from_tables("BxB", els, add, mul, (0, 0), (1, 1))
    SW = sweedler_semicoring(SemiringMorphism(B, BxB, lambda s: (s, s)))
    D = dual_semiring(SW, "left")
    out.append({"label": "Sw(BxB/BOOL):left", "keys": [repr(k) for k in D.homs]})
    return out


def reports():
    out = {}
    for section, build in (
        ("semicoring", _corings),
        ("comodule", _comodules),
        ("linear", _linear_maps),
        ("morphism", _morphisms),
        ("measuring", _pairings),
    ):
        out[section] = [_record(label, rep) for label, rep in build()]
    out["dual"] = _duals()
    return out


def test_checker_reports_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(reports()))
    for section in want:
        assert [r["label"] for r in got[section]] == [r["label"] for r in want[section]]
        for g, w in zip(got[section], want[section]):
            assert g == w, g["label"]
    assert got == want


def test_every_helper_check_fails_somewhere():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for section, names in HELPER_CHECKS.items():
        failed = {c[0] for r in want[section] for c in r["checks"] if not c[1]}
        assert set(names) <= failed, (section, set(names) - failed)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(reports(), indent=1) + "\n", encoding="utf-8")
