"""The built-in gallery: every example structure, plus the mutation corpus."""
from __future__ import annotations

from functools import lru_cache

from .semimodules import (
    Semimodule,
    bool_module,
    cyclic_module,
    free_semimodule,
    qmodz_module,
    semiring_module,
)
from .semirings import SemiringMorphism, bool_semiring, nat, zmod
from .semicorings import (
    boolean_word_semicoalgebra,
    counterexample_semicoalgebra,
    grouplike_semicoalgebra,
    polynomial_semicoalgebra,
    sweedler_semicoring,
    trivial_coextension,
)
from .util import fs_make, sorted_elems

GALLERY_NAMES = (
    "sweedler_id",
    "coext_bool",
    "coext_zmod2",
    "grouplike_bool_2",
    "poly1_zmod2_3",
    "poly2_zmod2_3",
    "words1_L2",
    "words2_L2",
    "words3_L2",
    "counterexample_4",
)

@lru_cache(maxsize=None)
def gallery_coring(name):
    B = bool_semiring()
    Z2 = zmod(2)
    if name == "sweedler_id":
        return sweedler_semicoring(SemiringMorphism(B, B, lambda x: x), name="sweedler_id")
    if name == "coext_bool":
        return trivial_coextension(B, bool_module(B), name="coext_bool")
    if name == "coext_zmod2":
        return trivial_coextension(Z2, cyclic_module(Z2, 2), name="coext_zmod2")
    if name == "grouplike_bool_2":
        return grouplike_semicoalgebra(B, ["x", "y"], name="grouplike_bool_2")
    if name == "poly1_zmod2_3":
        return polynomial_semicoalgebra(Z2, 3, 1, name="poly1_zmod2_3")
    if name == "poly2_zmod2_3":
        return polynomial_semicoalgebra(Z2, 3, 2, name="poly2_zmod2_3")
    if name == "words1_L2":
        return boolean_word_semicoalgebra(2, 1, name="words1_L2")
    if name == "words2_L2":
        return boolean_word_semicoalgebra(2, 2, name="words2_L2")
    if name == "words3_L2":
        return boolean_word_semicoalgebra(2, 3, name="words3_L2")
    if name == "counterexample_4":
        return counterexample_semicoalgebra(4, name="counterexample_4")
    raise KeyError(f"unknown gallery coring {name}")


def gallery_modules():
    """Module/base pairs exercised by the unit-law and predicate suites."""
    B = bool_semiring()
    Z2 = zmod(2)
    Z3 = zmod(3)
    N = nat()
    out = [
        semiring_module(B),
        free_semimodule(B, 2),
        semiring_module(Z2),
        free_semimodule(Z2, 2),
        cyclic_module(Z2, 2),
        semiring_module(Z3),
        cyclic_module(N, 4),
        cyclic_module(N, 3),
        bool_module(N),
    ]
    return out


def structured_gallery_modules():
    """Structured (infinite-atom) modules over NAT, rule-tensor lane only."""
    from .atoms import CyclicAtom, NatAtom

    N = nat()
    return [
        Semimodule(N, [NatAtom(N)], name="NAT"),
        qmodz_module(N),
        Semimodule(N, [NatAtom(N), CyclicAtom(N, 4)], name="N+Z/4"),
    ]


# ---------------------------------------------------------------- mutations

def mutation_corpus():
    """Single-entry comultiplication/counit mutations of finite gallery corings.

    Every mutation in the corpus is a genuine single-entry change; the
    acceptance suite asserts each one fails validation with a witness.
    """
    out = []
    for name in GALLERY_NAMES:
        if name == "counterexample_4":
            continue
        C = gallery_coring(name)
        car = C.carrier
        els = [e for e in car.elements() if e != car.zero]
        els = sorted_elems(els)[:3]
        # counit flips
        for c in els:
            for a in C.base.elements:
                if a != C.eps[c]:
                    out.append(
                        (
                            f"{name}:eps[{_show(c)}]->{a}",
                            C.mutate(eps={c: a}),
                        )
                    )
                    break
        # comultiplication swaps: replace Delta(c) by Delta(c') of another element
        for c in els:
            for cp in els:
                if cp != c and C.delta[cp] != C.delta[c]:
                    out.append(
                        (
                            f"{name}:delta[{_show(c)}]<-delta[{_show(cp)}]",
                            C.mutate(delta={c: C.delta[cp]}),
                        )
                    )
                    break
        # comultiplication extensions: add a pure-tensor summand that survives
        # normalization (idempotent addition can swallow a formal duplicate)
        for c in els[:1]:
            base_norm = C.delta_norm(c)
            T = C.cc()
            for u in els:
                for v in els:
                    mutated = fs_make(list(C.delta[c]) + [((u, v), 1)])
                    changed = T.result.add(base_norm, T.pure(u, v)) != base_norm
                    if changed:
                        out.append(
                            (
                                f"{name}:delta[{_show(c)}]+={_show(u)}(x){_show(v)}",
                                C.mutate(delta={c: mutated}),
                            )
                        )
                        break
                else:
                    continue
                break
    if len(out) < 20:  # the acceptance suite wants a corpus of at least 20
        raise RuntimeError(f"mutation corpus too small: {len(out)}")
    return out


def _show(e):
    return repr(e).replace(" ", "")
