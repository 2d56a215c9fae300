"""Cross-route oracle for hom enumeration.

`hom_enumerate` searches a finite target, or the finite image hull of an
infinite one, on the integer positions of `Semimodule.indexed()`.  The
reference below is the element-level search:
greedy additive generators, candidate images pruned by each generator's
cyclic constraint, images folded along each element's generator expression
with `N.add`, an exhaustive additivity and action filter, a free source's
basis images extended by `N.act`, and the maps sorted by the `ordkey` of
their images on `M.elements()`.  Both routes must give the same maps, in the
same order, under the same `h{i}` names.
"""
import itertools
import time

import pytest

from semikernel.errors import UndecidedError
from semikernel.gallery import gallery_coring
from semikernel.presentations import DEFAULT_BUDGET
from semikernel.semimodules import (
    bool_module,
    cyclic_module,
    direct_sum,
    enumerate_modules,
    free_semimodule,
    hom_enumerate,
    qmodz_module,
    semiring_module,
    table_module,
)
from semikernel.atoms import FreeAtom
from semikernel.semirings import bool_semiring, nat, tropcap, zmod
from semikernel.tensors import tensor
from semikernel.util import ordkey

B = bool_semiring()
Z2 = zmod(2)
Z3 = zmod(3)
T2 = tropcap(2)
N = nat()


def _constrained(N, hi, lo):
    per_atom = []
    for a in N.atoms:
        if a.finite:
            per_atom.append([t for t in a.elements() if a.times_int(t, hi) == a.times_int(t, lo)])
        else:
            per_atom.append(a.solve_mult(hi, lo))
    return [tuple(t) for t in itertools.product(*per_atom)]


def _additive_span(M, gens):
    cur = {M.zero}
    changed = True
    while changed:
        changed = False
        for x in list(cur):
            for g in gens:
                y = M.add(x, g)
                if y not in cur:
                    cur.add(y)
                    changed = True
    return cur


def ref_hom(M, N):
    """Hom(M, N) as element dicts, on elements only."""
    els = M.elements()
    if len(M.atoms) == 1 and isinstance(M.atoms[0], FreeAtom) and N.is_finite:
        S = M.base
        out = []
        for images in itertools.product(N.elements(), repeat=len(M.atoms[0].basis)):
            f = {}
            for x in els:
                acc = N.zero
                for i, c in enumerate(x[0]):
                    if c != S.zero:
                        acc = N.add(acc, N.act(images[i], c))
                f[x] = acc
            out.append(f)
    else:
        gens, cur = [], {M.zero}
        for e in els:
            if e not in cur:
                gens.append(e)
                cur = _additive_span(M, gens)
        cands = []
        for g in gens:
            seen, x = {}, M.zero
            while x not in seen:
                seen[x] = len(seen)
                x = M.add(x, g)
            cands.append(_constrained(N, len(seen), seen[x]))
        expr, frontier = {M.zero: ()}, [M.zero]
        while frontier:
            nxt = []
            for x in frontier:
                for i, g in enumerate(gens):
                    y = M.add(x, g)
                    if y not in expr:
                        expr[y] = expr[x] + (i,)
                        nxt.append(y)
            frontier = nxt
        out = []
        for images in itertools.product(*cands):
            f = {}
            for x in els:
                val = N.zero
                for i in expr[x]:
                    val = N.add(val, images[i])
                f[x] = val
            if any(f[M.add(x, y)] != N.add(f[x], f[y]) for x in els for y in els):
                continue
            if M.base.elements is not None and any(
                f[M.act(x, s)] != N.act(f[x], s) for x in els for s in M.base.elements
            ):
                continue
            out.append(f)
    out.sort(key=lambda m: tuple(ordkey(m[x]) for x in els))
    return out


def _skew_table():
    """A non-commutative table over NAT on 0..5 (see test_semimodules)."""
    special = {(1, 1): 2, (2, 1): 5, (3, 2): 4}

    def add(x, y):
        if x == 0 or y == 0:
            return x + y
        return special.get((x, y), x)

    return table_module(N, range(6), {(x, y): add(x, y) for x in range(6) for y in range(6)}, name="skew")


def _pairs():
    for S in (B, Z2):
        family = enumerate_modules(S, 4)
        yield from itertools.product(family, family)
    # min-plus scalars act beyond what addition reaches: the action filter bites
    family = enumerate_modules(T2, 3)
    yield from itertools.product(family, family)
    for S in (B, Z2, Z3, T2):
        targets = [semiring_module(S), free_semimodule(S, 2)] + enumerate_modules(S, 3)[-2:]
        for rank in (1, 2):
            yield from ((free_semimodule(S, rank), Y) for Y in targets)
    over_nat = [cyclic_module(N, 4), cyclic_module(N, 6), _skew_table()]
    yield from itertools.product(over_nat, over_nat)
    # infinite target: the image hull
    yield from ((X, qmodz_module(N)) for X in over_nat)


PAIRS = list(_pairs())


def _sum(*mods):
    return direct_sum(list(mods))[0]


# infinite targets that mix Q/Z, NAT and finite atoms
MIXED = list(
    itertools.product(
        [cyclic_module(N, 4), cyclic_module(N, 6), _skew_table(), _sum(bool_module(N), cyclic_module(N, 4))],
        [
            _sum(qmodz_module(N), qmodz_module(N)),
            _sum(qmodz_module(N), bool_module(N)),
            _sum(free_semimodule(N, 1), qmodz_module(N), cyclic_module(N, 6)),
        ],
    )
)
ALL = PAIRS + MIXED


@pytest.mark.parametrize("M, N", ALL, ids=[f"{M.name}->{N.name}#{i}" for i, (M, N) in enumerate(ALL)])
def test_hom_enumerate_matches_the_element_route(M, N):
    ref = ref_hom(M, N)
    maps = hom_enumerate(M, N)
    assert [f.mapping for f in maps] == ref
    assert [f.name for f in maps] == [f"h{i}" for i in range(len(ref))]


def test_the_oracle_pairs_are_not_vacuous():
    counts = [len(ref_hom(M, N)) for M, N in PAIRS]
    assert sum(counts) == 849 and sum(c > 1 for c in counts) > len(PAIRS) // 2
    # C4 and C6 have 4 and 6 maps into Q/Z, the skew table only the zero map
    assert counts[-3:] == [4, 6, 1]
    # e.g. C4 -> Q/Z(+)Q/Z has 4 * 4 maps; B(+)C4 -> Q/Z(+)B only those of C4 -> Q/Z
    assert [len(ref_hom(M, N)) for M, N in MIXED] == [16, 4, 8, 36, 6, 36, 1, 2, 1, 16, 8, 8]


# TABLE sources that Indexed.coordinates certifies free: BOOL's M4#3 = B^2
# (its top element comes before the unit vectors), ZMOD(2)'s M4#2 = Z2^2
# and the saturation result B^2 (x) B^1
CERTIFIED = [
    (M, N)
    for S, M in (
        (B, enumerate_modules(B, 4)[3]),
        (Z2, enumerate_modules(Z2, 4)[2]),
        (B, tensor(free_semimodule(B, 2), free_semimodule(B, 1), force_saturation=True).result),
    )
    for N in enumerate_modules(S, 4) + [free_semimodule(S, 2)]
]


@pytest.mark.parametrize("M, N", CERTIFIED, ids=[f"{M.base.name}:{M.name}->{N.name}" for M, N in CERTIFIED])
def test_a_certified_table_source_takes_the_free_path(monkeypatch, M, N):
    """The free path folds the basis images by the digits: no generator
    walk and no additivity filter, and the same maps as the element route."""
    import semikernel.semimodules as sm

    assert M.indexed().coordinates is not None
    monkeypatch.setattr(sm, "_generator_walk", None)  # the walk is not called
    assert [f.mapping for f in hom_enumerate(M, N)] == ref_hom(M, N)


def test_hom_search_counts_its_candidates_before_building_any():
    """words1_L2's carrier is free of rank 7 on 128 elements, so a search
    over itself has 128^7 candidates: it is refused at once, naming the
    count and the cap, instead of running."""
    W = gallery_coring("words1_L2").carrier
    t0 = time.perf_counter()
    with pytest.raises(UndecidedError, match=f"hom search .*: {128 ** 7} candidates, above the cap {DEFAULT_BUDGET}"):
        hom_enumerate(W, W)
    assert time.perf_counter() - t0 < 1.0
