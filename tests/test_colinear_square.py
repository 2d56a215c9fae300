"""The compiled colinearity square against element-level tensor arithmetic.

`_square` folds N's pure table over M's compiled coaction terms and
compares the result with N's compiled rho-bar, all on integer positions.
The reference pushes rho_M(m) through f (x) C in N (x) C with
`TensorProduct.push` and compares it with the normalized rho_N(f(m)).
Both must agree at every element, for every hom, on the families of
tests/test_colinear_routes.py: the small gallery corings over themselves,
their mutated (and mostly non-additive) coactions, the cofree B (x) GL and
the criterion-9 (co)equalizers.  Every gallery coaction has multiplicity
1, so a last family restates coext_zmod2 over itself with multiplicities
2 and 3, which ZMOD(2) reads as 0 and 1.
"""
import itertools

import pytest

from semikernel.gallery import gallery_coring
from semikernel.semicomodules import Semicomodule, _square, coring_as_comodule
from semikernel.semimodules import hom_enumerate
from test_colinear_routes import FAMILIES


def _restated(M):
    """M with each term k * (m (x) c) of its coaction written 3k * (m (x) c),
    and 2 * (top (x) top) added to each: the same coaction over ZMOD(2)."""
    top = (M.carrier.elements()[-1], M.coring.carrier.elements()[-1])
    rho = {m: tuple((pair, 3 * k) for pair, k in terms) + ((top, 2),) for m, terms in M.coaction.items()}
    return Semicomodule(M.coring, M.carrier, rho, name=f"{M.name}[3k+2]")


CX2 = coring_as_comodule(gallery_coring("coext_zmod2"))
CASES = FAMILIES + [("coext_zmod2-multiplicities", [CX2, _restated(CX2)])]


def _element_square(f, M, N, m):
    return N.mc().push(M.coaction[m], (f, None)) == N.rho_norm(f(m))


@pytest.mark.parametrize("family", [f for _, f in CASES], ids=[n for n, _ in CASES])
def test_compiled_square_matches_element_pushes(family):
    for M, N in itertools.product(family, family):
        mx, nindex = M.carrier.indexed(), N.carrier.indexed().index
        for f in hom_enumerate(M.carrier, N.carrier):
            positions = [nindex[f(m)] for m in mx.elements]
            compiled = [_square(M, N, positions, [i]) for i in range(len(mx.elements))]
            assert compiled == [_element_square(f, M, N, m) for m in mx.elements], (M.name, N.name, f.name)
