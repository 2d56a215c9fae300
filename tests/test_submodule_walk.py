"""The Close-by-One submodule walk against the seen-set walk it replaced.

`reference_walk` closes span(L + e) for every submodule L and every
position e outside it, and throws a span it has seen already away.
`enumerate_submodules` tries only the positions above the one that reached
L and keeps a span only if it adds no position below e (Kuznetsov 1993),
so it closes each submodule once.  Both must give the same submodules,
with the same generators, in the same order, and raise past the same cap.
"""
import pytest

from semikernel.errors import UnsupportedError
from semikernel.semimodules import _members, enumerate_submodules, free_semimodule
from semikernel.semirings import bool_semiring, natcap, tropcap, zmod
from test_semimodules import _oracle_carriers

B = bool_semiring()
B4 = free_semimodule(B, 4)


def reference_walk(M, cap=4096):
    """The member tuples of every submodule of M, found along every lattice
    edge L -> span(L + e) and deduplicated in a seen-set, sorted by (size,
    ordkey order)."""
    ix = M.indexed()
    els = ix.elements
    sums = [[1 << a | 1 << b for a, b in zip(row, col)] for row, col in zip(ix.add, zip(*ix.add))]
    acts = [sum(1 << j for j in set(row)) for row in ix.act]

    def close(mask, members, e):
        mask |= 1 << e
        members = members + [e]
        frontier = [e]
        while frontier:
            x = frontier.pop()
            hit = acts[x]
            for y in members:
                hit |= sums[x][y]
            for y in _members(hit & ~mask):
                mask |= 1 << y
                members.append(y)
                frontier.append(y)
        return mask

    zero = close(0, [], ix.zero)
    seen, stack = {zero}, [zero]
    while stack:
        mask = stack.pop()
        members = _members(mask)
        for e in range(len(els)):
            if not mask >> e & 1:
                bigger = close(mask, members, e)
                if bigger not in seen:
                    if len(seen) >= cap:
                        raise UnsupportedError("submodule lattice exceeds the cap")
                    seen.add(bigger)
                    stack.append(bigger)
    ordered = sorted((_members(m) for m in seen), key=lambda ms: (len(ms), ms))
    return [tuple(els[i] for i in ms) for ms in ordered]


CARRIERS = _oracle_carriers() + [
    B4,
    free_semimodule(zmod(4), 2),
    free_semimodule(natcap(3), 2),
    free_semimodule(tropcap(2), 2),
]


@pytest.mark.parametrize("M", CARRIERS, ids=lambda M: M.name)
def test_close_by_one_matches_the_seen_set_walk(M):
    subs = enumerate_submodules(M)
    expected = reference_walk(M)
    assert [s.generators for s in subs] == expected
    assert [s.elements for s in subs] == [frozenset(g) for g in expected]


def test_b4_cap_boundary():
    assert len(enumerate_submodules(B4, cap=2480)) == 2480
    with pytest.raises(UnsupportedError):
        enumerate_submodules(B4, cap=2479)
    with pytest.raises(UnsupportedError):
        reference_walk(B4, cap=2479)
