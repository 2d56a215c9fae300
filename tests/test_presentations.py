import pytest
from hypothesis import given, settings, strategies as st

from semikernel.errors import UndecidedError
from semikernel.presentations import Budget, MonoidPresentation


def classes(relations, n=1):
    return MonoidPresentation(n, relations).enumerate_quotient().order


def test_cyclic_collapses():
    # oracle: Z/a (x) Z/b over the naturals is Z/gcd(a,b)
    from math import gcd

    for a in range(1, 7):
        for b in range(1, 7):
            p = MonoidPresentation(1, [((a,), (0,)), ((b,), (0,))])
            assert len(p.enumerate_quotient().order) == gcd(a, b)


def test_idempotent_with_inverse_is_zero():
    # 2g = g and 3g = 0 force g = 0
    assert classes([((2,), (1,)), ((3,), (0,))]) == [(0,)]


def test_two_generator_mixed():
    # g idempotent, h of order 2, and g + h = g: quotient {0, g, h, g+h=g}
    rels = [((2, 0), (1, 0)), ((0, 2), (0, 0)), ((1, 1), (1, 0))]
    q = MonoidPresentation(2, rels).enumerate_quotient().order
    assert len(q) == 3  # 0, g, h


def test_equality_decision():
    p = MonoidPresentation(1, [((4,), (2,))])  # period 2 beyond 2
    assert p.equal((2,), (4,))
    assert p.equal((3,), (5,))
    assert not p.equal((1,), (2,))
    assert not p.equal((0,), (2,))


def test_budget_stops_infinite_enumeration():
    p = MonoidPresentation(1, [], budget=Budget(50))
    with pytest.raises(UndecidedError):
        p.enumerate_quotient()


def test_deterministic_across_runs():
    rels = [((2, 0), (0, 1)), ((0, 3), (0, 0))]
    a = MonoidPresentation(2, rels).enumerate_quotient()
    b = MonoidPresentation(2, rels).enumerate_quotient()
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=2, max_size=2),
            st.lists(st.integers(0, 3), min_size=2, max_size=2),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_congruence_soundness_random(rels):
    """Normal forms respect the generated congruence: both sides of every
    relation reduce to the same form, in any additive context."""
    pres = MonoidPresentation(2, [(tuple(l), tuple(r)) for l, r in rels], budget=Budget(200_000))
    for l, r in rels:
        for ctx in ((0, 0), (1, 0), (2, 1)):
            u = tuple(x + c for x, c in zip(l, ctx))
            v = tuple(x + c for x, c in zip(r, ctx))
            assert pres.reduce(u) == pres.reduce(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 20), st.integers(0, 20))
def test_single_generator_oracle(a, b, x, y):
    """Oracle: with relations ag=0 and bg=0 the class of xg equals the class
    of yg iff x = y mod gcd(a, b)."""
    from math import gcd

    g = gcd(a, b)
    p = MonoidPresentation(1, [((a,), (0,)), ((b,), (0,))])
    assert p.equal((x,), (y,)) == ((x - y) % g == 0)
