"""Workload ``tensor-saturate``: tensors through the saturation route.

Eager queries build the result table of S^a (x) S^b, C_a (x) C_b and M (x) S;
lazy queries solve only the word problem of a tensor and answer seeded
equality questions with ``nf``.  No hom search runs here.
"""
from __future__ import annotations

import oracle
from query import Query, expect, seeded_labels, table_module

# One round's eager free tensors, forced onto the saturation route.  The
# multiset is fixed so that every round costs the same on every seed; the
# seed draws the order, the module objects and the elements of the checks.
# Twelve 64-class tensors of similar cost hold the 90th percentile.
EAGER = [
    ("BOOL", 3, 3),  # 512 classes: the heavy tail
    ("ZMOD3", 2, 2), ("ZMOD3", 2, 2),  # 81 classes
    *[("BOOL", 2, 3)] * 6, *[("ZMOD2", 2, 3)] * 6,  # 64 classes
    ("ZMOD3", 1, 3), ("ZMOD3", 3, 1), ("BOOL", 2, 2), ("ZMOD2", 2, 2),
    ("BOOL", 1, 3), ("ZMOD2", 1, 2), ("ZMOD3", 1, 1),
]
# lazy word-problem queries a round: (base, ranks, copies).  The thirty
# ZMOD(3)^2 (x) ZMOD(3)^2 queries, of one cost, hold the median.
LAZY = [
    ("BOOL", (3, 3), 2), ("BOOL", (2, 2, 2), 2), ("BOOL", (4, 4), 2),
    ("ZMOD2", (3, 3), 2), ("ZMOD2", (2, 2, 2), 2),
    ("ZMOD3", (2, 2), 30), ("ZMOD3", (2, 3), 14),
]
LAZY_TESTS = 8
EAGER_TESTS = 4
CYCLIC = 16  # C_a (x) C_b over NAT, a and b drawn from 1..12
BIG_BUDGET = 10**9


class State:
    def __init__(self, sk):
        self.sk = sk
        self.semirings = {
            "BOOL": sk.semirings.bool_semiring(),
            "ZMOD2": sk.semirings.zmod(2),
            "ZMOD3": sk.semirings.zmod(3),
        }
        self.nat = sk.semirings.nat()
        self.tables = [t for base in ("BOOL", "ZMOD2", "ZMOD3") for t in oracle.enumerate_tables(base, 4)]


def setup(ctx):
    return State(ctx.sk)


def _vec(rng, base, rank):
    return tuple(rng.choice(oracle.BASES[base]["elements"]) for _ in range(rank))


def _split(rng, base, vec):
    """Two vectors summing to vec, coordinate by coordinate."""
    els = oracle.BASES[base]["elements"]
    add = oracle.BASES[base]["add"]
    left, right = [], []
    for c in vec:
        x, y = rng.choice([(x, y) for x in els for y in els if add(x, y) == c])
        left.append(x)
        right.append(y)
    return tuple(left), tuple(right)


def _sum_pair(rng, base, ranks):
    """Two sums of pure tensors; equal by bilinearity about half the time."""
    terms = [[_vec(rng, base, r) for r in ranks] for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        i = rng.randrange(len(terms))
        m1, m2 = _split(rng, base, terms[i][0])
        other = terms[:i] + [[m1] + terms[i][1:], [m2] + terms[i][1:]] + terms[i + 1:]
        rng.shuffle(other)
    else:
        other = [[_vec(rng, base, r) for r in ranks] for _ in range(rng.randint(1, 3))]
    return terms, other


def _expected_equal(base, pairs):
    return [oracle.free_tensor_image(base, u) == oracle.free_tensor_image(base, v) for u, v in pairs]


def _free(sk, S, rank, rng):
    # a free module whose basis carries seeded labels
    labels = seeded_labels(rng, rank)
    return sk.semimodules.Semimodule(S, [sk.atoms.FreeAtom(S, labels)], name=f"{S.name}^{rank}")


def _eager(state, rng, base, a, b):
    sk = state.sk
    S = state.semirings[base]
    M, N = _free(sk, S, a, rng), _free(sk, S, b, rng)
    pairs = [_sum_pair(rng, base, (a, b)) for _ in range(EAGER_TESTS)]
    budget = sk.presentations.Budget(BIG_BUDGET)

    def run():
        T = sk.tensors.tensor(M, N, force_saturation=True, budget=budget)
        R = T.result

        def element(terms):
            acc = R.zero
            for m, n in terms:
                acc = R.add(acc, T.pure((m,), (n,)))
            return acc

        return len(R.elements()), [element(u) == element(v) for u, v in pairs]

    expected = (oracle.free_size(base, a, b), _expected_equal(base, pairs))
    return Query(f"eager {base}^{a}(x){base}^{b}", run, expect(expected), heavy=a * b >= 8, budgets=[budget])


def _lazy(state, rng, base, ranks):
    sk = state.sk
    S = state.semirings[base]
    mods = [_free(sk, S, r, rng) for r in ranks]
    pairs = [_sum_pair(rng, base, ranks) for _ in range(LAZY_TESTS)]
    budget = sk.presentations.Budget(BIG_BUDGET)

    def run():
        T = sk.tensors.tensor_multi(mods, force_saturation=True, lazy=True, budget=budget)

        def raw(terms):
            acc = T.zero_vec()
            for factors in terms:
                v = T.raw_pure(*[(m,) for m in factors])
                acc = tuple(x + y for x, y in zip(acc, v))
            return acc

        return [T.nf(raw(u)) == T.nf(raw(v)) for u, v in pairs]

    name = "(x)".join(f"{base}^{r}" for r in ranks)
    return Query(f"lazy {name}", run, expect(_expected_equal(base, pairs)), budgets=[budget])


def _cyclic(state, rng):
    sk = state.sk
    a, b = rng.randint(1, 12), rng.randint(1, 12)
    M = sk.semimodules.cyclic_module(state.nat, a)
    N = sk.semimodules.cyclic_module(state.nat, b)
    budget = sk.presentations.Budget(BIG_BUDGET)

    def run():
        return len(sk.tensors.tensor(M, N, budget=budget).result.elements())

    return Query(f"cyclic C{a}(x)C{b}", run, expect(oracle.cyclic_tensor_size(a, b)), budgets=[budget])


def _unit(state, rng, table):
    sk = state.sk
    S = state.semirings[table.base]
    M = table_module(sk.semimodules, S, table, seeded_labels(rng, table.size))
    SM = sk.semimodules.semiring_module(S)
    budget = sk.presentations.Budget(BIG_BUDGET)

    def run():
        return len(sk.tensors.tensor(M, SM, budget=budget).result.elements())

    return Query(f"unit {table.name}(x)S", run, expect(table.size), budgets=[budget])


def build_round(state, rng):
    queries = [_eager(state, rng, *spec) for spec in EAGER]
    for base, ranks, copies in LAZY:
        queries += [_lazy(state, rng, base, ranks) for _ in range(copies)]
    queries += [_cyclic(state, rng) for _ in range(CYCLIC)]
    queries += [_unit(state, rng, t) for t in state.tables]
    rng.shuffle(queries)
    return queries

