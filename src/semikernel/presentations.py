"""Word problem for finitely presented commutative monoids.

A presentation lives over a finite generator list; elements of the free
commutative monoid are multiplicity vectors (tuples of non-negative ints).
The congruence generated by a finite relation set is decided by completing
the relations into a convergent vector rewriting system (critical pairs via
componentwise joins, orientation by a degree-lexicographic well-order), and
the quotient monoid is enumerated breadth first by adding one generator at a
time.  The walk keeps what it computes: the right Cayley graph of the
quotient (the class of v + e_g for every class v and generator g) and the
spanning tree that first reached each class, so callers can fold sums along
generator steps instead of rewriting them again (Froidure & Pin, Algorithms
for computing finite semigroups, 1997).  A work budget turns potentially
infinite runs into a loud "undecided" failure rather than a wrong answer.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import UndecidedError

DEFAULT_BUDGET = 1_000_000


class Budget:
    """Shared counter of algorithmic work units (rewrites, nodes, pairs)."""

    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise UndecidedError(f"work budget exceeded ({self.limit} units)")


def _key(v):
    return (sum(v), v)


def _leq(small, big):
    return all(s <= b for s, b in zip(small, big))


def _sub_add(v, l, r):
    return tuple(x - a + b for x, a, b in zip(v, l, r))


def _join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _min_gen(v):
    for i, c in enumerate(v):
        if c:
            return i
    return -1


class MonoidPresentation:
    """Generators plus relation pairs; equality decided after completion.

    Rules are kept interreduced: a rule whose left side becomes reducible is
    deactivated and its content re-queued, which keeps the rule set and the
    reduction scans small.
    """

    def __init__(self, n_gens, relations, budget=None):
        self.n = n_gens
        self.budget = budget if budget is not None else Budget()
        self.rules = []  # (l, r) tuples; parallel to active flags
        self.active = []
        self._by_min = [[] for _ in range(n_gens)]
        self._complete([tuple(map(tuple, rel)) for rel in relations])

    # -- rewriting ---------------------------------------------------------

    def reduce(self, v):
        v = tuple(v)
        while True:
            applied = False
            for g, cnt in enumerate(v):
                if not cnt:
                    continue
                for idx in self._by_min[g]:
                    if not self.active[idx]:
                        continue
                    l, r = self.rules[idx]
                    if _leq(l, v):
                        self.budget.spend()
                        v = _sub_add(v, l, r)
                        applied = True
                        break
                if applied:
                    break
            if not applied:
                return v

    def _add_rule(self, l, r):
        idx = len(self.rules)
        self.rules.append((l, r))
        self.active.append(True)
        self._by_min[_min_gen(l)].append(idx)
        return idx

    def _complete(self, relations):
        queue = deque(sorted(relations, key=lambda p: (_key(p[0]), _key(p[1]))))
        while queue:
            self.budget.spend()
            u, v = queue.popleft()
            u, v = self.reduce(u), self.reduce(v)
            if u == v:
                continue
            l, r = (u, v) if _key(u) > _key(v) else (v, u)
            new = self._add_rule(l, r)
            # interreduce: displace rules whose left side the new rule reduces
            for j, (lj, rj) in enumerate(self.rules):
                if j != new and self.active[j] and _leq(l, lj):
                    self.active[j] = False
                    queue.append((lj, rj))
            # critical pairs only with rules sharing a generator: disjoint
            # supports always resolve (the two reductions commute)
            support = [i for i, c in enumerate(l) if c]
            seen = set()
            for j, (lj, rj) in enumerate(self.rules):
                if j == new or not self.active[j] or j in seen:
                    continue
                if any(lj[i] for i in support):
                    seen.add(j)
                    joint = _join(l, lj)
                    queue.append((_sub_add(joint, l, r), _sub_add(joint, lj, rj)))

    def equal(self, u, v):
        return self.reduce(u) == self.reduce(v)

    # -- quotient enumeration ----------------------------------------------

    def enumerate_quotient(self):
        """All classes reachable from 0 by adding generators (budgeted).

        Returns the quotient's right Cayley graph as a Quotient, with classes
        as canonical forms in breadth-first discovery order.  The walk takes
        |classes| * n steps, each one budget unit plus a reduce; if the
        quotient is infinite the budget raises UndecidedError.
        """
        zero = self.reduce((0,) * self.n)
        order = [zero]
        index = {zero: 0}
        steps = []
        parent = [None]
        # order grows while it is walked: it is the breadth-first queue
        for i, v in enumerate(order):
            row = []
            for g in range(self.n):
                self.budget.spend()
                w = self.reduce(v[:g] + (v[g] + 1,) + v[g + 1:])
                j = index.setdefault(w, len(order))
                if j == len(order):
                    order.append(w)
                    parent.append((i, g))
                row.append(j)
            steps.append(row)
        return Quotient(order, steps, parent)


class Quotient(NamedTuple):
    """Right Cayley graph of a finite quotient, found breadth first.

    order[0] is the class of 0.  steps[i][g] is the index in order of the
    class of order[i] + e_g.  parent[j] = (i, g) is the step that first
    reached order[j], so i < j; parent[0] is None.
    """

    order: list
    steps: list
    parent: list
