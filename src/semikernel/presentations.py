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
for computing finite semigroups, 1997).  The walk reads that graph itself:
a step whose class the tree already determines is looked up, and only the
others are rewritten.  A work budget turns potentially infinite runs into a
loud "undecided" failure rather than a wrong answer.

Rules are stored sparse as well as dense: a left side touches only a few
generators, so each rule keeps the support of its left side as (i, c) pairs
and the non-zero entries of r - l as (i, d) pairs.  Matching a rule reads
only its support, and a rewrite touches only the generators it changes.
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


def _join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _shift(v, delta):
    """v + (r - l) for a rule's sparse difference delta."""
    w = list(v)
    for i, d in delta:
        w[i] += d
    return tuple(w)


class Rule(NamedTuple):
    """l -> r, dense, plus the support of l and the non-zero entries of r - l."""

    l: tuple
    r: tuple
    lhs: tuple  # (i, l[i]) for every i with l[i] > 0, i ascending
    delta: tuple  # (i, r[i] - l[i]) for every i where l and r differ


def _rule(l, r):
    lhs = tuple((i, c) for i, c in enumerate(l) if c)
    delta = tuple((i, b - a) for i, (a, b) in enumerate(zip(l, r)) if a != b)
    return Rule(l, r, lhs, delta)


def _below(lhs, v):
    """Whether the left side with support lhs is <= v componentwise."""
    for i, c in lhs:
        if v[i] < c:
            return False
    return True


class MonoidPresentation:
    """Generators plus relation pairs; equality decided after completion.

    Rules are kept interreduced: a rule whose left side becomes reducible is
    deactivated and its content re-queued, which keeps the rule set and the
    reduction scans small.  _by_min[g] lists the active rules whose left
    side has least generator g, oldest first; reduce scans the generators of
    a vector in order and applies the first rule that matches.
    """

    def __init__(self, n_gens, relations, budget=None):
        self.n = n_gens
        self.budget = budget if budget is not None else Budget()
        self.rules = []  # Rule tuples; parallel to active flags
        self.active = []
        self._by_min = [[] for _ in range(n_gens)]
        self._complete([tuple(map(tuple, rel)) for rel in relations])

    # -- rewriting ---------------------------------------------------------

    def _match(self, v):
        """The difference r - l of the first rule that applies to v, or None."""
        by_min = self._by_min
        for g, cnt in enumerate(v):
            if cnt:
                for rule in by_min[g]:
                    if _below(rule.lhs, v):
                        return rule.delta
        return None

    def reduce(self, v):
        v = list(v)
        while (delta := self._match(v)) is not None:
            self.budget.spend()
            for i, d in delta:
                v[i] += d
        return tuple(v)

    def _add_rule(self, l, r):
        rule = _rule(l, r)
        self.rules.append(rule)
        self.active.append(True)
        self._by_min[rule.lhs[0][0]].append(rule)
        return rule

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
            for j, rule in enumerate(self.rules):
                if rule is not new and self.active[j] and _below(new.lhs, rule.l):
                    self.active[j] = False
                    self._by_min[rule.lhs[0][0]].remove(rule)
                    queue.append((rule.l, rule.r))
            # critical pairs only with rules sharing a generator: disjoint
            # supports always resolve (the two reductions commute)
            for j, rule in enumerate(self.rules):
                if rule is new or not self.active[j]:
                    continue
                if any(rule.l[i] for i, _ in new.lhs):
                    joint = _join(l, rule.l)
                    queue.append((_shift(joint, new.delta), _shift(joint, rule.delta)))

    def equal(self, u, v):
        return self.reduce(u) == self.reduce(v)

    # -- quotient enumeration ----------------------------------------------

    def enumerate_quotient(self):
        """All classes reachable from 0 by adding generators (budgeted).

        Returns the quotient's right Cayley graph as a Quotient, with classes
        as canonical forms in breadth-first discovery order.  The walk takes
        |classes| * n steps, each one budget unit; if the quotient is
        infinite the budget raises UndecidedError.  Class i was reached as
        order[p] + e_h, so its g-step is the h-step from q = steps[p][g]:
        read off the graph once steps[q][h] is known (Froidure & Pin), and
        reduced only otherwise.
        """
        zero = self.reduce((0,) * self.n)
        order = [zero]
        index = {zero: 0}
        steps = []
        parent = [None]
        # order grows while it is walked: it is the breadth-first queue
        for i, v in enumerate(order):
            row = []
            steps.append(row)
            p, h = parent[i] or (None, None)
            for g in range(self.n):
                self.budget.spend()
                q = None if p is None else steps[p][g]
                if q is not None and (q < i or q == i and h < g):
                    row.append(steps[q][h])
                    continue
                w = self.reduce(v[:g] + (v[g] + 1,) + v[g + 1:])
                j = index.setdefault(w, len(order))
                if j == len(order):
                    order.append(w)
                    parent.append((i, g))
                row.append(j)
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
