"""Known answers computed without semikernel.

Everything here is plain Python over explicit tables, so a wrong answer from
the kernel cannot also be the expected one.  Modules are ``Table`` values:
elements ``0..n-1`` with ``0`` the additive identity, an addition table and
one action row per scalar of the base.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

# scalars of the finite bases the workloads use, with their own arithmetic
BASES = {
    "BOOL": {"elements": (0, 1), "add": max, "mul": lambda a, b: a * b},
    "ZMOD2": {"elements": (0, 1), "add": lambda a, b: (a + b) % 2, "mul": lambda a, b: (a * b) % 2},
    "ZMOD3": {"elements": (0, 1, 2), "add": lambda a, b: (a + b) % 3, "mul": lambda a, b: (a * b) % 3},
}
BASE_SIZE = {name: len(b["elements"]) for name, b in BASES.items()}

# submodules of the free BOOL-module B^k are the join-closed families of
# subsets of a k-set that contain the empty set: Moore families (OEIS A102896)
MOORE_FAMILIES = {0: 1, 1: 2, 2: 7, 3: 61, 4: 2480}

# finite lattices up to isomorphism by size (OEIS A006966); a finite BOOL-module
# is a join-semilattice with bottom, which is a lattice
LATTICES = {1: 1, 2: 1, 3: 1, 4: 2}


@dataclass(frozen=True)
class Table:
    """A finite module over one of ``BASES``: element i's sums and actions."""

    name: str
    base: str
    add: tuple  # add[a][b]
    act: tuple  # act[a][s] for s in BASES[base]["elements"]

    @property
    def size(self):
        return len(self.add)

    def relabel(self, perm):
        """The same module with element i renamed perm[i] (perm[0] must be 0)."""
        n = self.size
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        add = tuple(tuple(perm[self.add[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
        act = tuple(tuple(perm[x] for x in self.act[inv[a]]) for a in range(n))
        return Table(self.name, self.base, add, act)


def free_size(base, a, b):
    """|S^a (x) S^b| = |S|^(ab): the tensor of free modules is free on pairs."""
    return BASE_SIZE[base] ** (a * b)


def cyclic_tensor_size(a, b):
    """|C_a (x) C_b| = gcd(a, b) over NAT (cyclic groups as monoids)."""
    return gcd(a, b)


def hom_count_free(rank, target):
    """|Hom(S^rank, M)| = |M|^rank: a map from a free module is its basis images."""
    return target.size ** rank


def _additive_monoids(n, law):
    """Commutative monoid tables on 0..n-1 with identity 0 satisfying law(x, x+x)."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for values in itertools.product(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[0][i] = t[i][0] = i
        for (i, j), v in zip(cells, values):
            t[i][j] = t[j][i] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)):
            if all(law(x, t) for x in range(n)):
                yield tuple(map(tuple, t))


def _canonical(add):
    n = len(add)
    best = None
    for rest in itertools.permutations(range(1, n)):
        p = (0,) + rest
        inv = [0] * n
        for i, x in enumerate(p):
            inv[x] = i
        key = tuple(tuple(p[add[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
        if best is None or key < best:
            best = key
    return best


def _multiple(add, x, k):
    acc = 0
    for _ in range(k):
        acc = add[acc][x]
    return acc


def enumerate_tables(base, max_size):
    """Every module over base with at most max_size elements, up to isomorphism.

    BOOL-modules are the idempotent commutative monoids and ZMOD(p)-modules
    those with p x = 0; in both cases the action is s-fold addition.
    """
    p = 1 if base == "BOOL" else BASE_SIZE[base]
    if base == "BOOL":
        def law(x, t):
            return t[x][x] == x
    else:
        def law(x, t):
            return _multiple(t, x, p) == 0
    out = []
    for n in range(1, max_size + 1):
        seen = set()
        for add in _additive_monoids(n, law):
            key = _canonical(add)
            if key in seen:
                continue
            seen.add(key)
            act = tuple(
                tuple(min(s, 1) * x if base == "BOOL" else _multiple(key, x, s) for s in BASES[base]["elements"])
                for x in range(n)
            )
            out.append(Table(f"{base}#{len(out)}", base, key, act))
    return out


def module_counts(base, max_size):
    """Number of modules of each size 1..max_size, up to isomorphism."""
    if base == "BOOL":
        return [LATTICES[n] for n in range(1, max_size + 1)]
    # a ZMOD(p)-module is a vector space over F_p: one of each size p^k
    p = BASE_SIZE[base]
    return [1 if any(p ** k == n for k in range(n)) else 0 for n in range(1, max_size + 1)]


def is_linear(f, X, Y):
    n = X.size
    return all(
        f[X.add[a][b]] == Y.add[f[a]][f[b]] for a in range(n) for b in range(n)
    ) and all(
        f[X.act[a][s]] == Y.act[f[a]][s] for a in range(n) for s in range(len(X.act[a]))
    )


def linear_maps(X, Y):
    """All linear maps X -> Y by brute force over the |Y|^|X| functions."""
    if Y.size ** X.size > 256:
        raise ValueError("brute force is limited to 256 functions")
    return [f for f in itertools.product(range(Y.size), repeat=X.size) if is_linear(f, X, Y)]


def hom_count(X, Y):
    return len(linear_maps(X, Y))


def isomorphic(X, Y):
    """Is there a linear bijection?  Brute force over the permutations."""
    if X.size != Y.size:
        return False
    return any(is_linear(f, X, Y) for f in itertools.permutations(range(Y.size)))


def congruence_classes(X, pairs):
    """Number of classes of the smallest module congruence containing pairs."""
    n = X.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if find(a) != find(b):
                    continue
                images = [(X.add[a][c], X.add[b][c]) for c in range(n)]
                images += [(X.act[a][s], X.act[b][s]) for s in range(len(X.act[a]))]
                for u, v in images:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        changed = True
    return len({find(x) for x in range(n)})


def free_tensor_image(base, vectors):
    """The element of S^(a*b*...) that a sum of pure tensors of free modules is.

    vectors is a list of pure tensors, each a list of coefficient tuples (one
    per factor); m_1 (x) ... (x) m_k maps to the outer product of the m_i,
    which is the canonical isomorphism S^a (x) S^b = S^(ab).
    """
    ops = BASES[base]
    acc = {}
    for factors in vectors:
        for index in itertools.product(*[range(len(m)) for m in factors]):
            c = 1
            for m, i in zip(factors, index):
                c = ops["mul"](c, m[i])
            acc[index] = ops["add"](acc.get(index, 0), c)
    return tuple(sorted((k, v) for k, v in acc.items() if v))


def exit_code(verdicts):
    """The CLI contract for a run of commands: 2 undecided, 1 fail, 0 pass."""
    if "undecided" in verdicts:
        return 2
    if "fail" in verdicts:
        return 1
    return 0
