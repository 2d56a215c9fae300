"""The one presentation against the all-elements presentation it replaced.

Every finite atom now presents (A, +) on its greedy generators, with the
relations read off its Cayley graph (atoms.presentation), and the
saturation tensor balances only the additive generators of the base other
than 1.  `AllElementsTensor` keeps the route it replaced, here only as a
reference: a TABLE atom presented on all its non-zero elements and a FREE
atom on every s e_i with s != 0, one relation per pair of generators, and
balance on every scalar other than 0 and 1.  Both routes must count the
same classes, give the same `nf` verdicts on seeded pairs, agree through
an explicit isomorphism of the result tables up to 81 classes, and the new
one may never spend more budget units.
"""
import itertools
import random
import time

import pytest

from semikernel.atoms import FreeAtom, TableAtom, presentation
from semikernel.presentations import Budget, MonoidPresentation
from semikernel.semimodules import cyclic_module, enumerate_modules, free_semimodule
from semikernel.semirings import bool_semiring, ideals, nat, natcap, tropcap, zmod
from semikernel.tensors import SaturationTensor, tensor

BASES = {"BOOL": bool_semiring(), "ZMOD2": zmod(2), "ZMOD3": zmod(3)}
# the shapes of the tensor-saturate workload (perfbench/tensor_saturate.py)
EAGER = [
    ("BOOL", 3, 3), ("ZMOD3", 2, 2), ("BOOL", 2, 3), ("ZMOD2", 2, 3), ("ZMOD3", 1, 3), ("ZMOD3", 3, 1),
    ("BOOL", 2, 2), ("ZMOD2", 2, 2), ("BOOL", 1, 3), ("ZMOD2", 1, 2), ("ZMOD3", 1, 1),
]
LAZY = [
    ("BOOL", (3, 3)), ("BOOL", (2, 2, 2)), ("BOOL", (4, 4)), ("ZMOD2", (3, 3)), ("ZMOD2", (2, 2, 2)),
    ("ZMOD3", (2, 2)), ("ZMOD3", (2, 3)),
]
ISO_LIMIT = 81
PAIRS = 8
BUDGET = 10**6  # an infinite quotient, from a wrong presentation, stops here


def _old_atom(a):
    """(gens, decompose, relations) of a TABLE or FREE atom as presented before."""
    if isinstance(a, FreeAtom):
        S = a.base
        nz = [s for s in S.elements if s != S.zero]

        def dec(x):
            return {(i, s): 1 for i, s in enumerate(x) if s != S.zero}

        gens = [((i, s), a.unit(i, s)) for i in range(len(a.basis)) for s in nz]
        pairs = [(a.unit(i, s), a.unit(i, t), {(i, s): 1}, {(i, t): 1}) for i in range(len(a.basis)) for j, s in enumerate(nz) for t in nz[j:]]
    else:
        assert isinstance(a, TableAtom)
        nz = [x for x in a.elements() if x != a.zero]

        def dec(x):
            return {x: 1} if x != a.zero else {}

        gens = [(x, x) for x in nz]
        pairs = [(x, y, {x: 1}, {y: 1}) for j, x in enumerate(nz) for y in nz[j:]]
    rels = []
    for x, y, dx, dy in pairs:
        lhs = {t: dx.get(t, 0) + dy.get(t, 0) for t in {**dx, **dy}}
        rels.append((lhs, dec(a.add(x, y))))
    return gens, dec, rels


class AllElements:
    """A factor M with every atom presented as before (_old_atom); a word
    counts each generator of gens() at its position."""

    def __init__(self, M):
        self.name, self.act, self.act_left, self.inject = M.name, M.act, M.act_left, M.inject
        self.atoms = [_old_atom(a) for a in M.atoms]
        self.tags = [(i, t) for i, (g, _, _) in enumerate(self.atoms) for t, _ in g]

    def gens(self):
        return [((i, t), self.inject(i, e)) for i, (g, _, _) in enumerate(self.atoms) for t, e in g]

    def _word(self, i, multiset):
        """The word of {tag: multiplicity} over the generators of atom i."""
        return tuple(multiset.get(t, 0) if j == i else 0 for j, t in self.tags)

    def word(self, x):
        decs = [dec(v) for (_, dec, _), v in zip(self.atoms, x)]
        return tuple(decs[i].get(t, 0) for i, t in self.tags)

    def relations(self):
        return [tuple(self._word(i, side) for side in rel) for i, (_, _, rels) in enumerate(self.atoms) for rel in rels]


class AllElementsTensor(SaturationTensor):
    """The saturation route before the one presentation."""

    def __init__(self, factors, over, **kw):
        super().__init__([AllElements(M) for M in factors], over, **kw)

    def _relations(self):
        rels, k = [], len(self.factors)
        for i, m in enumerate(self.factors):
            pools = [self.units[j] if j != i else [None] for j in range(k)]
            for lhs, rhs in m.relations():
                for ctx in itertools.product(*pools):
                    rels.append(tuple(self._vec([side if j == i else ctx[j] for j in range(k)]) for side in (lhs, rhs)))
        scalars = [s for s in self.over.elements or () if s not in (self.over.zero, self.over.one)]
        for i in range(k - 1):
            pools = [self.units[j] if j not in (i, i + 1) else [None] for j in range(k)]
            for a, gl, gr in itertools.product(scalars, range(len(self.units[i])), range(len(self.units[i + 1]))):
                left = self.factors[i].word(self.factors[i].act(self.gen_elems[i][gl], a))
                right = self.factors[i + 1].word(self.factors[i + 1].act_left(a, self.gen_elems[i + 1][gr]))
                for ctx in itertools.product(*pools):
                    l_slots = [left if j == i else self.units[j][gr] if j == i + 1 else ctx[j] for j in range(k)]
                    r_slots = [self.units[j][gl] if j == i else right if j == i + 1 else ctx[j] for j in range(k)]
                    rels.append((self._vec(l_slots), self._vec(r_slots)))
        return rels


def _raw(T, terms):
    acc = T.zero_vec()
    for ms in terms:
        acc = tuple(map(int.__add__, acc, T.raw_pure(*ms)))
    return acc


def _seeded_pairs(rng, mods):
    """Pairs of sums of pure tensors, about half of them equal by additivity
    in a slot."""
    def pure():
        return [rng.choice(M.elements()) for M in mods]

    out = []
    for _ in range(PAIRS):
        terms = [pure() for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            *rest, ms = terms
            j = rng.randrange(len(mods))
            E = mods[j].elements()
            x, y = rng.choice([(x, y) for x in E for y in E if mods[j].add(x, y) == ms[j]])
            other = rest + [ms[:j] + [x] + ms[j + 1:], ms[:j] + [y] + ms[j + 1:]]
            rng.shuffle(other)
        else:
            other = [pure() for _ in range(rng.randint(1, 3))]
        out.append((terms, other))
    return out


def assert_same_routes(mods, lazy=False, count=True):
    S = mods[0].base
    new = SaturationTensor(mods, S, budget=Budget(BUDGET), lazy=lazy)
    old = AllElementsTensor(mods, S, budget=Budget(BUDGET), lazy=lazy)
    assert new.budget.used <= old.budget.used
    rng = random.Random("+".join(M.name for M in mods))
    for u, v in _seeded_pairs(rng, mods):
        assert (new.nf(_raw(new, u)) == new.nf(_raw(new, v))) == (old.nf(_raw(old, u)) == old.nf(_raw(old, v)))
    if lazy:
        if count:
            assert len(new.pres.enumerate_quotient().order) == len(old.pres.enumerate_quotient().order)
        return
    R, Q = new.result, old.result
    els = R.elements()
    assert len(els) == len(Q.elements())
    if len(els) > ISO_LIMIT:
        return
    # the canonical map, pure tensor to pure tensor, is an isomorphism of the tables
    phi = {x: old.push(new.rep(x)) for x in els}
    assert len(set(phi.values())) == len(els)
    assert all(phi[R.add(x, y)] == Q.add(phi[x], phi[y]) for x in els for y in els)
    assert all(phi[R.act(x, s)] == Q.act(phi[x], s) for x in els for s in S.elements)
    for ms in itertools.product(*(M.elements() for M in mods)):
        assert phi[new.pure(*ms)] == old.pure(*ms)


def _free(base, rank):
    return free_semimodule(BASES[base], rank)


@pytest.mark.parametrize("base,a,b", EAGER, ids=lambda x: str(x))
def test_eager_workload_shapes(base, a, b):
    assert_same_routes([_free(base, a), _free(base, b)])


@pytest.mark.parametrize("base,ranks", LAZY, ids=lambda x: str(x))
def test_lazy_workload_shapes(base, ranks):
    # B^4 (x) B^4 has 65,536 classes: its word problem is compared, not its count
    assert_same_routes([_free(base, r) for r in ranks], lazy=True, count=ranks != (4, 4))


@pytest.mark.parametrize("base,size", [("BOOL", 4), ("ZMOD2", 4), ("ZMOD3", 3)])
def test_table_modules_with_each_other_and_free_modules(base, size):
    S = BASES[base]
    tables = enumerate_modules(S, size)
    free = [free_semimodule(S, 1), free_semimodule(S, 2)]
    pairs = list(itertools.product(tables, tables))
    pairs += [p for M in tables for F in free for p in ((M, F), (F, M))]
    for M, N in pairs:
        assert_same_routes([M, N])


@pytest.mark.parametrize(
    "S",
    [bool_semiring(), zmod(2), zmod(3), zmod(6), natcap(3), tropcap(2), ideals(12)],
    ids=lambda S: S.name,
)
def test_presentation_of_the_base_has_its_size(S):
    gens, words, relations = S.presentation()
    quotient = MonoidPresentation(len(gens), relations).enumerate_quotient()
    assert len(quotient.order) == len(S.elements)
    assert sorted(quotient.order) == sorted(words)


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_closed_form_is_what_the_walk_finds(n):
    """C_n states its presentation, 1 with n·1 = 0, instead of walking its n
    elements; the walk on C_n finds the same generators, words and relations."""
    C = cyclic_module(nat(), n).atoms[0]
    gens, words, relations = presentation(lambda i, j: (i + j) % n, 0, n)
    assert C.gens() == list(enumerate(gens))
    assert [C.word(a) for a in range(n)] == words
    assert C.relations() == relations


def test_a_large_cyclic_factor_is_presented_unwalked():
    """C_n (x) C_6 = C_2 for n = 2·10^6 within 1 s CPU and the 333,342 budget
    units the hand-written presentation of C_n spent: nothing of C_n is
    listed."""
    start, budget = time.process_time(), Budget()
    T = tensor(cyclic_module(nat(), 2 * 10**6), cyclic_module(nat(), 6), budget=budget)
    assert len(T.result.elements()) == 2 and budget.used == 333_342
    assert time.process_time() - start < 1
