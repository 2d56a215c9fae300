"""Workload ``hom-search``: hom, isomorphism, submodule and colinear search.

Every module-hom query gets a distinct, freshly relabelled module pair; the
comodule queries share three ambient comodules, as criterion 9 does.  All
tensors here have at most 16 classes.
"""
from __future__ import annotations

import digests
import oracle
from query import Query, expect, seeded_labels, table_module

FREE_RANKS = (1, 2)
# B^4 has 2,480 submodules: the heavy tail.  Fourteen B^3 queries and the
# twelve (co)equalizers of f with itself hold the 90th percentile.
SUBMODULE_RANKS = (1, 2, *[3] * 14, 4)
# extra copies of each ordered pair of 4-element lattices, which all cost
# about the same and hold the median
LATTICE_HOM_COPIES = 7
CONGRUENCES = 8
EXACT = 8
AMBIENTS = ("CC(grouplike_bool_2)", "CC(coext_bool)", "B(x)grouplike_bool_2")


class State:
    def __init__(self, sk):
        self.sk = sk
        B = sk.semirings.bool_semiring()
        self.semirings = {"BOOL": B, "ZMOD2": sk.semirings.zmod(2)}
        self.families = {base: oracle.enumerate_tables(base, 4) for base in self.semirings}
        GL = sk.gallery.gallery_coring("grouplike_bool_2")
        CX = sk.gallery.gallery_coring("coext_bool")
        cm = sk.semicomodules
        self.ambients = {
            AMBIENTS[0]: (cm.coring_as_comodule(GL), cm.coring_as_comodule(GL)),
            AMBIENTS[1]: (cm.coring_as_comodule(CX), cm.coring_as_comodule(CX)),
            AMBIENTS[2]: (
                cm.cofree_comodule(sk.semimodules.free_semimodule(B, 1), GL),
                cm.coring_as_comodule(GL),
            ),
        }
        # the colinear endomorphisms the (co)equalizer queries pair up, in an
        # order that does not depend on the order the search finds them in
        self.ends = {
            name: sorted(cm.colinear_maps(A, A), key=lambda f, A=A: graph(f, A))
            for name, (A, _) in self.ambients.items()
        }


def graph(f, A):
    """A map's images on the carrier elements in a fixed order, as text."""
    return [repr(f(m)) for m in sorted(A.carrier.elements(), key=repr)]


def setup(ctx):
    return State(ctx.sk)


def _module(state, rng, table):
    S = state.semirings[table.base]
    labels = seeded_labels(rng, table.size)
    return table_module(state.sk.semimodules, S, table, labels), labels


def _hom(state, rng, X, Y):
    MX, _ = _module(state, rng, X)
    MY, _ = _module(state, rng, Y)
    hom = state.sk.semimodules.hom_enumerate

    return Query(f"hom {X.name}->{Y.name}", lambda: len(hom(MX, MY)), expect(oracle.hom_count(X, Y)))


def _hom_free(state, rng, rank, Y):
    sk = state.sk
    F = sk.semimodules.free_semimodule(state.semirings[Y.base], rank)
    MY, _ = _module(state, rng, Y)
    return Query(
        f"hom {Y.base}^{rank}->{Y.name}",
        lambda: len(sk.semimodules.hom_enumerate(F, MY)),
        expect(oracle.hom_count_free(rank, Y)),
    )


def _iso(state, rng, X, Y):
    """find_isomorphism(X, Y); a witness must be a linear bijection."""
    MX, lx = _module(state, rng, X)
    MY, ly = _module(state, rng, Y)
    index_y = {(label,): i for i, label in enumerate(ly)}

    def run():
        f = state.sk.semimodules.find_isomorphism(MX, MY)
        if f is None:
            return None
        return tuple(index_y[f((label,))] for label in lx)

    def check(images):
        exists = oracle.isomorphic(X, Y)
        if images is None:
            return None if not exists else "no witness for isomorphic modules"
        if not exists:
            return f"witness {images} for non-isomorphic modules"
        if sorted(images) != list(range(Y.size)) or not oracle.is_linear(images, X, Y):
            return f"witness {images} is not a linear bijection"
        return None

    return Query(f"iso {X.name}~{Y.name}", run, check)


def _relabelled(rng, table):
    rest = list(range(1, table.size))
    rng.shuffle(rest)
    return table.relabel([0] + rest)


def _submodules(state, rank):
    sk = state.sk
    B = state.semirings["BOOL"]

    def run():
        return len(sk.semimodules.enumerate_submodules(sk.semimodules.free_semimodule(B, rank)))

    return Query(f"submodules B^{rank}", run, expect(oracle.MOORE_FAMILIES[rank]), heavy=rank >= 4)


def _congruence(state, rng, X):
    sk = state.sk.semimodules
    MX, labels = _module(state, rng, X)
    pairs = [tuple(rng.sample(range(X.size), 2)) for _ in range(rng.randint(1, 2))]
    label_pairs = [((labels[a],), (labels[b],)) for a, b in pairs]

    def run():
        cong = sk.module_congruence_closure(MX, label_pairs)
        Q, _ = sk.quotient_by_congruence(MX, cong)
        return len(Q.elements())

    return Query(f"congruence {X.name} {pairs}", run, expect(oracle.congruence_classes(X, pairs)))


def _exact(state, rng, X):
    """0 -> L -> M -> M/L -> 0 for L spanned by seeded elements is exact."""
    sk = state.sk.semimodules
    MX, labels = _module(state, rng, X)
    gens = [(labels[i],) for i in rng.sample(range(X.size), rng.randint(0, X.size))]

    def run():
        ok, _ = sk.exactness_check(sk.short_exact_sequence(sk.span(MX, gens)), "exact")
        return ok

    return Query(f"exact {X.name}", run, expect(True))


def _modules(state, base):
    sk = state.sk.semimodules
    S = state.semirings[base]

    def run():
        sizes = [len(M.elements()) for M in sk.enumerate_modules(S, 4)]
        return [sizes.count(n) for n in range(1, 5)]

    return Query(f"modules {base} <=4", run, expect(oracle.module_counts(base, 4)))


def _colinear(state, name):
    A, _ = state.ambients[name]
    cm = state.sk.semicomodules
    # End^C(X (x) C) = Hom_A(X (x) C, X) for a cofree comodule; each ambient
    # is cofree with a free rank-2 carrier over BOOL and X = BOOL
    boolean = state.families["BOOL"][1]
    return Query(f"colinear {name}", lambda: len(cm.colinear_maps(A, A)), expect(oracle.hom_count_free(2, boolean)))


def coequalizer_query(state, name, i, j):
    """Criterion 9's question for one pair of colinear endomorphisms."""
    A, small = state.ambients[name]
    f, g = state.ends[name][i], state.ends[name][j]
    cm = state.sk.semicomodules

    def run():
        coeq, pi = cm.comodule_coequalizer(f, g, A, A)
        co_ok = cm.check_comodule(coeq).ok
        co_univ, _ = cm.verify_coequalizer_universal(f, g, A, A, coeq, pi, [small, coeq])
        eq, iota = cm.comodule_equalizer(f, g, A, A)
        eq_ok = cm.check_comodule(eq).ok
        eq_univ, _ = cm.verify_equalizer_universal(f, g, A, A, eq, iota, [eq])
        return {
            "coeq_size": len(coeq.carrier.elements()),
            "coeq_ok": co_ok,
            "coeq_universal": co_univ,
            "eq_size": len(eq.carrier.elements()),
            "eq_ok": eq_ok,
            "eq_universal": eq_univ,
        }

    key = f"{name}:{i}:{j}"
    agree = sum(1 for m in A.carrier.elements() if f(m) == g(m))

    def check(answer):
        for flag in ("coeq_ok", "coeq_universal", "eq_ok", "eq_universal"):
            if answer[flag] is not True:
                return f"{flag} is {answer[flag]!r}"
        if answer["eq_size"] != agree:
            return f"equalizer has {answer['eq_size']} elements, f and g agree on {agree}"
        return digests.check("hom-search", key, answer)

    return Query(f"coeq/eq {key}", run, check)


def comodule_keys(state):
    """Every (co)equalizer query: key -> (ambient, index of f, index of g)."""
    return {
        f"{name}:{i}:{j}": (name, i, j)
        for name in AMBIENTS
        for i in range(len(state.ends[name]))
        for j in range(len(state.ends[name]))
    }


def build_round(state, rng):
    queries = []
    for base, family in state.families.items():
        queries += [_hom(state, rng, X, Y) for X in family for Y in family]
        queries += [_hom_free(state, rng, r, Y) for r in FREE_RANKS for Y in family]
        queries += [_iso(state, rng, X, _relabelled(rng, X)) for X in family]
        same_size = [(X, Y) for X in family for Y in family if X is not Y and X.size == Y.size]
        queries += [_iso(state, rng, X, Y) for X, Y in same_size]
        queries.append(_modules(state, base))
    lattices = [t for t in state.families["BOOL"] if t.size == 4]
    queries += [_hom(state, rng, X, Y) for X in lattices for Y in lattices for _ in range(LATTICE_HOM_COPIES)]
    everything = [t for family in state.families.values() for t in family if t.size > 1]
    queries += [_congruence(state, rng, rng.choice(everything)) for _ in range(CONGRUENCES)]
    queries += [_exact(state, rng, rng.choice(everything)) for _ in range(EXACT)]
    queries += [_submodules(state, k) for k in SUBMODULE_RANKS]
    queries += [_colinear(state, name) for name in AMBIENTS]
    # every pair of colinear endomorphisms, as criterion 9 asks
    queries += [coequalizer_query(state, *spec) for spec in comodule_keys(state).values()]
    rng.shuffle(queries)
    return queries
