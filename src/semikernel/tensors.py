"""Tensor products of semimodules.

Two routes with one interface:

* a saturation route for finitely generated factors: present the tensor by
  pure-tensor generators modulo biadditivity, the factor presentations and
  scalar balance, then solve the word problem (presentations module) and
  enumerate the quotient.  A pure tensor's raw vector is the Kronecker
  product of its slots' words (each factor element's word read by
  position), and the result is a TableAtom in its Cayley form: the walk's
  graph, whose rows are folded on their first read;
* a fast route when every factor is a free module over the (finite) base,
  where the tensor is free on the product basis.

Both produce a TensorProduct carrying the result module, the pure-tensor
map, and representing formal sums for every element.
"""
from __future__ import annotations

import itertools

from .atoms import FreeAtom, TableAtom, two_sided
from .errors import FormatError, InternalInvariantError, UnsupportedError
from .presentations import Budget, MonoidPresentation
from .semimodules import (
    LinearMap,
    Semimodule,
    Subsemimodule,
    cancellative_reflection,
    direct_sum,
    identity_map,
    map_predicates,
    scalar_of,
    scalar_to,
    subtractive_closure,
)
from .util import Memo, fold, fs_eval, fs_make, unpreserved


def _through(maps, terms):
    """Terms [((m_1..m_k), mult)] with maps[i] applied in slot i (None: identity)."""
    return ((tuple(m if f is None else f(m) for f, m in zip(maps, ms)), k) for ms, k in terms)


class TensorProduct:
    """Common interface: factors, result module, pure map, representatives."""

    factors: tuple
    over: object
    result: Semimodule

    def pure(self, *ms):
        raise NotImplementedError

    def rep(self, x):
        """A representing formal sum [((m_1..m_k), mult)] for a result element."""
        raise NotImplementedError

    def push(self, terms, maps=None):
        """The sum of mult * pure(f_1(m_1), ..., f_k(m_k)) over terms
        [((m_1..m_k), mult)], folded in term order.

        maps holds one callable per slot, None in a slot meaning identity.
        """
        if maps is not None:
            terms = _through(maps, terms)
        if self.result is None:  # a lazy SaturationTensor has no module to fold in
            return self._push_raw(terms)
        return fs_eval(self.result, ((self.pure(*ms), mult) for ms, mult in terms))

    def position(self, terms):
        """push(terms) as a position of result.indexed(), folded there; the
        position of each pure tensor is worked out once per tensor."""
        P = self.result.indexed()
        pure = self.__dict__.setdefault("_pure_positions", Memo(lambda ms: P.of(self.pure(*ms))))
        return fold(P.plus, P.zero, ((pure[ms], k) for ms, k in terms))

    def descend(self, classes, structure, maps, fail):
        """Push a structure down a quotient, one class at a time.

        structure sends each element to a formal sum [((m_1..m_k), mult)]
        and maps[0] is the projection pi.  For each class (its members in
        order) every member's sum goes through maps and is pushed; all must
        agree, or fail(q) is raised with q = pi(first member).  Yields
        (q, members, the first member's mapped sum as a formal sum).
        """
        for members in classes:
            q = maps[0](members[0])
            if len({self.push(structure[x], maps) for x in members}) != 1:
                raise fail(q)
            yield q, members, fs_make(_through(maps, structure[members[0]]))

    def map_of(self, maps, target):
        """The induced map on tensors from per-slot linear maps.

        Well-definedness is re-verified; failure is a bug trap, not user
        error.  An element is pushed from its generators alone, and a slot
        map that is not additive can still respect every relation among
        them, so each slot map but an identity is first checked additive
        on every pair of a finite source, the scan LinearMap.check makes.
        """
        if len(maps) != len(self.factors):
            raise FormatError("one map per tensor slot required")

        def fn(x):
            return target.push(self.rep(x), maps)

        name = "(" + "x".join(f.name for f in maps) + ")"
        for f in maps:
            M = f.source
            xs = M.elements() if M.is_finite else ()
            if M is f.target and all(f(x) == x for x in xs):
                continue
            w = unpreserved(f, M.add, f.target.add, ((x, y) for x in xs for y in xs))
            if w is not None:
                raise InternalInvariantError(f"tensor map not well defined: {name}: not linear: {('additive', w)}")
        try:
            return LinearMap(self.result, target.result, fn, name=name, check=True)
        except FormatError as e:
            raise InternalInvariantError(f"tensor map not well defined: {e}") from e


class FreeTensor(TensorProduct):
    """Tensor of free modules over a finite commutative base: free on basis tuples."""

    def __init__(self, factors, over, name=None):
        self.factors = tuple(factors)
        self.over = over
        self.atoms = [m.atoms[0] for m in factors]
        basis = [tuple(range(len(a.basis))) for a in self.atoms]
        self.pairs = list(itertools.product(*basis))
        self.result = Semimodule(
            over, [FreeAtom(over, self.pairs)], name=name or "(x)".join(m.name for m in factors)
        )

    def pure(self, *ms):
        # the coefficient of combo in self.pairs (their product order) is
        # one * m0[i0] * m1[i1] * ..., folded slot by slot through the memo
        mul = self.over.mul_memo.__getitem__
        coeffs = (self.over.one,)
        for m in ms:
            coeffs = tuple(mul((c, x)) for c in coeffs for x in m[0])
        return (coeffs,)

    def rep(self, x):
        out = []
        for combo, c in zip(self.pairs, x[0]):
            if c == self.over.zero:
                continue
            ms = []
            for slot, i in enumerate(combo):
                a = self.atoms[slot]
                if slot == 0:
                    ms.append((a.unit(i, c),))
                else:
                    ms.append((a.unit(i),))
            out.append((tuple(ms), 1))
        return out


class SaturationTensor(TensorProduct):
    """General tensor by congruence saturation over reduced generators.

    With lazy=True only the word problem is solved (raw_pure/nf/equal work);
    the quotient module is never enumerated.  The base acts on the right of
    the last factor and on the left of the first.
    """

    def __init__(self, factors, over, budget=None, name=None, lazy=False):
        self.factors = tuple(factors)
        self.over = over
        self.budget = budget if budget is not None else Budget()
        gens_per = [m.gens() for m in factors]
        for m, g in zip(factors, gens_per):
            if g is None:
                raise UnsupportedError(f"{m.name}: not finitely generated; use the rule-based route")
        # gen_elems[j][t] is slot j's t-th generator, units[j][t] its word, and
        # pure_gens lists the pure tensors of generators as (t_0, ..., t_k-1)
        self.gen_elems = [[e for _, e in gl] for gl in gens_per]
        self.units = [[tuple(int(u == t) for u in range(len(gl))) for t in range(len(gl))] for gl in gens_per]
        self.pure_gens = list(itertools.product(*(range(len(gl)) for gl in gens_per)))
        self.n = len(self.pure_gens)
        self.words = [Memo(m.word) for m in factors]  # each factor element's word, read once
        self.pres = MonoidPresentation(self.n, self._relations(), budget=self.budget)
        if lazy:
            self.result = None
        else:
            self._build_result(self.pres.enumerate_quotient(), name)

    # lazy interface: raw vectors plus normalization
    def zero_vec(self):
        return (0,) * self.n

    def raw_pure(self, *ms):
        return self._vec([w[m] for w, m in zip(self.words, ms)])

    def nf(self, vec):
        return self.pres.reduce(vec)

    def _push_raw(self, terms):
        """push on a lazy tensor: the terms' raw vectors are summed and
        reduced once, to the element a built result would hold."""
        acc = [0] * self.n
        for ms, k in terms:
            for i, c in enumerate(self.raw_pure(*ms)):
                acc[i] += c * k
        return (self.nf(acc),)

    # presentation assembly ------------------------------------------------

    def _vec(self, words):
        """The raw vector of the pure tensor whose slot j has the word
        words[j]: the words' Kronecker product, as pure_gens runs over the
        slots' generators in product order, so (t_0, ..., t_k-1) sits at the
        sum of t_j * stride_j and holds the product of the words[j][t_j]."""
        v = (1,)
        for w in words:
            v = [a * c for a in v for c in w]
        return tuple(v)

    def _relations(self):
        rels = []
        k = len(self.factors)
        # factor presentations, tensored with generators of the other slots
        for i, m in enumerate(self.factors):
            ctx_pools = [self.units[j] if j != i else [None] for j in range(k)]
            for rel in m.relations():
                for ctx in itertools.product(*ctx_pools):
                    rels.append(tuple(self._vec([side if j == i else ctx[j] for j in range(k)]) for side in rel))
        # balance between adjacent slots on the additive generators of S
        # other than 1 (whose sides coincide): both sides are additive in the
        # scalar, so every other scalar's balance follows
        S = self.over
        gens = S.presentation()[0] if S.elements is not None else ()
        scalars = [S.elements[g] for g in gens if S.elements[g] != S.one]
        for i in range(k - 1):
            ctx_pools = [self.units[j] if j not in (i, i + 1) else [None] for j in range(k)]
            for a in scalars:
                for gl, ml in enumerate(self.gen_elems[i]):
                    left = self.words[i][self.factors[i].act(ml, a)]
                    for gr, mr in enumerate(self.gen_elems[i + 1]):
                        right = self.words[i + 1][self.factors[i + 1].act_left(a, mr)]
                        for ctx in itertools.product(*ctx_pools):
                            l_slots = [left if j == i else self.units[j][gr] if j == i + 1 else ctx[j] for j in range(k)]
                            r_slots = [self.units[j][gl] if j == i else right if j == i + 1 else ctx[j] for j in range(k)]
                            rels.append((self._vec(l_slots), self._vec(r_slots)))
        return rels

    # result assembly --------------------------------------------------------

    def _build_result(self, quotient, name):
        """The result atom in TableAtom's Cayley form: the quotient walk's
        graph and the action on each generator, the right one on the last
        slot and the left one on the first only if some factor is a
        bimodule (else both agree)."""
        classes, steps, _ = quotient
        S, actions = self.over, []
        if S.elements is not None:
            pos = {x: i for i, x in enumerate(classes)}
            for slot in (-1, 0) if any(two_sided(a) for m in self.factors for a in m.atoms) else (-1,):
                actions.append([[pos[self._act_slot(classes[j], s, slot)] for s in S.elements] for j in steps[0]])
        atom = TableAtom(S, classes, quotient, *actions)
        self.result = Semimodule(S, [atom], name=name or "(x)".join(m.name for m in self.factors))

    def _act_slot(self, vec, s, slot):
        """The class of vec with s acting in one tensor slot (-1 the right
        action on the last, 0 the left on the first) of each pure generator."""
        slot, out = slot % len(self.factors), [0] * self.n
        fac, last = self.factors[slot], slot == len(self.factors) - 1
        for ts, mult in zip(self.pure_gens, vec):
            if mult:
                m = self.gen_elems[slot][ts[slot]]
                word = self.words[slot][fac.act(m, s) if last else fac.act_left(s, m)]
                piece = self._vec([word if j == slot else self.units[j][t] for j, t in enumerate(ts)])
                out = [o + c * mult for o, c in zip(out, piece)]
        return self.pres.reduce(out)

    # interface ---------------------------------------------------------------

    def pure(self, *ms):
        return (self.pres.reduce(self.raw_pure(*ms)),)

    def rep(self, x):
        return [(tuple(map(list.__getitem__, self.gen_elems, self.pure_gens[idx])), k) for idx, k in enumerate(x[0]) if k]


def _is_free_over(m, S):
    return len(m.atoms) == 1 and isinstance(m.atoms[0], FreeAtom) and m.atoms[0].base is S


def tensor(M, N, over=None, budget=None, force_saturation=False):
    """M (x) N over the base semiring (defaults to M's base)."""
    return tensor_multi([M, N], over, budget, force_saturation)


def tensor_multi(mods, over=None, budget=None, force_saturation=False, lazy=False):
    over = over or mods[0].base
    if not force_saturation and over.is_finite and all(_is_free_over(m, over) for m in mods):
        return FreeTensor(mods, over)
    return SaturationTensor(mods, over, budget=budget, lazy=lazy)


def tensor_of_maps(f, g, source_tensor=None, target_tensor=None, over=None):
    """(f (x) g) between computed tensor products."""
    st = source_tensor or tensor(f.source, g.source, over=over)
    tt = target_tensor or tensor(f.target, g.target, over=over)
    return st.map_of([f, g], tt), st, tt


# ---------------------------------------------------------------- unit laws

def _verify_mutually_inverse(theta, inv):
    for x in theta.source.elements():
        if inv(theta(x)) != x:
            raise InternalInvariantError(f"{theta.name} not iso at {x}")
    for m in inv.source.elements():
        if theta(inv(m)) != m:
            raise InternalInvariantError(f"{theta.name} inverse fails at {m}")


def unit_isos_right(M, SM):
    """theta^r: M (x) S -> M and its inverse; both verified linear and mutually
    inverse on every element."""
    T = tensor(M, SM, over=M.base)

    def fwd(x):
        return fs_eval(M, ((M.act(m, scalar_of(SM, smod)), mult) for (m, smod), mult in T.rep(x)))

    theta = LinearMap(T.result, M, fwd, name="theta_r", check=True)
    inv = LinearMap(M, T.result, lambda m: T.pure(m, scalar_to(SM, M.base.one)), name="theta_r_inv", check=True)
    _verify_mutually_inverse(theta, inv)
    return T, theta, inv


def unit_isos_left(M, SM):
    T = tensor(SM, M, over=M.base)

    def fwd(x):
        return fs_eval(
            M, ((M.act_left(scalar_of(SM, smod), m), mult) for (smod, m), mult in T.rep(x))
        )

    theta = LinearMap(T.result, M, fwd, name="theta_l", check=True)
    inv = LinearMap(M, T.result, lambda m: T.pure(scalar_to(SM, M.base.one), m), name="theta_l_inv", check=True)
    _verify_mutually_inverse(theta, inv)
    return T, theta, inv


def flip_isomorphism(T, Tflip):
    """M (x) N -> N (x) M over a commutative base, with verification."""

    def fn(x):
        return Tflip.push(((n, m), mult) for (m, n), mult in T.rep(x))

    f = LinearMap(T.result, Tflip.result, fn, name="flip", check=True)
    preds = map_predicates(f)
    if not (preds["injective"] and preds["surjective"]):
        raise InternalInvariantError("flip map is not an isomorphism")
    return f


def takahashi_tensor(M, N, over=None):
    """Tensor followed by cancellative reflection (the tensor-like product)."""
    T = tensor(M, N, over=over)
    Q, pi = cancellative_reflection(T.result)
    return T, Q, pi


# ---------------------------------------------------------------- probes

def flatness_probe(M, family, over=None):
    """Family-relative certificate: does M (x) - preserve the given monos?

    family: list of LinearMaps that are injective (checked).  Returns a dict
    with per-member verdicts and witnesses; never a proof beyond the family.
    """
    over = over or M.base
    results = []
    mono_ok = True
    uni_ok = True
    for f in family:
        entry = {"map": f.name}
        preds = map_predicates(f)
        if not preds["injective"]:
            raise FormatError(f"family member {f.name} is not injective")
        TX = tensor(M, f.source, over=over)
        TY = tensor(M, f.target, over=over)
        Ff = TX.map_of([identity_map(M), f], TY)
        p = map_predicates(Ff)
        entry["mono_preserved"] = p["injective"]
        entry["witness"] = p["injective_witness"]
        sub = Subsemimodule(TY.result, frozenset(Ff(x) for x in TX.result.elements()))
        entry["image_subtractive"] = subtractive_closure(sub).elements == sub.elements
        entry["member_uniform"] = preds["i_uniform"]
        mono_ok = mono_ok and entry["mono_preserved"]
        # uniform flatness only quantifies over uniform (subtractive-image) monos
        if preds["i_uniform"]:
            uni_ok = uni_ok and entry["mono_preserved"] and entry["image_subtractive"]
        results.append(entry)
    return {
        "mono_flat_on_family": mono_ok,
        "uniformly_flat_on_family": uni_ok,
        "family": results,
    }


def product_interchange(M, family, over=None):
    """The canonical map M (x) prod(X_i) -> prod(M (x) X_i) for a finite family."""
    over = over or M.base
    P, injs, projs = direct_sum(family)
    T = tensor(M, P, over=over)
    Ts = [tensor(M, X, over=over) for X in family]
    Q, qinjs, _ = direct_sum([t.result for t in Ts])

    def fn(x):
        return fs_eval(
            Q,
            (
                (qinjs[i](t.pure(m, projs[i](p))), mult)
                for (m, p), mult in T.rep(x)
                for i, t in enumerate(Ts)
            ),
        )

    phi = LinearMap(T.result, Q, fn, name="interchange", check=True)
    preds = map_predicates(phi)
    return phi, {"surjective": preds["surjective"], "bijective": preds["injective"] and preds["surjective"]}
