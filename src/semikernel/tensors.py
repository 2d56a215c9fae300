"""Tensor products of semimodules.

Two routes with one interface:

* a saturation route for finitely generated factors: present the tensor by
  pure-tensor generators modulo biadditivity, the factor presentations and
  scalar balance, then solve the word problem (presentations module) and
  enumerate the quotient;
* a fast route when every factor is a free module over the (finite) base,
  where the tensor is free on the product basis.

Both produce a TensorProduct carrying the result module, the pure-tensor
map, and representing formal sums for every element.
"""
from __future__ import annotations

import itertools

from .atoms import FreeAtom, PresentedTableAtom, compact
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
from .util import Memo, fold, fs_eval, fs_make


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

        Well-definedness is re-verified; failure is a bug trap, not user error.
        """
        if len(maps) != len(self.factors):
            raise FormatError("one map per tensor slot required")

        def fn(x):
            return target.push(self.rep(x), maps)

        name = "(" + "x".join(f.name for f in maps) + ")"
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
    the quotient module is never enumerated.  left_action (s, m) -> s m acts
    on the first factor; right_action is (ring, fn) with fn (m, s) -> m s on
    the last factor, and its ring becomes the result's base.
    """

    def __init__(self, factors, over, budget=None, name=None, left_action=None, right_action=None, lazy=False):
        self.factors = tuple(factors)
        self.over = over
        self.budget = budget if budget is not None else Budget()
        gens_per = []
        for m in factors:
            g = m.gens()
            if g is None:
                raise UnsupportedError(
                    f"{m.name}: not finitely generated; use the rule-based route"
                )
            gens_per.append(g)
        self.gen_tags = [
            tuple(t for t, _ in gl) for gl in gens_per
        ]
        self.gen_elems = [
            {t: e for t, e in gl} for gl in gens_per
        ]
        self.pure_gens = list(itertools.product(*self.gen_tags))
        self.index = {g: i for i, g in enumerate(self.pure_gens)}
        self.n = len(self.pure_gens)
        self._act_pieces = {}
        relations = self._relations()
        self.pres = MonoidPresentation(self.n, relations, budget=self.budget)
        self._raw_relations = relations
        if lazy:
            self.result = None
        else:
            self._build_result(self.pres.enumerate_quotient(), name, left_action, right_action)

    # lazy interface: raw vectors plus normalization
    def zero_vec(self):
        return (0,) * self.n

    def raw_pure(self, *ms):
        slots = [f.decompose(m) for f, m in zip(self.factors, ms)]
        return self._vec(slots)

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

    def _vec(self, slot_counters):
        """Cross product of per-slot generator multisets, as a dense vector."""
        v = [0] * self.n
        for combo in itertools.product(*[list(c.items()) for c in slot_counters]):
            tag = tuple(t for t, _ in combo)
            mult = 1
            for _, k in combo:
                mult *= k
            v[self.index[tag]] += mult
        return tuple(v)

    def _relations(self):
        rels = []
        k = len(self.factors)
        # factor presentations, tensored with generators of the other slots
        for i, m in enumerate(self.factors):
            cay = m.cayley()
            if not cay:
                continue
            ctx_pools = [
                [{t: 1} for t in self.gen_tags[j]] if j != i else [None]
                for j in range(k)
            ]
            for lhs, rhs in cay:
                for ctx in itertools.product(*ctx_pools):
                    l_slots = [lhs if j == i else ctx[j] for j in range(k)]
                    r_slots = [rhs if j == i else ctx[j] for j in range(k)]
                    rels.append((self._vec(l_slots), self._vec(r_slots)))
        # balance between adjacent slots (0 and 1 give coinciding sides)
        scalars = [
            s
            for s in (self.over.elements or ())
            if s != self.over.zero and s != self.over.one
        ]
        for i in range(k - 1):
            ctx_pools = [
                [{t: 1} for t in self.gen_tags[j]] if j not in (i, i + 1) else [None]
                for j in range(k)
            ]
            for a in scalars:
                for gl in self.gen_tags[i]:
                    ml = self.gen_elems[i][gl]
                    left_dec = self.factors[i].decompose(self.factors[i].act(ml, a))
                    for gr in self.gen_tags[i + 1]:
                        mr = self.gen_elems[i + 1][gr]
                        right_dec = self.factors[i + 1].decompose(
                            self.factors[i + 1].act_left(a, mr)
                        )
                        for ctx in itertools.product(*ctx_pools):
                            l_slots = [
                                left_dec if j == i else ({gr: 1} if j == i + 1 else ctx[j])
                                for j in range(k)
                            ]
                            r_slots = [
                                {gl: 1} if j == i else (right_dec if j == i + 1 else ctx[j])
                                for j in range(k)
                            ]
                            rels.append((self._vec(l_slots), self._vec(r_slots)))
        return rels

    # result assembly --------------------------------------------------------

    def _build_result(self, quotient, name, left_action, right_action):
        classes, steps, parent = quotient
        # The addition table on indices into classes, folded along the
        # spanning tree one row at a time: with b reached as p + e_g, the row
        # of b maps each a to the g-step from nf(a + p).  The forms are
        # convergent, so this is exact and rewrites nothing.
        step_by_gen = list(zip(*steps))  # step_by_gen[g][i]: the g-step from class i
        n = len(classes)
        if n <= 256:  # bytes rows: one translate through each g-step table
            tables = [bytes(step) + bytes(256 - n) for step in step_by_gen]
            rows = [bytes(range(n))]
            for p, g in parent[1:]:
                rows.append(rows[p].translate(tables[g]))
        else:
            rows = [list(range(n))]
            for p, g in parent[1:]:
                rows.append(list(map(step_by_gen[g].__getitem__, rows[p])))
            for i, row in enumerate(rows):  # compact in place: one list at a time beside the arrays
                rows[i] = compact(row, n)
        r_ring, r_fn = right_action if right_action is not None else (self.over, None)
        gen_nfs = [classes[j] for j in steps[0]]
        action = None
        if r_ring.elements is not None:
            # The action is additive, (p + e_g) s = p s + e_g s, so its rows
            # are folded along the same tree from the action on each
            # generator, worked out once.
            pos = {x: i for i, x in enumerate(classes)}
            gen_act = [[pos[self._act_slot(x, s, -1, r_fn)] for s in r_ring.elements] for x in gen_nfs]
            action = [[0] * len(r_ring.elements)]  # 0 s = 0, the class of 0
            for p, g in parent[1:]:
                action.append([rows[a][b] for a, b in zip(action[p], gen_act[g])])
        atom = PresentedTableAtom(r_ring, classes, rows, action, gen_nfs, self._raw_relations)

        def act_l(s, x):
            return (self._act_slot(x[0], s, 0, left_action),)

        self.result = Semimodule(
            r_ring,
            [atom],
            name=name or "(x)".join(m.name for m in self.factors),
            act_left=act_l,
        )

    def _act_slot(self, vec, s, slot, custom_fn):
        """Action applied in one tensor slot of every generator of a class vector.

        The action on a pure generator is worked out once per scalar, slot
        and action, as sparse (index, multiplicity) pairs, and then reused.
        """
        slot = slot % len(self.factors)
        pieces = self._act_pieces.setdefault((s, slot, custom_fn), {})
        out = [0] * self.n
        for idx, mult in enumerate(vec):
            if not mult:
                continue
            piece = pieces.get(idx)
            if piece is None:
                piece = pieces[idx] = self._act_gen(idx, s, slot, custom_fn)
            for i, c in piece:
                out[i] += c * mult
        return self.pres.reduce(out)

    def _act_gen(self, idx, s, slot, custom_fn):
        k = len(self.factors)
        tags = self.pure_gens[idx]
        m = self.gen_elems[slot][tags[slot]]
        fac = self.factors[slot]
        if custom_fn is not None:
            acted = custom_fn(m, s) if slot == k - 1 else custom_fn(s, m)
        else:
            acted = fac.act(m, s) if slot == k - 1 else fac.act_left(s, m)
        dec = fac.decompose(acted)
        piece = self._vec([dec if j == slot else {tags[j]: 1} for j in range(k)])
        return [(i, c) for i, c in enumerate(piece) if c]

    # interface ---------------------------------------------------------------

    def pure(self, *ms):
        slots = [f.decompose(m) for f, m in zip(self.factors, ms)]
        return (self.pres.reduce(self._vec(slots)),)

    def rep(self, x):
        vec = x[0]
        out = []
        for idx, mult in enumerate(vec):
            if not mult:
                continue
            tags = self.pure_gens[idx]
            ms = tuple(self.gen_elems[i][t] for i, t in enumerate(tags))
            out.append((ms, mult))
        return out


def _is_free_over(m, S):
    return (
        len(m.atoms) == 1
        and isinstance(m.atoms[0], FreeAtom)
        and m.atoms[0].base is S
        and m._act_left is None
    )


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
