"""Semicorings: comonoids in bisemimodules, their gallery, duals and coideals.

Comultiplications are stored as formal sums of pure-tensor pairs and are
normalized through the computed tensor product before any equality test.
Finite carriers are checked exhaustively for linearity and the counit laws;
coassociativity is checked on every element for small carriers and on a
generating set otherwise (sound because linearity is checked exhaustively).
"""
from __future__ import annotations

from math import comb

from .atoms import CyclicAtom, FreeAtom, NatAtom, TableAtom, greedy
from .errors import FormatError, UnsupportedError
from .semimodules import (
    LinearMap,
    Semimodule,
    Subsemimodule,
    _homs,
    congruence_mod,
    quotient_by_congruence,
    retable_module,
    scalar_of,
    scalar_to,
    semiring_module,
    span,
    subtractive_closure,
)
from .semirings import semiring_from_tables
from .structured import (
    StructuredMap,
    rule_tensor,
    structured_identity,
    structured_map_tensor,
)
from .tensors import tensor, tensor_multi
from .util import Report, fold, fs_eval, fs_make, ordkey, unpreserved_rows


class Semicoring:
    """Finite-carrier semicoring: carrier C, comultiplication and counit.

    delta: dict element -> formal sum (((c1, c2), mult), ...)
    eps:   dict element -> base element
    Construction does not validate; check_semicoring is the verdict.
    """

    structured = False

    def __init__(self, base, carrier, delta, eps, name="C"):
        self.base = base
        self.carrier = carrier
        self.delta = dict(delta)
        self.eps = dict(eps)
        self.name = name
        self._cc = None
        self._ccc = None

    def cc(self):
        if self._cc is None:
            self._cc = tensor(self.carrier, self.carrier, over=self.base)
        return self._cc

    def ccc(self):
        """Triple tensor in lazy form: word problem only, no enumeration."""
        if self._ccc is None:
            self._ccc = tensor_multi([self.carrier] * 3, over=self.base, lazy=True)
        return self._ccc

    def delta_norm(self, c):
        """Delta(c) as an element of the computed C (x) C."""
        return self.cc().push(self.delta[c])

    def mutate(self, delta=None, eps=None, name=None):
        out = Semicoring(
            self.base,
            self.carrier,
            {**self.delta, **(delta or {})},
            {**self.eps, **(eps or {})},
            name=name or f"{self.name}*",
        )
        # tensors depend only on the carrier, so mutants may share them
        out._cc = self._cc
        out._ccc = self._ccc
        return out

    def __repr__(self):
        return f"<Semicoring {self.name} over {self.base.name}>"


class StructuredSemicoring:
    """Semicoring on an infinite structured carrier; maps are symbolic."""

    structured = True

    def __init__(self, base, carrier, delta_map, eps_map, delta_formal, eps_formal, name="C"):
        self.base = base
        self.carrier = carrier
        self._delta = delta_map  # StructuredMap C -> C (x) C
        self._eps = eps_map  # StructuredMap C -> base module
        self.delta_formal = delta_formal
        self.eps_formal = eps_formal
        self.name = name
        self.cc_tensor = delta_map.target_tensor

    def __repr__(self):
        return f"<StructuredSemicoring {self.name} over {self.base.name}>"


# ---------------------------------------------------------------- checking

def _coassoc_elements(C):
    """Elements on which coassociativity is verified elementwise.

    Large carriers are checked on an additive generating set; this is a
    complete check because linearity of the comultiplication is verified
    exhaustively first.
    """
    ix = C.carrier.indexed()
    if len(ix.elements) <= 32:
        return ix.elements, True
    return [ix.elements[g] for g in greedy(ix.plus, ix.zero, range(len(ix.elements)))[0]], False


def eps_acting(C, car, coring=False):
    """Raise FormatError naming the first c, in C's element order, whose
    counit value lies off the base and cannot act on every element of car
    on the right, or, for check_semicoring's coring, on the left, or be
    added in the base to every counit value, as the element fallbacks of
    the counit checks and the coring's counit scans would."""
    S = C.base
    for c in C.carrier.elements():
        v, what = C.eps[c], f"{car.name} cannot be acted on by"
        try:
            if v not in (S.index or ()):
                for x in car.elements():
                    car.act(x, v)
                    if coring:
                        car.act_left(v, x)
                if coring:
                    what = f"{S.name} cannot add"
                    for u in C.eps.values():
                        S.add(v, u)
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"{C.name}: {what} eps({c!r}) = {v!r}") from e


def check_semicoring(C) -> Report:
    if C.structured:
        return _check_semicoring_structured(C)
    rep = Report(f"semicoring {C.name}")
    car, S, T2 = C.carrier, C.base, C.cc()
    # the scans run on positions (util.unpreserved_rows): C's and C (x) C's
    # in their indexed(), with Delta(c) pushed to its position directly;
    # epsilon's images stay elements of S
    ix, P = car.indexed(), T2.result.indexed()
    els, scalars = ix.elements, S.elements
    dm = [T2.position(C.delta[c]) for c in els]
    eps = [C.eps[c] for c in els]
    w = unpreserved_rows(dm, ix.add, P.plus, els)
    rep.add("comult-additive", w is None, w)
    w = unpreserved_rows(dm, ix.act, P.scale, els, scalars)
    rep.add("comult-right-linear", w is None, w)
    w = unpreserved_rows(dm, ix.left, P.scale_left, els, scalars)
    rep.add("comult-left-linear", w is None, w)
    # the counit triangles fold on C's positions; an epsilon value off S acts
    # off the carrier, which must act by it, and then they are summed on elements
    ep = [S.index.get(e) for e in eps]
    off = None in ep
    if off:
        eps_acting(C, car, coring=True)
    w = unpreserved_rows(eps, ix.add, S.add, els)
    rep.add("counit-additive", w is None, w)
    w = unpreserved_rows(eps, ix.act, lambda e, k: S.mul(e, scalars[k]), els, scalars)
    rep.add("counit-right-linear", w is None, w)

    w = None
    for c in els:
        dc = C.delta[c]
        if off:
            left = fs_eval(car, ((car.act_left(C.eps[c1], c2), mult) for (c1, c2), mult in dc))
            right = fs_eval(car, ((car.act(c1, C.eps[c2]), mult) for (c1, c2), mult in dc))
        else:
            terms = [(ix.index[c1], ix.index[c2], mult) for (c1, c2), mult in dc]
            left = els[fold(ix.plus, ix.zero, ((ix.left[b][ep[a]], mult) for a, b, mult in terms))]
            right = els[fold(ix.plus, ix.zero, ((ix.act[a][ep[b]], mult) for a, b, mult in terms))]
        if left != c:
            w = ("left", c, left)
            break
        if right != c:
            w = ("right", c, right)
            break
    rep.add("counit-law", w is None, w)

    check_els, exhaustive = _coassoc_elements(C)
    w = noncoassociative(check_els, C.delta, C.delta, C.ccc())
    w = None if w is None else (w, "coassociativity")
    rep.add("coassociative" + ("" if exhaustive else "-on-generators"), w is None, w)
    return rep


def noncoassociative(els, rho, delta, T3):
    """The first x of els, in order, at which (rho (x) C) rho(x) and (M (x)
    delta) rho(x) differ in T3 = M (x) C (x) C, or None: rho and delta map
    elements to formal sums (((m, c), k), ...), and rho is delta for a coring."""
    push = T3.push if T3.result is None else T3.position  # a lazy T3 has no positions
    for x in els:
        lhs = [((m11, c11, c1), k * n) for (m1, c1), k in rho[x] for (m11, c11), n in rho[m1]]
        rhs = [((m1, c11, c12), k * n) for (m1, c1), k in rho[x] for (c11, c12), n in delta[c1]]
        if push(lhs) != push(rhs):
            return x
    return None


def structured_coassociative(car, rho, TM, C):
    """(ok, witness) for coassociativity, (rho (x) C) rho = (car (x) delta)
    rho, of structured maps rho: car -> TM.result = car (x) C and C's
    delta; for a coring, car is C's carrier and rho is delta.  The
    composites are compared by their generator images in car (x) C (x) C,
    the rule tensor formed both ways and refused when the layouts differ."""
    T2, idC, idM = C.cc_tensor, structured_identity(C.carrier), structured_identity(car)
    Ta = rule_tensor(TM.result, C.carrier, over=C.base)
    Tb = rule_tensor(car, T2.result, over=C.base)
    if [a.describe() for a in Ta.result.atoms] != [a.describe() for a in Tb.result.atoms]:
        raise UnsupportedError("triple tensor atom layouts differ")
    lhs = structured_map_tensor(rho, idC, TM, Ta).compose(rho)
    rhs = structured_map_tensor(idM, C._delta, TM, Tb).compose(rho)
    return lhs.descrs == rhs.descrs, (lhs.descrs, rhs.descrs)


def _check_semicoring_structured(C) -> Report:
    rep = Report(f"semicoring {C.name}")
    car = C.carrier
    T2 = C.cc_tensor
    delta, eps = C._delta, C._eps
    idC = structured_identity(car)
    rep.add("coassociative", *structured_coassociative(car, delta, T2, C))

    # counit law via theta on the rule tensor with the base-as-module
    base_mod = eps.target
    Tl = rule_tensor(base_mod, car, over=C.base)
    Tr = rule_tensor(car, base_mod, over=C.base)
    left = structured_map_tensor(eps, idC, T2, Tl).compose(delta)
    right = structured_map_tensor(idC, eps, T2, Tr).compose(delta)
    # both targets are canonically the carrier again (unit rules)
    ok_layout = [a.describe() for a in Tl.result.atoms] == [a.describe() for a in car.atoms]
    ok_layout = ok_layout and [a.describe() for a in Tr.result.atoms] == [
        a.describe() for a in car.atoms
    ]
    rep.add("unit-tensor-layout", ok_layout)
    ident = structured_identity(car)
    left_id = StructuredMap(car, car, left.descrs, name="l", check=False)
    right_id = StructuredMap(car, car, right.descrs, name="r", check=False)
    rep.add("counit-left", left_id.descrs == ident.descrs, left.descrs)
    rep.add("counit-right", right_id.descrs == ident.descrs, right.descrs)
    return rep


class SemicoringMorphism:
    """A linear map packaged with its (co)multiplicativity verdict."""

    def __init__(self, source, target, fn, name="f", check=True):
        self.source = source
        self.target = target
        self.map = LinearMap(source.carrier, target.carrier, fn, name=name)
        self.name = name
        if check:
            rep = self.check()
            if not rep.ok:
                raise FormatError(f"{name}: not a semicoring morphism: {rep.first_witness()}")

    def check(self) -> Report:
        return semicoring_morphism_check(self.map, self.source, self.target)

    def __call__(self, x):
        return self.map(x)


def semicoring_morphism_check(f: LinearMap, source, target) -> Report:
    """f: source -> target a map of semicorings over the same base."""
    rep = Report(f"semicoring morphism {f.name}")
    Tt = target.cc()
    w = None
    for d in source.carrier.elements():
        if Tt.push(source.delta[d], (f, f)) != target.delta_norm(f(d)):
            w = d
            break
    rep.add("comult-square", w is None, w)
    w = next(
        (d for d in source.carrier.elements() if target.eps[f(d)] != source.eps[d]), None
    )
    rep.add("counit-triangle", w is None, w)
    return rep


# ---------------------------------------------------------------- gallery

def basis_elem(M, i, s=None):
    atom = M.atoms[0]
    return (atom.unit(i, s),)


def _linear_semicoalgebra(S, labels, name, basis_delta, basis_eps):
    """The free semicoalgebra on labels with Delta(e_i) = sum s e_j (x) e_k
    over the (j, s, k) of basis_delta[i] and epsilon(e_i) = basis_eps[i],
    both extended linearly to every element sum c_i e_i of the carrier."""
    car = Semimodule(S, [FreeAtom(S, labels)], name=name)
    car.labels = tuple(labels)
    delta, eps = {}, {}
    for v in car.elements():
        terms = []
        total = S.zero
        for i, c in enumerate(v[0]):
            if c == S.zero:
                continue
            for j, s, k in basis_delta[i]:
                cs = S.mul(c, s)
                if cs != S.zero:
                    terms.append(((basis_elem(car, j, cs), basis_elem(car, k)), 1))
            total = S.add(total, S.mul(c, basis_eps[i]))
        delta[v] = fs_make(terms)
        eps[v] = total
    return Semicoring(S, car, delta, eps, name=car.name)


def grouplike_semicoalgebra(S, points, name=None):
    """Free carrier on a point set; every point is group-like."""
    if not S.flags["commutative"]:
        raise FormatError("group-like semicoalgebra needs a commutative base")
    points = list(points)
    n = len(points)
    delta = [[(i, S.one, i)] for i in range(n)]
    return _linear_semicoalgebra(S, points, name or f"GL({S.name},{n})", delta, [S.one] * n)


def polynomial_semicoalgebra(S, d, variant, name=None):
    """Truncated one-variable semicoalgebra: powers x^0..x^d.

    variant 1: group-like powers; variant 2: binomial splitting with
    coefficients computed inside S (characteristic effects are native).
    """
    if variant == 1:
        C = grouplike_semicoalgebra(S, [f"x{i}" for i in range(d + 1)], name=name)
        C.name = name or f"poly1({S.name},{d})"
        return C
    if variant != 2:
        raise FormatError("variant must be 1 or 2")
    return _linear_semicoalgebra(
        S,
        [f"x{i}" for i in range(d + 1)],
        name or f"poly2({S.name},{d})",
        [[(j, S.times_int(S.one, comb(i, j)), i - j) for j in range(i + 1)] for i in range(d + 1)],
        [S.one] + [S.zero] * d,
    )


def _words(L):
    out = [""]
    frontier = [""]
    for _ in range(L):
        frontier = [w + l for w in frontier for l in "xy"]
        out.extend(frontier)
    return out


def boolean_word_semicoalgebra(L, variant, name=None):
    """Formal sums of words in x, y up to length L over the Boolean semiring.

    variant 1: group-like; variant 2: deconcatenation; variant 3: letters are
    primitive and the comultiplication is extended multiplicatively.
    """
    from .semirings import bool_semiring

    S = bool_semiring()
    words = _words(L)
    widx = {w: i for i, w in enumerate(words)}

    def word_terms(w):
        if variant == 1:
            return [(w, w)]
        if variant == 2:
            return [(w[:k], w[k:]) for k in range(len(w) + 1)]
        if variant == 3:
            pairs = []
            for mask in range(1 << len(w)):
                u = "".join(ch for k, ch in enumerate(w) if mask >> k & 1)
                v = "".join(ch for k, ch in enumerate(w) if not mask >> k & 1)
                pairs.append((u, v))
            return pairs
        raise FormatError("variant must be 1, 2 or 3")

    delta = [[(widx[u], S.one, widx[v]) for u, v in word_terms(w)] for w in words]
    # w(1, 1) = 1 for every word; otherwise w(0, 0) = [w empty]
    eps = [S.one if variant == 1 or w == "" else S.zero for w in words]
    return _linear_semicoalgebra(S, words, name or f"words{variant}(L={L})", delta, eps)


def _bimodule_over(B, A, phi):
    """A as a (B,B)-bisemimodule via restriction along phi: B -> A."""
    action = {(a, s): A.mul(a, phi(s)) for a in A.elements for s in B.elements}
    left = {(a, s): A.mul(phi(s), a) for a in A.elements for s in B.elements}
    return Semimodule(B, [TableAtom(B, A.elements, A.tables()[0], action, left)], name=f"{A.name} as {B.name}-mod")


def sweedler_semicoring(phi, name=None):
    """The canonical semicoring on A (x)_B A for a semialgebra map phi: B -> A:
    the B-tensor of A, its A-actions m (x) n a and a m (x) n pushed through it."""
    B, A = phi.source, phi.target
    ABA = _bimodule_over(B, A, phi.fn)
    T = tensor(ABA, ABA)

    def acted(maps):  # the table {(class, a): its push through maps(a)}
        return {(x[0], a): T.push(T.rep(x), maps(a))[0] for x in T.result.elements() for a in A.elements}

    right = acted(lambda a: (None, lambda n: (A.mul(n[0], a),)))
    left = acted(lambda a: (lambda m: (A.mul(a, m[0]),), None))
    car = retable_module(T.result, A, right, name=name or f"{A.name}(x)_{B.name}{A.name}", left=left)
    one = (A.one,)
    delta = {}
    eps = {}
    for x in car.elements():
        reps = T.rep(x)
        delta[x] = fs_make([((T.pure(ma, one), T.pure(one, mb)), mult) for (ma, mb), mult in reps])
        eps[x] = fs_eval(A, ((A.mul(ma[0], mb[0]), mult) for (ma, mb), mult in reps))
    return Semicoring(A, car, delta, eps, name=name or f"Sw({A.name}/{B.name})")


def trivial_coextension(A, M, name=None):
    """Semicoring structure on A + M for an (A,A)-bisemimodule M."""
    from .semimodules import direct_sum

    AM = semiring_module(A)
    car, injs, projs = direct_sum([AM, M], name=name or f"{A.name}+{M.name}")
    inj_a, inj_m = injs

    def a_part(x):
        return scalar_of(AM, projs[0](x))

    def m_part(x):
        return projs[1](x)

    one = inj_a(scalar_to(AM, A.one))
    delta = {}
    eps = {}
    for x in car.elements():
        a = a_part(x)
        m = m_part(x)
        terms = []
        if a != A.zero:
            terms.append(((inj_a(scalar_to(AM, a)), one), 1))
        if m != M.zero:
            terms.append(((one, inj_m(m)), 1))
            terms.append(((inj_m(m), one), 1))
        delta[x] = fs_make(terms)
        eps[x] = a
    C = Semicoring(A, car, delta, eps, name=name or f"coext({A.name},{M.name})")
    C.m_inject = inj_m
    return C


def counterexample_semicoalgebra(n, name=None):
    """The NAT + CYCLIC(n) coalgebra whose tensor functor is not mono-flat."""
    from .semirings import nat

    if n < 2:
        raise FormatError("counterexample needs n >= 2")
    N = nat()
    car = Semimodule(N, [NatAtom(N), CyclicAtom(N, n)], name=name or f"N+Z/{n}")
    T2 = rule_tensor(car, car)
    # atom order in C (x) C: NATxNAT, NATxCYC, CYCxNAT, CYCxCYC
    delta = StructuredMap(
        car,
        T2.result,
        [("gen", (1, 0, 0, 0)), ("gen", (0, 1, 1, 1))],
        name="Delta",
    )
    delta.target_tensor = T2
    base_mod = Semimodule(N, [NatAtom(N)], name="NAT")
    eps = StructuredMap(car, base_mod, [("gen", (1,)), None], name="eps")

    def delta_formal(x):
        l, m = x
        terms = []
        if l:
            terms.append((((l, 0), (1, 0)), 1))
        if m:
            terms.append((((1, 0), (0, m)), 1))
            terms.append((((0, m), (1, 0)), 1))
            terms.append((((0, m), (0, 1)), 1))
        return fs_make(terms)

    C = StructuredSemicoring(
        N, car, delta, eps, delta_formal, lambda x: x[0], name=name or f"N+Z/{n}"
    )
    return C


# ---------------------------------------------------------------- duals

class DualSemiring:
    """Convolution semiring on a hom set of a finite semicoring."""

    def __init__(self, origin, side, semiring, homs, eta):
        self.origin = origin
        self.side = side
        self.semiring = semiring
        self.homs = homs  # the keys, in ordkey order
        self.eta = eta  # base element -> key

    def __repr__(self):
        return f"<DualSemiring {self.side} of {self.origin.name} ({len(self.homs)})>"


def dual_semiring(C, side="left", max_size=64):
    """The convolution dual of a finite semicoring; refuses oversized hom sets."""
    if C.structured:
        raise UnsupportedError("dual of a structured semicoring is not enumerable")
    A = C.base
    car = C.carrier
    SM = semiring_module(A)
    _, sels, homs = _homs(car, SM)
    scalars = [scalar_of(SM, x) for x in sels]
    # a key lists a functional's values by carrier position, so linearity and
    # the convolution read the actions off position rows: ix.act[i][s] is
    # c_i * (s-th scalar) and left[i][s] is (s-th scalar) * c_i
    ix = car.indexed()
    els = ix.elements
    left = ix.left

    def linear(k, act, mul):
        return all(k[act[i][s]] == mul(v, a) for i, v in enumerate(k) for s, a in enumerate(A.elements))

    # keep two-sided linear functionals only (gallery actions are symmetric,
    # but the Sweedler examples genuinely need the filter)
    kept = [
        k
        for k in (tuple(map(scalars.__getitem__, f)) for f in homs)
        if (side not in ("left", "two") or linear(k, left, lambda v, a: A.mul(a, v)))
        and (side not in ("right", "two") or linear(k, ix.act, A.mul))
    ]
    if len(kept) > max_size:
        raise UnsupportedError(
            f"dual hom set has {len(kept)} elements, above the cap {max_size}"
        )
    keys = set(kept)
    act = ix.act if side != "right" else left
    delta = [[(ix.index[c1], ix.index[c2], mult) for (c1, c2), mult in C.delta[c]] for c in els]

    def term(fk, gk, i1, i2):
        if side == "left":
            return gk[act[i1][A.index[fk[i2]]]]
        if side == "right":
            return fk[act[i2][A.index[gk[i1]]]]
        return A.mul(gk[i1], fk[i2])

    def conv(fk, gk, c):
        return fs_eval(A, ((term(fk, gk, i1, i2), mult) for i1, i2, mult in delta[c]))

    add_table = {}
    mul_table = {}
    klist = sorted(kept, key=ordkey)
    for fk in klist:
        for gk in klist:
            sk = tuple(A.add(x, y) for x, y in zip(fk, gk))
            if sk not in keys:
                raise FormatError("dual hom set not closed under addition")
            add_table[(fk, gk)] = sk
            pk = tuple(conv(fk, gk, c) for c in range(len(els)))
            if pk not in keys:
                raise FormatError("dual hom set not closed under convolution")
            mul_table[(fk, gk)] = pk
    zero_key = tuple(A.zero for _ in els)
    eps_key = tuple(C.eps[c] for c in els)
    ring = semiring_from_tables(
        f"{'*' if side in ('left', 'two') else ''}{C.name}{'*' if side in ('right', 'two') else ''}",
        klist,
        add_table,
        mul_table,
        zero_key,
        eps_key,
    )
    eta = {a: tuple(A.mul(a, C.eps[c]) for c in els) for a in A.elements}
    if any(k not in keys for k in eta.values()):
        raise FormatError("unit map image escapes the dual")
    return DualSemiring(C, side, ring, tuple(klist), eta)


# ---------------------------------------------------------------- coideals

def coideal_check(C, K: Subsemimodule):
    """Conditions for K to be a coideal of a finite semicoring."""
    car = C.carrier
    out = {}
    out["is_uniform"] = subtractive_closure(K).elements == K.elements
    out["counit_condition"] = all(C.eps[k] == C.base.zero for k in K.elements)
    T = C.cc()
    gens = [T.pure(k, c) for k in K.elements for c in car.elements()]
    gens += [T.pure(c, k) for k in K.elements for c in car.elements()]
    reach = span(T.result, gens).elements
    # Δ(k) is in the subtractive closure of reach iff Δ(k) + l is in reach for some l in reach
    add = T.result.add
    out["delta_condition"] = all(
        any(add(d, l) in reach for l in reach) for d in map(C.delta_norm, K.elements)
    )
    out["is_coideal"] = (
        (out["delta_condition"] and out["counit_condition"])
        if out["is_uniform"]
        else "not applicable"
    )
    return out


def quotient_semicoring(C, K: Subsemimodule):
    """C/K with the induced structure; re-verified by check_semicoring."""
    chk = coideal_check(C, K)
    if chk["is_coideal"] is not True:
        raise FormatError(f"K is not a coideal: {chk}")
    cong = congruence_mod(K)
    Q, pi = quotient_by_congruence(C.carrier, cong)
    # push the comultiplication through pi (x) pi and the counit along pi;
    # neither may depend on the representative
    TQ = tensor(Q, Q, over=C.base)
    delta_q = {}
    eps_q = {}

    def fail(q):
        return FormatError(f"quotient structure not well defined at {q}")

    classes = (sorted(cls, key=ordkey) for cls in cong.classes)
    for q, members, formal in TQ.descend(classes, C.delta, (pi, pi), fail):
        vals = {C.eps[c] for c in members}
        if len(vals) != 1:
            raise fail(q)
        delta_q[q] = formal
        eps_q[q] = vals.pop()
    Cq = Semicoring(C.base, Q, delta_q, eps_q, name=f"{C.name}/K")
    rep = check_semicoring(Cq)
    if not rep.ok:
        raise FormatError(f"quotient fails semicoring axioms: {rep.first_witness()}")
    return Cq, pi
