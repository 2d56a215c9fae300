"""Measuring pairings, the alpha condition, induced actions and rational parts."""
from __future__ import annotations

from .errors import CertificateError, FormatError, InternalInvariantError, UnsupportedError
from .semicomodules import Semicomodule, check_comodule, lift_coaction
from .semicorings import Semicoring, check_semicoring, dual_semiring
from .semimodules import (
    LinearMap,
    Subsemimodule,
    _homs,
    hom_enumerate,
    retable_module,
    scalar_of,
    semiring_module,
    span,
    sub_table,
    subtractive_closure,
    table_module,
)
from .semirings import semiring_from_tables
from .tensors import tensor
from .util import Report, fs_eval, fs_make, sorted_elems, unpreserved_rows


class MeasuringPairing:
    """A finite semiring 'actions' paired with a semicoring via an evaluation.

    kappa(a) = [c -> <a, c>] must land in the left convolution dual and be a
    semiring morphism; verify() checks both on ev itself, the product as
    the convolution over Delta, and builds no dual.
    """

    def __init__(self, asemiring, coring, ev, eta, name="P"):
        self.asemiring = asemiring
        self.coring = coring
        self.ev = dict(ev)  # (a element, carrier element) -> base element
        self.eta = dict(eta)  # base element -> a element
        self.name = name
        self.base = coring.base

    def amodule(self):
        """The pairing semiring as a right module over the base."""
        A = self.base
        els = self.asemiring.elements
        action = {(a, s): self.asemiring.mul(a, self.eta[s]) for a in els for s in A.elements}
        return table_module(A, els, self.asemiring.tables()[0], action, name=f"{self.asemiring.name} as {A.name}-mod")

    def verify(self) -> Report:
        rep = Report(f"measuring pairing {self.name}")
        A = self.base
        C = self.coring
        car = C.carrier
        els = car.elements()
        aels = self.asemiring.elements

        ix = car.indexed()

        def kappa_values(rows, top, cols=None):
            """The first a, in order, whose kappa(a) does not carry the
            operation on C's positions in rows to top on A."""
            for a in aels:
                w = unpreserved_rows([self.ev[(a, c)] for c in els], rows, top, els, cols)
                if w is not None:
                    return (a, *w)
            return None

        w = kappa_values(ix.add, A.add)
        rep.add("kappa-values-additive", w is None, w)
        w = kappa_values(ix.left, lambda v, k: A.mul(A.elements[k], v), A.elements)
        rep.add("kappa-values-left-linear", w is None, w)
        w = next(
            (
                (a, b, x)
                for a in aels
                for b in aels
                for x in els
                if self.ev[(self.asemiring.add(a, b), x)]
                != A.add(self.ev[(a, x)], self.ev[(b, x)])
            ),
            None,
        )
        rep.add("kappa-additive", w is None, w)
        # kappa multiplicative against the left convolution product
        w = None
        for a in aels:
            for b in aels:
                ab = self.asemiring.mul(a, b)
                for c in els:
                    acc = fs_eval(
                        A,
                        (
                            (self.ev[(b, car.act(c1, self.ev[(a, c2)]))], mult)
                            for (c1, c2), mult in C.delta[c]
                        ),
                    )
                    if acc != self.ev[(ab, c)]:
                        w = (a, b, c)
                        break
                if w:
                    break
            if w:
                break
        rep.add("kappa-multiplicative", w is None, w)
        w = next((c for c in els if self.ev[(self.asemiring.one, c)] != C.eps[c]), None)
        rep.add("kappa-unit-is-counit", w is None, w)
        w = next(
            (
                (s, c)
                for s in A.elements
                for c in els
                if self.ev[(self.eta[s], c)] != A.mul(s, C.eps[c])
            ),
            None,
        )
        rep.add("eta-compatible", w is None, w)
        # eta must itself be a morphism of semirings
        ok = self.eta[A.zero] == self.asemiring.zero and self.eta[A.one] == self.asemiring.one
        w = None
        for s in A.elements:
            for t in A.elements:
                if self.eta[A.add(s, t)] != self.asemiring.add(self.eta[s], self.eta[t]):
                    w = ("add", s, t)
                    break
                if self.eta[A.mul(s, t)] != self.asemiring.mul(self.eta[s], self.eta[t]):
                    w = ("mul", s, t)
                    break
            if w:
                break
        rep.add("eta-morphism", ok and w is None, w)
        return rep


def canonical_dual_pairing(C: Semicoring, max_size=64) -> MeasuringPairing:
    """P = (*C, C) with the evaluation <f, c> = f(c)."""
    D = dual_semiring(C, "left", max_size=max_size)
    els = C.carrier.elements()
    idx = {c: i for i, c in enumerate(els)}
    ev = {(k, c): k[idx[c]] for k in D.semiring.elements for c in els}
    return MeasuringPairing(D.semiring, C, ev, D.eta, name=f"(*{C.name},{C.name})")


def restrict_to_base(P: MeasuringPairing, M):
    """An asemiring-module viewed over the base via the unit map.

    Element shapes are preserved (retable), so the two carriers coincide.
    """
    A = P.base
    ta = M.atoms[0]
    action = {
        (r, s): M.act((r,), P.eta[s])[0] for r in ta.elements() for s in A.elements
    }
    return retable_module(M, A, action, name=f"{M.name}|{A.name}")


def alpha_eval(P: MeasuringPairing, M_A, T, t, a):
    """alpha(t)(a) = sum m_i <a, c_i> evaluated from the canonical representative."""
    return fs_eval(M_A, ((M_A.act(m, P.ev[(a, c)]), mult) for (m, c), mult in T.rep(t)))


def alpha_check(P: MeasuringPairing, M_A) -> dict:
    """Injectivity and subtractivity of M (x) C -> Hom(A-script, M)."""
    T = tensor(M_A, P.coring.carrier, over=P.base)
    aels = list(P.asemiring.elements)
    tensor_of = {}
    w_inj = None
    for t in T.result.elements():
        key = tuple(alpha_eval(P, M_A, T, t, a) for a in aels)
        if key in tensor_of:
            w_inj = (tensor_of[key], t)
            break
        tensor_of[key] = t
    # the elements of P.amodule() are (a,) for a in aels, both in ordkey order
    _, mels, homs = _homs(P.amodule(), M_A)
    ambient_keys = {tuple(map(mels.__getitem__, f)) for f in homs}
    img = set(tensor_of)
    if not img <= ambient_keys:
        raise InternalInvariantError("alpha image escapes the hom set")
    # subtractive: image closed inside the hom monoid under the closure rule
    w_sub = next((h for h in ambient_keys if h not in img and any(tuple(map(M_A.add, h, l1)) in img for l1 in img)), None)
    return {
        "injective": w_inj is None,
        "injective_witness": w_inj,
        "subtractive": w_sub is None,
        "subtractive_witness": w_sub,
        "tensor": T,
        "tensor_of": tensor_of,  # alpha(t) on aels -> t; holds every t when injective
    }


def alpha_certify(P: MeasuringPairing, family) -> dict:
    """Family-relative alpha certificate; never the universal condition."""
    members = []
    ok = True
    for M in family:
        r = alpha_check(P, M)
        members.append({"module": M.name, "injective": r["injective"], "subtractive": r["subtractive"]})
        ok = ok and r["injective"] and r["subtractive"]
    return {"alpha_on_family": ok, "family": members}


# ---------------------------------------------------------------- actions

def induced_action(P: MeasuringPairing, M: Semicomodule):
    """The pairing-semiring action m.a = sum m_0 <a, m_1> from the coaction."""
    car = M.carrier
    els = car.elements()
    aels = P.asemiring.elements
    action = {}
    for m in els:
        for a in aels:
            action[(m, a)] = fs_eval(
                car, ((car.act(m1, P.ev[(a, c1)]), mult) for (m1, c1), mult in M.coaction[m])
            )
    return table_module(P.asemiring, els, car.indexed().add, action, name=f"{M.name} induced")


def colinear_are_linear_check(P, M, N) -> bool:
    """Colinear maps respect the induced actions (functor into modules).

    Induced modules wrap carrier elements one level; maps act on the raw
    carrier elements.
    """
    from .semicomodules import colinear_maps

    MA = induced_action(P, M)
    NA = induced_action(P, N)
    for f in colinear_maps(M, N):
        for m in MA.elements():
            for a in P.asemiring.elements:
                if f(MA.act(m, a)[0]) != NA.act((f(m[0]),), a)[0]:
                    return False
    return True


# ---------------------------------------------------------------- rational part

class RationalPart:
    def __init__(self, ambient, elements, comodule, rho_class):
        self.ambient = ambient
        self.elements = elements
        self.comodule = comodule
        self.rho_class = rho_class  # element -> class in ambient (x) C

    def __repr__(self):
        return f"<RationalPart {len(self.elements)} of {self.ambient.name}>"


def rational_part(P: MeasuringPairing, M, alpha_report=None) -> RationalPart:
    """Largest subobject whose action is represented by a tensor over the coring.

    M is a finite module over the pairing semiring.  Requires the alpha
    certificate on M restricted to the base; the representing tensor of m
    is looked up by its action on the pairing semiring's elements among the
    alpha values that alpha_check evaluated, which injectivity makes unique.
    """
    M_A = restrict_to_base(P, M)
    rep = alpha_report or alpha_check(P, M_A)
    if not (rep["injective"] and rep["subtractive"]):
        raise CertificateError("alpha condition not certified on this module")
    T = rep["tensor"]
    aels = list(P.asemiring.elements)
    tensor_of = rep["tensor_of"]
    rho = {}
    for m in M.elements():
        t = tensor_of.get(tuple(M.act(m, a) for a in aels))
        if t is not None:
            rho[m] = t
    E = sub_table(M_A, rho, f"Rat({M.name})", raw=lambda m: m[0])
    incl = LinearMap(E, M_A, lambda x: x, name="rat-incl")
    lift, _, TE = lift_coaction(E, P.coring, incl, T)
    coaction = lift(
        rho.__getitem__,
        lambda e: InternalInvariantError(
            f"coaction of {e} not uniquely liftable to the rational part"
        ),
    )
    com = Semicomodule(P.coring, E, coaction, name=f"Rat({M.name})", mc=TE)
    chk = check_comodule(com)
    if not chk.ok:
        raise InternalInvariantError(f"rational part fails comodule axioms: {chk.first_witness()}")
    return RationalPart(M, frozenset(rho), com, rho)


def rat_property_suite(P: MeasuringPairing, family) -> Report:
    """Subtractivity, idempotence, functoriality and the membership criterion.

    The report is sampled when a family member has more submodules than
    enumerate_submodules' cap: the criterion then runs on two of them."""
    rep = Report(f"rational-part suite over {P.name}")
    rats = {}
    w = None
    for M in family:
        rats[M.name] = rational_part(P, M)
    # (closure) Rat = its subtractive closure inside M
    for M in family:
        r = rats[M.name]
        sub = Subsemimodule(restrict_to_base(P, M), r.elements)
        if subtractive_closure(sub).elements != r.elements:
            w = M.name
            break
    rep.add("rational-part-subtractive", w is None, w)
    # (idempotence) Rat(Rat(M)) = Rat(M), acting through the induced comodule
    w = None
    for M in family:
        r = rats[M.name]
        MA2 = induced_action(P, r.comodule)
        r2 = rational_part(P, MA2)
        if len(r2.elements) != len(r.elements):
            w = M.name
            break
    rep.add("rational-part-idempotent", w is None, w)
    # (functoriality) every linear map sends rational parts into rational parts
    w = None
    for M in family:
        for N in family:
            for f in hom_enumerate(M, N):
                rM, rN = rats[M.name], rats[N.name]
                img = {f(m) for m in rM.elements}
                if not img <= rN.elements:
                    w = (M.name, N.name, f.name)
                    break
            if w:
                break
        if w:
            break
    rep.add("rational-part-functorial", w is None, w)
    # membership criterion: tensors landing in a closed submodule are detected
    # by their evaluations (both directions, small instances)
    w = None
    for M in family:
        L = restrict_to_base(P, M)
        T = tensor(L, P.coring.carrier, over=P.base)
        subs, exhaustive = _small_submodules(L)
        rep.sampled = rep.sampled or not exhaustive
        aels = list(P.asemiring.elements)
        for K in subs:
            Kbar = subtractive_closure(K).elements
            gens = [T.pure(k, c) for k in sorted_elems(Kbar) for c in P.coring.carrier.elements()]
            inside = span(T.result, gens).elements
            for t in T.result.elements():
                lhs = t in inside
                rhs = all(alpha_eval(P, L, T, t, a) in Kbar for a in aels)
                if lhs != rhs:
                    w = (M.name, sorted_elems(K.elements), t)
                    break
            if w:
                break
        if w:
            break
    rep.add("membership-criterion", w is None, w)
    return rep


def _small_submodules(M):
    """(the submodules of M, True), or past the enumeration cap (two of
    them, False): the zero submodule and the span of one nonzero element."""
    from .semimodules import enumerate_submodules

    try:
        return enumerate_submodules(M), True
    except UnsupportedError:  # more submodules than the cap
        return [span(M, []), span(M, [e for e in M.elements() if e != M.zero][:1])], False


def dual_of_asemiring(P: MeasuringPairing):
    """The dual module of the pairing semiring, with its right translation
    action (f.a)(b) = f(ab)."""
    A = P.base
    SM = semiring_module(A)
    # the elements of P.amodule() are (a,) for a in aels, both in ordkey order
    _, sels, homs = _homs(P.amodule(), SM)
    scalars = [scalar_of(SM, x) for x in sels]
    aels = list(P.asemiring.elements)
    keys = [tuple(map(scalars.__getitem__, f)) for f in homs]
    key_set = set(keys)
    aidx = {a: i for i, a in enumerate(aels)}
    add_table = {
        (x, y): tuple(A.add(u, v) for u, v in zip(x, y)) for x in keys for y in keys
    }
    action = {}
    for k in keys:
        for a in aels:
            moved = tuple(k[aidx[P.asemiring.mul(a, b)]] for b in aels)
            if moved not in key_set:
                raise FormatError("dual not closed under translation")
            action[(k, a)] = moved
    return table_module(P.asemiring, keys, add_table, action, name="A*")


def coring_in_dual_check(P: MeasuringPairing) -> Report:
    """The evaluation embedding realizes the coring as the rational part of
    the dual of the pairing semiring."""
    rep = Report("coring embeds as Rat(A*)")
    Astar = dual_of_asemiring(P)
    Astar_A = restrict_to_base(P, Astar)
    ar = alpha_check(P, Astar_A)
    r = rational_part(P, Astar, alpha_report=ar)
    C = P.coring
    car = C.carrier
    aels = list(P.asemiring.elements)
    chi = {c: (tuple(P.ev[(a, c)] for a in aels),) for c in car.elements()}
    rep.add("chi-into-rational", all(v in r.elements for v in chi.values()))
    rep.add("chi-injective", len(set(chi.values())) == len(chi))
    rep.add(
        "sizes-match",
        len(r.elements) == len(car.elements()),
        (len(r.elements), len(car.elements())),
    )
    # chi is colinear: compare the recovered coaction with the pushed one
    T = ar["tensor"]
    w = None
    for c in car.elements():
        target = r.rho_class.get(chi[c])
        if target is None:
            w = c
            break
        if T.push(C.delta[c], (chi.__getitem__, None)) != target:
            w = c
            break
    rep.add("chi-colinear", w is None, w)
    return rep


def end_semiring_iso_check(C: Semicoring) -> Report:
    """The right dual is the endomorphism semiring of the coring as a comodule:
    f -> [c -> sum f(c_1) c_2], inverse g -> eps . g."""
    from .semicomodules import _colinear, coring_as_comodule

    rep = Report(f"dual = End of {C.name}")
    D = dual_semiring(C, "right")
    com = coring_as_comodule(C)
    ends = _colinear(com, com)
    rep.add("cardinality", len(ends) == len(D.homs), (len(ends), len(D.homs)))
    els = C.carrier.elements()
    phis = {k: _phi_positions(C, k) for k in D.semiring.elements}
    images = {}
    w = None
    for k in D.semiring.elements:
        tup = phis[k]
        if tup in images:
            w = k
            break
        images[tup] = k
        # inverse: eps after the endomap returns the functional
        back = tuple(C.eps[els[p]] for p in tup)
        if back != k:
            w = k
            break
    rep.add("bijective-with-inverse", w is None, w)
    rep.add("image-is-End", set(images) == {f for _, f in ends})
    # semiring morphism: convolution goes to composition
    ks, mul = D.semiring.elements, D.semiring.mul
    w = next(((k1, k2) for k1 in ks for k2 in ks if tuple(map(phis[k1].__getitem__, phis[k2])) != phis[mul(k1, k2)]), None)
    rep.add("multiplicative", w is None, w)
    return rep


def _phi_positions(C, k):
    """The endomap c -> sum f(c_1) c_2 of the dual key k (f's values by
    carrier position), as the carrier position of each image."""
    car = C.carrier
    index = car.indexed().index
    return tuple(
        index[fs_eval(car, ((car.act_left(k[index[c1]], c2), mult) for (c1, c2), mult in C.delta[c]))]
        for c in car.elements()
    )


# ---------------------------------------------------------------- products

def pairing_tensor(P: MeasuringPairing, Q: MeasuringPairing):
    """The product pairing on (V' (x) V, W (x) W') with the nested evaluation."""
    A = P.base
    if Q.base is not A:
        raise FormatError("pairings must share the base")
    VP, VQ = P.amodule(), Q.amodule()
    TV = tensor(VQ, VP, over=A)
    tv_els = TV.result.elements()

    def v_mul(x, y):
        return TV.push(
            (((Q.asemiring.mul(vq1[0], vq2[0]),), (P.asemiring.mul(vp1[0], vp2[0]),)), m1 * m2)
            for (vq1, vp1), m1 in TV.rep(x)
            for (vq2, vp2), m2 in TV.rep(y)
        )

    add_table = {(x, y): TV.result.add(x, y) for x in tv_els for y in tv_els}
    mul_table = {(x, y): v_mul(x, y) for x in tv_els for y in tv_els}
    one = TV.pure((Q.asemiring.one,), (P.asemiring.one,))
    ring = semiring_from_tables(
        f"{Q.asemiring.name}(x){P.asemiring.name}", tv_els, add_table, mul_table, TV.result.zero, one
    )

    CW = P.coring.carrier
    CWp = Q.coring.carrier
    TW = tensor(CW, CWp, over=A)
    delta = {}
    eps = {}
    for x in TW.result.elements():
        reps = TW.rep(x)
        delta[x] = fs_make(
            [
                ((TW.pure(w1, wp1), TW.pure(w2, wp2)), mult * m1 * m2)
                for (w, wp), mult in reps
                for (w1, w2), m1 in P.coring.delta[w]
                for (wp1, wp2), m2 in Q.coring.delta[wp]
            ]
        )
        eps[x] = fs_eval(
            A, ((A.mul(P.coring.eps[w], Q.coring.eps[wp]), mult) for (w, wp), mult in reps)
        )
    Cprod = Semicoring(A, TW.result, delta, eps, name=f"{P.coring.name}(x){Q.coring.name}")
    chk = check_semicoring(Cprod)
    if not chk.ok:
        raise InternalInvariantError(f"product coring fails axioms: {chk.first_witness()}")

    ev = {}
    for x in tv_els:
        for y in TW.result.elements():
            ev[(x, y)] = fs_eval(
                A,
                (
                    (P.ev[(vp[0], CW.act(w, Q.ev[(vq[0], wp)]))], mv * mw)
                    for (vq, vp), mv in TV.rep(x)
                    for (w, wp), mw in TW.rep(y)
                ),
            )
    eta = {s: TV.pure((Q.eta[s],), (P.asemiring.one,)) for s in A.elements}
    out = MeasuringPairing(ring, Cprod, ev, eta, name=f"{P.name}(x){Q.name}")
    return out


# ---------------------------------------------------------------- finiteness

def completely_subtractive(M) -> bool:
    from .semimodules import enumerate_submodules, is_subtractive

    return all(is_subtractive(L) for L in enumerate_submodules(M))


def finiteness_closure(P: MeasuringPairing, M: Semicomodule, F):
    """A finitely generated subcomodule containing F, for completely
    subtractive comodules over alpha-certified pairings.

    F is a list of carrier elements; the closure is the span of F under the
    induced pairing-semiring action, with the coaction restricted to it.
    """
    car = M.carrier
    MA = induced_action(P, M)
    if not completely_subtractive(MA):
        raise FormatError("hypothesis failed: not completely subtractive")
    MA_A = restrict_to_base(P, MA)
    rep = alpha_check(P, MA_A)
    if not (rep["injective"] and rep["subtractive"]):
        raise CertificateError("alpha condition not certified")
    N = span(MA, [(f,) for f in F])
    E = sub_table(MA_A, N.elements, "N", raw=lambda m: m[0])
    incl = LinearMap(E, car, lambda x: x[0], name="incl")
    lift, _, TE = lift_coaction(E, P.coring, incl, M.mc())
    coaction = lift(
        lambda e: M.rho_norm(e[0]),
        lambda e: CertificateError(f"coaction of {e} does not restrict uniquely"),
    )
    out = Semicomodule(P.coring, E, coaction, name="N", mc=TE)
    chk = check_comodule(out)
    if not chk.ok:
        raise InternalInvariantError(f"closure fails comodule axioms: {chk.first_witness()}")
    missing = [f for f in F if (f,) not in N.elements]
    if missing:
        raise InternalInvariantError(f"closure misses {missing}")
    return out
