"""Semicomodules: coactions, colinear maps, (co)equalizers and probes.

Coactions are stored as formal sums of (carrier element, coring element)
pairs.  Colinearity squares, including those of the factor and lift maps
that the (co)equalizer verifiers test, are folded on integer positions
(Semicomodule.compiled, Semimodule.indexed).  When the coring's carrier
is free with certified coordinates, C = S^n (Indexed.coordinates), M (x) C
is held as M^n on M's positions and M (x) C (x) C as (M^n)^n, and the
coequalizer's induced coaction is checked as the colinearity square of
its projection, so neither word problem is solved (M (x)_S S^n = M^n;
Brzezinski & Wisbauer, Corings and Comodules, 2003).  Other carriers
normalize through the computed tensors.  The structured lane mirrors
every check symbolically for infinite carriers.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .atoms import CyclicAtom, QmodzAtom
from .errors import CertificateError, FormatError, UnsupportedError
from .semimodules import (
    LinearMap,
    Semimodule,
    _greedy_positions,
    _hom_map,
    _hom_positions,
    _homs,
    hom_enumerate,
    identity_map,
    module_congruence_closure,
    quotient_by_congruence,
    span,
    sub_table,
)
from .structured import (
    StructuredMap,
    rule_tensor,
    structured_identity,
    structured_map_tensor,
    structured_mono_flat_probe,
)
from .semicorings import counterexample_semicoalgebra, eps_acting, noncoassociative
from .tensors import tensor, tensor_multi
from .util import Memo, Report, fold, fs_eval, fs_make, ordkey, unpreserved_rows


class Semicomodule:
    """Finite right semicomodule: carrier M over A with coaction into M (x) C.

    M (x) C (`mc`, built unless passed in as `mc=`), the lazy M (x) C (x) C
    (`mcc`), the coaction on positions (`compiled`, which also gives each
    element's normalized coaction) and the additivity witness are computed
    once, on first use.  Over a coring with coordinates no check reads mc
    or mcc.
    """

    structured = False

    def __init__(self, coring, carrier, coaction, name="M", mc=None):
        self.coring = coring
        self.carrier = carrier
        self.coaction = dict(coaction)  # element -> formal sum (((m, c), mult), ...)
        self.name = name
        self._mc = mc
        self._mcc = None

    def mc(self):
        if self._mc is None:
            self._mc = tensor(self.carrier, self.coring.carrier, over=self.coring.base)
        return self._mc

    def mcc(self):
        if self._mcc is None:
            C = self.coring
            self._mcc = tensor_multi([self.carrier, C.carrier, C.carrier], over=C.base, lazy=True)
        return self._mcc

    def rho_norm(self, m):
        """rho(m) normalized in M (x) C (mc()), read off its compiled value."""
        c, ix, T = self.compiled, self.carrier.indexed(), self.mc()
        u = c.rhobar[ix.index[m]]
        if c.coords is None:
            return T.result.indexed().element(u)
        return T.push(((ix.element(x), self.coring.carrier.indexed().element(g)), 1) for x, g in zip(u, c.coords[0]))

    @cached_property
    def compiled(self):
        """The coaction on positions (_Compiled), built on first use."""
        return _Compiled(self)

    @cached_property
    def additivity_witness(self):
        """The first (x, y), in element order, with rho(x + y) != rho(x) +
        rho(y) in M (x) C; None when the coaction is additive.  Scanned on
        positions: the compiled rhobar against the sum of M (x) C."""
        ix = self.carrier.indexed()
        return unpreserved_rows(self.compiled.rhobar, ix.add, self.compiled.plus, ix.elements)

    def __repr__(self):
        return f"<Semicomodule {self.name} over {self.coring.name}>"


class _Compiled:
    """A finite comodule M's coaction on positions.

    terms[m] is rho(m), for each position m of M.carrier.indexed(), as
    (M-position, C-position, multiplicity) triples, C-positions being
    those of coring.carrier.indexed().  Each element of M (x) C has a
    value, with zero, plus(u, v) and scale(u, k) (by base.elements[k]);
    pure[n][c] is the value of n (x) c, filled as folds reach it, and
    rhobar[m] that of rho(m), for every m: a negative multiplicity raises
    there.  coords is the coring carrier's Indexed.coordinates (gens,
    digits) when it has them and M shares the coring's base: a value is
    then the tuple (x_1, ..., x_n) of M-positions with sum x_i (x) gens[i],
    summed and acted on coordinate by coordinate, and n (x) c is (n * c_1,
    ..., n * c_n) for c_i in digits(c).  Otherwise it is a position of the
    indexed M (x) C of M.mc().
    """

    __slots__ = ("terms", "coords", "zero", "plus", "scale", "pure", "rhobar")

    def __init__(self, M):
        ix, C = M.carrier.indexed(), M.coring
        cx = C.carrier.indexed()
        self.terms = [[(ix.index[m1], cx.index[c1], k) for (m1, c1), k in M.coaction[m]] for m in ix.elements]
        self.coords = cx.coordinates if M.carrier.base is C.base else None
        if self.coords is None:
            T = M.mc()
            sums = T.result.indexed()
            self.zero, self.plus, self.scale = sums.zero, sums.plus, sums.scale
            self.pure = [Memo(lambda c, n=n: sums.of(T.pure(n, cx.elements[c]))) for n in ix.elements]
        else:
            add, act, digits = ix.plus, ix.act, self.coords[1]
            self.zero = (ix.zero,) * len(self.coords[0])
            self.plus = lambda u, v: tuple(map(add, u, v))
            self.scale = lambda u, k: tuple(act[x][k] for x in u)
            self.pure = [Memo(lambda c, n=n: tuple(act[n][k] for k in digits(c))) for n in range(len(ix.elements))]
        self.rhobar = [self.image(terms, range(len(ix.elements))) for terms in self.terms]

    def image(self, terms, f):
        """The value of (f (x) C) applied to the (m, c, k) terms, with f
        a sequence of positions here: the sum of k * pure[f[m]][c], folded
        in term order from zero."""
        pure = self.pure
        return fold(self.plus, self.zero, ((pure[f[m]][c], k) for m, c, k in terms))

    def tensor(self, u, c):
        """u (x) c in M (x) C (x) C, for u a value of M (x) C and c a
        C-position: u * c_j for each coordinate c_j of c, concatenated."""
        scale = self.scale
        return tuple(x for k in self.coords[1](c) for x in scale(u, k))


class StructuredSemicomodule:
    structured = True

    def __init__(self, coring, carrier, rho: StructuredMap, name="M"):
        self.coring = coring
        self.carrier = carrier
        self.rho = rho  # StructuredMap carrier -> rule_tensor(carrier, C).result
        self.mc_tensor = rho.target_tensor
        self.name = name

    def __repr__(self):
        return f"<StructuredSemicomodule {self.name} over {self.coring.name}>"


# ---------------------------------------------------------------- checking

def check_comodule(M) -> Report:
    if M.structured:
        return _check_comodule_structured(M)
    rep = Report(f"comodule {M.name}")
    C, car, c = M.coring, M.carrier, M.compiled
    els, ix = car.elements(), car.indexed()
    w = M.additivity_witness
    rep.add("coaction-additive", w is None, w)
    w = unpreserved_rows(c.rhobar, ix.act, c.scale, els, C.base.elements)
    rep.add("coaction-linear", w is None, w)

    # counit triangle doubles as the splitting retraction for the coaction,
    # folded on positions; an epsilon value off S (or an infinite S) acts
    # off the rows, and then it is summed on elements
    S = C.base
    ep = [S.index.get(C.eps[c]) for c in C.carrier.elements()] if S.index else [None]
    if None in ep:
        eps_acting(C, car)
        accs = (fs_eval(car, ((car.act(m1, C.eps[c1]), k) for (m1, c1), k in M.coaction[m])) for m in els)
    else:
        accs = (els[fold(ix.plus, ix.zero, ((ix.act[m1][ep[c1]], k) for m1, c1, k in t))] for t in c.terms)
    w = next(((m, acc) for m, acc in zip(els, accs) if acc != m), None)
    rep.add("counit-law", w is None, w)
    rep.add("coaction-splits", w is None, w)

    # coassociativity at each m: folded in (M^n)^n over a coring with
    # coordinates, pushed through the lazy M (x) C (x) C otherwise
    w = None
    if c.coords is None:
        w = noncoassociative(els, M.coaction, C.delta, M.mcc())
    else:
        cx = C.carrier.indexed()
        delta = Memo(lambda c1: [(cx.index[c11], cx.index[c12], n) for (c11, c12), n in C.delta[cx.elements[c1]]])
        zero, plus, tensor, pure, rhobar = c.zero * len(c.zero), c.plus, c.tensor, c.pure, c.rhobar
        for m, terms in enumerate(c.terms):
            lhs = fold(plus, zero, ((tensor(rhobar[m1], c1), k) for m1, c1, k in terms))
            rhs = fold(plus, zero, ((tensor(pure[m1][c11], c12), k * n) for m1, c1, k in terms for c11, c12, n in delta[c1]))
            if lhs != rhs:
                w = els[m]
                break
    rep.add("coassociative", w is None, w)
    return rep


def _check_comodule_structured(M) -> Report:
    rep = Report(f"comodule {M.name}")
    C = M.coring
    car = M.carrier
    TM = M.mc_tensor
    rho, delta = M.rho, C._delta
    idC = structured_identity(C.carrier)
    idM = structured_identity(car)
    Ta = rule_tensor(TM.result, C.carrier, over=C.base)
    Tb = rule_tensor(car, C.cc_tensor.result, over=C.base)
    if [a.describe() for a in Ta.result.atoms] != [a.describe() for a in Tb.result.atoms]:
        raise UnsupportedError("triple tensor atom layouts differ")
    lhs = structured_map_tensor(rho, idC, TM, Ta).compose(rho)
    rhs = structured_map_tensor(idM, delta, TM, Tb).compose(rho)
    rep.add("coassociative", lhs.descrs == rhs.descrs, (lhs.descrs, rhs.descrs))

    eps = C._eps
    Tr = rule_tensor(car, eps.target, over=C.base)
    if [a.describe() for a in Tr.result.atoms] != [a.describe() for a in car.atoms]:
        raise UnsupportedError("unit tensor layout differs from the carrier")
    counit = structured_map_tensor(idM, eps, TM, Tr).compose(rho)
    ident = structured_identity(car)
    rep.add("counit-law", counit.descrs == ident.descrs, counit.descrs)
    rep.add("coaction-splits", counit.descrs == ident.descrs)
    return rep


def _square(M, N, f, on):
    """Colinearity square (f (x) C) . rho_M = rho_N . f at each position
    in `on` of M.carrier.indexed(), for f a sequence of positions of
    N.carrier.indexed(), one per position of M: a fold of N's pure table
    over M's compiled terms, compared with N's rhobar."""
    terms, Nc = M.compiled.terms, N.compiled
    image, rhobar = Nc.image, Nc.rhobar
    return all(image(terms[m], f) == rhobar[f[m]] for m in on)


def _map_positions(f, M, N):
    """The map f: M -> N of finite modules as the N-position of f(m), for
    each element m of M in order."""
    index = N.indexed().index
    return [index[f(m)] for m in M.elements()]


def comodule_hom_check(f: LinearMap, M: Semicomodule, N: Semicomodule, on=None) -> bool:
    """Colinearity square: (f (x) C) . rho_M = rho_N . f, on the elements
    `on` of M (default: every element)."""
    mx = M.carrier.indexed()
    on = range(len(mx.elements)) if on is None else [mx.index[m] for m in on]
    return _square(M, N, _map_positions(f, M.carrier, N.carrier), on)


def colinear_maps(M: Semicomodule, N: Semicomodule):
    """The linear maps M -> N whose colinearity square commutes, in the
    order and with the names h{i} of hom_enumerate(M.carrier, N.carrier);
    a LinearMap is built only for a map that passes (_colinear)."""
    return [_hom_map(M.carrier, N.carrier, N.carrier.elements(), f, i) for i, f in _colinear(M, N)]


def _colinear(M: Semicomodule, N: Semicomodule):
    """(i, f) for each position tuple f of _hom_positions(M.carrier,
    N.carrier) whose colinearity square commutes, i being its index among
    all of them.

    When both coactions are additive, both sides of the square are additive
    maps for a linear f, so they agree everywhere once they agree on zero
    and on an additive generating set; the square is then tested there
    only.  Otherwise it is tested on every element.
    """
    mx = M.carrier.indexed()
    on = range(len(mx.elements))
    if M.additivity_witness is None and N.additivity_witness is None:
        on = [mx.zero, *_greedy_positions(mx)[0]]
    return [(i, f) for i, f in enumerate(_hom_positions(M.carrier, N.carrier)) if _square(M, N, f, on)]


# ---------------------------------------------------------------- cofree

def cofree_comodule(X, C, name=None):
    """(X (x) C, X (x) Delta): the right adjoint to the forgetful functor."""
    T = tensor(X, C.carrier, over=C.base)
    car = T.result
    coaction = {}
    for x in car.elements():
        terms = []
        for (xm, c), mult in T.rep(x):
            for (c1, c2), mult2 in C.delta[c]:
                terms.append(((T.pure(xm, c1), c2), mult * mult2))
        coaction[x] = fs_make(terms)
    M = Semicomodule(C, car, coaction, name=name or f"{X.name}(x){C.name}")
    M.base_tensor = T
    return M


def coring_as_comodule(C):
    """(C, Delta) as a right semicomodule over itself."""
    return Semicomodule(C, C.carrier, dict(C.delta), name=f"({C.name},Delta)", mc=C.cc())


def cofree_adjunction_check(Y: Semicomodule, X) -> Report:
    """|Hom^C(Y, X (x) C)| = |Hom_A(Y, X)| with the unit/counit formulas."""
    rep = Report(f"cofree adjunction {Y.name} vs {X.name}")
    C = Y.coring
    XC = cofree_comodule(X, C)
    colin = colinear_maps(Y, XC)
    _, _, homs = _homs(Y.carrier, X)
    rep.add("hom-count", len(colin) == len(homs), (len(colin), len(homs)))
    T = XC.base_tensor
    # forward: f -> theta . (X (x) eps) . f, then back; must round-trip
    w = None
    for f in colin:
        def phi(y, f=f):
            return fs_eval(X, ((X.act(xm, C.eps[c]), mult) for (xm, c), mult in T.rep(f(y))))

        def back(y, phi=phi):
            return T.push(Y.coaction[y], (phi, None))

        if any(back(y) != f(y) for y in Y.carrier.elements()):
            w = f.name
            break
    rep.add("round-trip", w is None, w)
    return rep


# ---------------------------------------------------------------- colimits

def comodule_coequalizer(f: LinearMap, g: LinearMap, M: Semicomodule, N: Semicomodule):
    """Coequalizer computed in the module category, with the induced coaction
    verified (diagram chase re-done concretely).

    Each class of the congruence gets the coaction of its first member,
    pushed through pi (x) C.  It is well defined if every member's pushes
    to the same value: pi's colinearity square (_square), tested class by
    class in class order, on Q^n over a coring with coordinates and in
    the computed Q (x) C otherwise.
    """
    C = N.coring
    pairs = [(f(m), g(m)) for m in M.carrier.elements()]
    cong = module_congruence_closure(N.carrier, pairs)
    Q, pi = quotient_by_congruence(N.carrier, cong)
    classes = [sorted(cls, key=ordkey) for cls in cong.classes]
    coaction = {pi(cls[0]): fs_make(((pi(m1), c1), k) for (m1, c1), k in N.coaction[cls[0]]) for cls in classes}
    out = Semicomodule(C, Q, coaction, name=f"Coeq({f.name},{g.name})")
    proj, index = _map_positions(pi, N.carrier, Q), N.carrier.indexed().index
    bad = next((cls for cls in classes if not _square(N, out, proj, [index[x] for x in cls])), None)
    if bad is not None:
        raise FormatError(f"induced coaction not well defined at {pi(bad[0])}")
    rep = check_comodule(out)
    if not rep.ok:
        raise FormatError(f"coequalizer fails comodule axioms: {rep.first_witness()}")
    return out, pi


def verify_coequalizer_universal(f, g, M, N, coeq, pi, candidates):
    """Universal property against every enumerated colinear competitor, on
    positions: f, g and pi are read once, and each competitor h (named h{i}
    as in colinear_maps) and its factor hbar are position lists."""
    fs, gs = _map_positions(f, M.carrier, N.carrier), _map_positions(g, M.carrier, N.carrier)
    proj = _map_positions(pi, N.carrier, coeq.carrier)
    for T in candidates:
        for i, h in _colinear(N, T):
            if any(h[x] != h[y] for x, y in zip(fs, gs)):
                continue
            # factorization: unique hbar with hbar . pi = h
            hbar = [None] * len(coeq.carrier.elements())
            for q, t in zip(proj, h):
                if hbar[q] is not None and hbar[q] != t:
                    return False, (f"h{i}", T.name)
                hbar[q] = t
            if not _square(coeq, T, hbar, range(len(hbar))):
                return False, (f"h{i}", T.name, "factor not colinear")
    return True, None


def comodule_equalizer(f: LinearMap, g: LinearMap, M: Semicomodule, N: Semicomodule, certificate=None):
    """Equalizer formed in modules, legitimate only under a flatness certificate.

    The needed certificate is that - (x) C preserves the inclusion of the
    equalizer; without it the construction is unsound and is refused.
    """
    C = M.coring
    eq_els = [m for m in M.carrier.elements() if f(m) == g(m)]
    sub = span(M.carrier, eq_els)
    if sub.elements != frozenset(eq_els):
        raise FormatError("equalizer subset is not a submodule")  # cannot happen
    E = sub_table(M.carrier, eq_els, name=f"Eq({f.name},{g.name})")
    iota = LinearMap(E, M.carrier, lambda x: x[0], name="eq-incl")
    if certificate is not None and not certificate.get("mono_flat_on_family", False):
        raise CertificateError(
            "flatness certificate failed; equalizer cannot be formed in modules"
        )
    lift, collision, TE = lift_coaction(E, C, iota, M.mc())
    if collision is not None:
        raise CertificateError(
            f"tensoring does not preserve the equalizer inclusion (collapse at {collision})"
        )
    coaction = lift(
        lambda e: M.rho_norm(e[0]),
        lambda e: CertificateError(f"coaction of {e} does not restrict to the equalizer"),
    )
    out = Semicomodule(C, E, coaction, name=f"Eq({f.name},{g.name})", mc=TE)
    rep = check_comodule(out)
    if not rep.ok:
        raise FormatError(f"equalizer fails comodule axioms: {rep.first_witness()}")
    return out, iota


def lift_coaction(E, C, incl, T):
    """Lift a coaction on a subobject E through incl (x) C: E (x) C -> T.

    Returns (lift, collision, E (x) C).  collision is the first element of
    E (x) C, in element order, whose image repeats an earlier one (None if
    there is none).  lift(target, fail) returns the coaction sending each e
    of E to the formal sum of the one preimage of target(e), and raises
    fail(e) at the first e whose target has no preimage or several.  The
    lift runs only when called, so a caller can refuse a collapse first.
    """
    TE = tensor(E, C.carrier, over=C.base)
    FI = TE.map_of([incl, identity_map(C.carrier)], T)
    pre = {}
    collision = None
    for x in TE.result.elements():
        y = FI(x)
        if y in pre and collision is None:
            collision = x
        pre.setdefault(y, []).append(x)

    def lift(target, fail):
        coaction = {}
        for e in E.elements():
            cands = pre.get(target(e), ())
            if len(cands) != 1:
                raise fail(e)
            coaction[e] = fs_make(TE.rep(cands[0]))
        return coaction

    return lift, collision, TE


def verify_equalizer_universal(f, g, M, N, eq, iota, candidates):
    """Universal property against every enumerated colinear competitor, on
    positions: f, g and iota are read once, and each competitor h (named
    h{i} as in colinear_maps) and its lift are position lists."""
    fs, gs = _map_positions(f, M.carrier, N.carrier), _map_positions(g, M.carrier, N.carrier)
    eq_index = {m: e for e, m in enumerate(_map_positions(iota, eq.carrier, M.carrier))}
    for T in candidates:
        for i, h in _colinear(T, M):
            if any(fs[m] != gs[m] for m in h):
                continue
            lift = [eq_index.get(m) for m in h]
            if None in lift:
                return False, (f"h{i}", T.name)
            if not _square(T, eq, lift, range(len(lift))):
                return False, (f"h{i}", T.name, "lift not colinear")
    return True, None


# ---------------------------------------------------------------- probes

def cogenerator_probe(Q, C, family):
    """Does Q (x) C separate each given pair of distinct colinear maps?"""
    QC = cofree_comodule(Q, C)
    T = QC.base_tensor
    results = []
    ok = True
    for (f, g, M, N) in family:
        if all(f(m) == g(m) for m in M.carrier.elements()):
            results.append({"pair": (f.name, g.name), "separated": True, "vacuous": True})
            continue
        sep = None
        for phi in hom_enumerate(N.carrier, Q):
            def h(n, phi=phi):
                return T.push(N.coaction[n], (phi, None))

            if any(h(f(m)) != h(g(m)) for m in M.carrier.elements()):
                sep = phi
                break
        results.append({"pair": (f.name, g.name), "separated": sep is not None})
        ok = ok and sep is not None
    return {"all_separated": ok, "family": results}


# ---------------------------------------------------------------- counterexample

def two_coactions_counterexample(n):
    """Two distinct subcomodule structures on Z/n inside Q/Z over the
    NAT + CYCLIC(n) coalgebra, plus the failing mono-flat probe."""
    C = counterexample_semicoalgebra(n)
    N = C.base
    car = C.carrier

    Qz = Semimodule(N, [QmodzAtom(N)], name="Q/Z")
    TQ = rule_tensor(Qz, car)
    rho_m = StructuredMap(Qz, TQ.result, [("qmz", {0: 1})], name="rho_M")
    rho_m.target_tensor = TQ
    Mcom = StructuredSemicomodule(C, Qz, rho_m, name="Q/Z")

    Zn = Semimodule(N, [CyclicAtom(N, n)], name=f"Z/{n}")
    TZ = rule_tensor(Zn, car)
    # components: CYC (x) NAT and CYC (x) CYC, both CYCLIC(n)
    rho1 = StructuredMap(Zn, TZ.result, [("gen", (1, 0))], name="rho1")
    rho1.target_tensor = TZ
    rho2 = StructuredMap(Zn, TZ.result, [("gen", (1, 1))], name="rho2")
    rho2.target_tensor = TZ
    N1 = StructuredSemicomodule(C, Zn, rho1, name=f"(Z/{n},rho1)")
    N2 = StructuredSemicomodule(C, Zn, rho2, name=f"(Z/{n},rho2)")

    iota = StructuredMap(Zn, Qz, [("gen", (Fraction(1, n),))], name="iota")

    report = {
        "rho1_passes": check_comodule(N1).ok,
        "rho2_passes": check_comodule(N2).ok,
        "ambient_passes": check_comodule(Mcom).ok,
        "distinct": rho1.descrs != rho2.descrs,
    }
    idC = structured_identity(car)
    pushed1 = structured_map_tensor(iota, idC, TZ, TQ).compose(rho1)
    pushed2 = structured_map_tensor(iota, idC, TZ, TQ).compose(rho2)
    target = rho_m.compose(iota)
    report["iota_colinear_rho1"] = pushed1.descrs == target.descrs
    report["iota_colinear_rho2"] = pushed2.descrs == target.descrs
    probe = structured_mono_flat_probe(car, [iota])
    report["mono_flat"] = probe["mono_flat_on_family"]
    report["collapsing_witness"] = probe["family"][0]["collapsing_witness"]
    return report, (Mcom, N1, N2, iota, probe)


def counterexample_equalizer_refusal(n):
    """mult-by-n against zero on Q/Z: the equalizer is Z/n, whose inclusion
    collapses under - (x) C; the construction must refuse."""
    C = counterexample_semicoalgebra(n)
    base = C.base
    Qz = Semimodule(base, [QmodzAtom(base)], name="Q/Z")
    # equalizer of (mult n, 0) is the n-torsion Z/n
    Zn = Semimodule(base, [CyclicAtom(base, n)], name=f"Z/{n}")
    iota = StructuredMap(Zn, Qz, [("gen", (Fraction(1, n),))], name="eq-incl")
    probe = structured_mono_flat_probe(C.carrier, [iota])
    if probe["mono_flat_on_family"]:
        raise FormatError("expected the certificate to fail")
    raise CertificateError(
        "flatness certificate failed; equalizer cannot be formed in modules "
        f"(witness {probe['family'][0]['collapsing_witness']})"
    )
