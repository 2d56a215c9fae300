"""Rule-based tensor lane for structured carriers with infinite atoms.

Tensors of atom sums distribute over the direct sum; each atom pair is
resolved by a rule giving the result atom and the bilinear pure-tensor map.
Finite x finite pairs with no rule fall back to saturation: a TABLE atom
beside a Q/Z atom sends its factor here, and meets the other factor's
CYCLIC atoms.  Maps between structured modules are stored symbolically
(generator images; integer multipliers out of Q/Z), which keeps equality of
composites decidable even on infinite carriers.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .atoms import BoolAtom, CyclicAtom, NatAtom, QmodzAtom
from .errors import FormatError, InternalInvariantError, UnsupportedError
from .semimodules import Semimodule
from .tensors import SaturationTensor, TensorProduct
from .util import fs_eval

ZERO_RULE = "zero"


def _frac(x):
    return x - int(x)


def atom_rule(A, B, base):
    """Result atom and bilinear map for an atom pair, or ZERO_RULE, or raise.

    Only pairs the theory supports are listed; unsupported pairs raise
    UnsupportedError ("no rule"), never a silently wrong answer.
    """
    ka, kb = A.kind, B.kind
    if ka == "NAT" and kb == "NAT":
        return NatAtom(base), lambda a, b: a * b
    if ka == "NAT" and kb == "CYCLIC":
        n = B.n
        return CyclicAtom(base, n), lambda a, b: (a * b) % n
    if ka == "CYCLIC" and kb == "NAT":
        n = A.n
        return CyclicAtom(base, n), lambda a, b: (a * b) % n
    if ka == "NAT" and kb == "BOOL":
        return BoolAtom(base), lambda a, b: min(a, 1) * b
    if ka == "BOOL" and kb == "NAT":
        return BoolAtom(base), lambda a, b: a * min(b, 1)
    if ka == "NAT" and kb == "QMODZ":
        return QmodzAtom(base), lambda a, b: _frac(a * b)
    if ka == "QMODZ" and kb == "NAT":
        return QmodzAtom(base), lambda a, b: _frac(a * b)
    if ka == "CYCLIC" and kb == "CYCLIC":
        g = gcd(A.n, B.n)
        if g == 1:
            return ZERO_RULE, None
        return CyclicAtom(base, g), lambda a, b: (a * b) % g
    if ka == "BOOL" and kb == "BOOL":
        return BoolAtom(base), lambda a, b: min(a, b)
    # an idempotent class with an additive inverse is zero, so these collapse
    if (ka, kb) in (("BOOL", "CYCLIC"), ("CYCLIC", "BOOL")):
        return ZERO_RULE, None
    if (ka, kb) in (("QMODZ", "CYCLIC"), ("CYCLIC", "QMODZ")):
        return ZERO_RULE, None
    if A.finite and B.finite:
        Ma = Semimodule(base, [A], name="a")
        Mb = Semimodule(base, [B], name="b")
        T = SaturationTensor([Ma, Mb], base)
        atom = T.result.atoms[0]
        return atom, lambda a, b, T=T: T.pure((a,), (b,))[0]
    raise UnsupportedError(f"no tensor rule for atom pair {ka} (x) {kb}")


class RuleTensor:
    """Tensor of structured modules computed componentwise by atom rules."""

    def __init__(self, M, N, over=None, name=None):
        self.factors = (M, N)
        self.over = over or M.base
        comps = []
        atoms = []
        for i, A in enumerate(M.atoms):
            for j, B in enumerate(N.atoms):
                res, beta = atom_rule(A, B, self.over)
                if res == ZERO_RULE:
                    continue
                comps.append((i, j, beta))
                atoms.append(res)
        self.comps = comps
        self.result = Semimodule(
            self.over, atoms, name=name or f"{M.name}(x){N.name}"
        )

    def pure(self, m, n):
        return tuple(beta(m[i], n[j]) for i, j, beta in self.comps)

    push = TensorProduct.push


def rule_tensor(M, N, over=None, name=None):
    return RuleTensor(M, N, over=over, name=name)


# ------------------------------------------------------------ structured maps

def _is_monogenic(atom):
    return atom.kind in ("NAT", "CYCLIC", "BOOL")


def _generator(atom):
    """The generator of a monogenic atom: 1, or 0 in C_1."""
    return 1 % atom.n if atom.kind == "CYCLIC" else 1


class StructuredMap:
    """Linear map between structured modules, stored per source atom.

    Descriptions: None (zero on that atom), ('gen', image-of-generator) for
    monogenic atoms, ('qmz', {target_atom_index: non-negative multiplier})
    for Q/Z atoms.
    """

    def __init__(self, source, target, descrs, name="f", check=True):
        self.source = source
        self.target = target
        self.descrs = [self._normalize(d) for d in descrs]
        self.name = name
        if len(self.descrs) != len(source.atoms):
            raise FormatError("one description per source atom required")
        if check:
            self._validate()

    @staticmethod
    def _normalize(d):
        if d is None:
            return None
        tag = d[0]
        if tag == "qmz":
            mults = {k: v for k, v in d[1].items() if v}
            return ("qmz", mults) if mults else None
        return d

    def _validate(self):
        for i, (atom, d) in enumerate(zip(self.source.atoms, self.descrs)):
            if d is None:
                continue
            tag = d[0]
            if tag == "gen":
                if not _is_monogenic(atom):
                    raise FormatError(f"atom {i} ({atom.kind}) is not monogenic")
                img = d[1]
                if atom.kind == "CYCLIC" and self.target.times_int(img, atom.n) != self.target.zero:
                    raise FormatError(f"generator image violates {atom.n}*g = 0")
                if atom.kind == "BOOL" and self.target.add(img, img) != img:
                    raise FormatError("generator image violates idempotence")
            elif tag == "qmz":
                if atom.kind != "QMODZ":
                    raise FormatError("qmz description on a non-QMODZ atom")
                for j in d[1]:
                    if self.target.atoms[j].kind != "QMODZ":
                        raise FormatError("Q/Z maps additively only into Q/Z atoms")
            else:
                raise FormatError(f"unknown description tag {tag}")

    def __call__(self, x):
        terms = []
        for atom, d, v in zip(self.source.atoms, self.descrs, x):
            if d is None or v == atom.zero:
                continue
            if d[0] == "gen":
                terms.append((d[1], v))
            else:  # qmz
                piece = list(self.target.zero)
                for j, k in d[1].items():
                    piece[j] = self.target.atoms[j].add(piece[j], _frac(v * k))
                terms.append((tuple(piece), 1))
        return fs_eval(self.target, terms)

    def compose(self, other):
        """self after other (source of self = target of other)."""
        descrs = []
        for d in other.descrs:
            if d is None:
                descrs.append(None)
            elif d[0] == "gen":
                descrs.append(("gen", self(d[1])))
            else:  # qmz through qmz
                mults = {}
                for j, k in d[1].items():
                    dj = self.descrs[j]
                    if dj is None:
                        continue
                    if dj[0] != "qmz":
                        raise FormatError("Q/Z atom must map via multipliers")
                    for t, k2 in dj[1].items():
                        mults[t] = mults.get(t, 0) + k * k2
                descrs.append(("qmz", mults) if mults else None)
        return StructuredMap(other.source, self.target, descrs, name=f"{self.name}.{other.name}", check=False)

    def add(self, other):
        descrs = []
        for d1, d2 in zip(self.descrs, other.descrs):
            if d1 is None:
                descrs.append(d2)
            elif d2 is None:
                descrs.append(d1)
            elif d1[0] == "gen" and d2[0] == "gen":
                descrs.append(("gen", self.target.add(d1[1], d2[1])))
            elif d1[0] == "qmz" and d2[0] == "qmz":
                mults = dict(d1[1])
                for j, k in d2[1].items():
                    mults[j] = mults.get(j, 0) + k
                descrs.append(("qmz", mults))
            else:
                raise FormatError("incompatible descriptions")
        return StructuredMap(self.source, self.target, descrs, name=f"{self.name}+{other.name}", check=False)

    def is_injective(self):
        """Decidable injectivity: enumerate finite sources, analyse multipliers."""
        if self.source.is_finite:
            seen = {}
            for x in self.source.elements():
                y = self(x)
                if y in seen:
                    return False, (seen[y], x)
                seen[y] = x
            return True, None
        if len(self.source.atoms) == 1 and self.source.atoms[0].kind == "QMODZ":
            d = self.descrs[0]
            if d is None:
                return False, (self.source.zero, (Fraction(1, 2),))
            g = 0
            for k in d[1].values():
                g = gcd(g, k)
            if g == 1:
                return True, None
            den = 2 if g == 0 else g
            return False, (self.source.zero, (Fraction(1, den),))
        raise UnsupportedError("injectivity undecidable for this structured source")

    def __repr__(self):
        return f"<StructuredMap {self.name}: {self.source.name} -> {self.target.name}>"


def structured_identity(M):
    descrs = []
    for i, atom in enumerate(M.atoms):
        if _is_monogenic(atom):
            descrs.append(("gen", M.inject(i, _generator(atom))))
        elif atom.kind == "QMODZ":
            descrs.append(("qmz", {i: 1}))
        else:
            raise UnsupportedError(f"no structured identity on a {atom.kind} atom")
    return StructuredMap(M, M, descrs, name="id", check=False)


def structured_map_tensor(f: StructuredMap, g: StructuredMap, Tsrc: RuleTensor, Tdst: RuleTensor):
    """(f (x) g) between rule tensors, computed symbolically per component."""
    X, Z = Tsrc.factors
    descrs = []
    for idx, (i, j, beta) in enumerate(Tsrc.comps):
        A, B = X.atoms[i], Z.atoms[j]
        src_atom = Tsrc.result.atoms[idx]
        if _is_monogenic(src_atom) and _is_monogenic(A) and _is_monogenic(B):
            ga = X.inject(i, _generator(A))
            gb = Z.inject(j, _generator(B))
            img = Tdst.pure(f(ga), g(gb))
            descrs.append(("gen", img))
        elif src_atom.kind == "QMODZ":
            # the component came from (QMODZ, NAT) or (NAT, QMODZ)
            if A.kind == "QMODZ":
                dq = f.descrs[i]
                other = g(Z.inject(j, 1))
                q_factors, o_factors, q_first = f.target, g.target, True
            else:
                dq = g.descrs[j]
                other = f(X.inject(i, 1))
                q_factors, o_factors, q_first = g.target, f.target, False
            if dq is None:
                descrs.append(None)
                continue
            if dq[0] != "qmz":
                raise FormatError("Q/Z atom must map via multipliers")
            mults = {}
            for qi, k in dq[1].items():
                for oi, ov in enumerate(other):
                    oatom = o_factors.atoms[oi]
                    if ov == oatom.zero:
                        continue
                    pair = (qi, oi) if q_first else (oi, qi)
                    tgt_idx = next(
                        (
                            t
                            for t, (ti, tj, _b) in enumerate(Tdst.comps)
                            if (ti, tj) == pair
                        ),
                        None,
                    )
                    if tgt_idx is None:
                        continue  # component collapsed to zero in the target
                    tatom = Tdst.result.atoms[tgt_idx]
                    if tatom.kind != "QMODZ":
                        raise UnsupportedError("unsupported Q/Z tensor component")
                    if oatom.kind != "NAT":
                        raise UnsupportedError("unsupported Q/Z tensor partner")
                    mults[tgt_idx] = mults.get(tgt_idx, 0) + k * ov
            descrs.append(("qmz", mults) if mults else None)
        else:
            raise UnsupportedError("unsupported structured tensor component")
    out = StructuredMap(Tsrc.result, Tdst.result, descrs, name=f"({f.name}x{g.name})", check=False)
    _verify_on_generators(out, f, g, Tsrc, Tdst)
    return out


def _verify_on_generators(h, f, g, Tsrc, Tdst):
    """Bug trap: h(pure(a,b)) must equal pure(f(a), g(b)) on sample generators."""
    X, Z = Tsrc.factors
    xs = _sample_elems(X)
    zs = _sample_elems(Z)
    for a in xs:
        for b in zs:
            lhs = h(Tsrc.pure(a, b))
            rhs = Tdst.pure(f(a), g(b))
            if lhs != rhs:
                raise InternalInvariantError(
                    f"tensor of structured maps inconsistent at {a} (x) {b}"
                )


def _sample_elems(M):
    out = [M.zero]
    for i, atom in enumerate(M.atoms):
        if atom.finite:
            out.extend(M.inject(i, v) for v in atom.elements()[:4])
        elif atom.kind == "NAT":
            out.extend(M.inject(i, v) for v in (1, 2, 3))
        else:
            out.extend(M.inject(i, Fraction(1, d)) for d in (2, 3, 4))
    return out


def structured_mono_flat_probe(C, family, over=None):
    """Mono-flat certificate for a structured module against structured monos.

    For each injective map f in the family, checks whether f (x) id_C stays
    injective; returns witnesses (a collapsing nonzero element) on failure.
    """
    over = over or C.base
    results = []
    ok = True
    idC = structured_identity(C)
    for f in family:
        inj, w = f.is_injective()
        if not inj:
            raise FormatError(f"family member {f.name} is not injective")
        TX = rule_tensor(f.source, C, over=over)
        TY = rule_tensor(f.target, C, over=over)
        Ff = structured_map_tensor(f, idC, TX, TY)
        pinj, witness = Ff.is_injective()
        if not pinj and witness is not None:
            a, b = witness
            diff = b if a == TX.result.zero else a
        else:
            diff = None
        results.append(
            {"map": f.name, "mono_preserved": pinj, "collapsing_witness": diff}
        )
        ok = ok and pinj
    return {"mono_flat_on_family": ok, "family": results}
