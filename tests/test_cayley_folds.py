"""The saturation walk and the action table against the routes they replaced.

`reference_walk` reduces every step of the breadth-first quotient walk, and
`reference_action` works out the action on every class with `_act_slot`.
The kernel reads a step off the Cayley graph when the spanning tree already
determines it and folds the action rows along that tree (Froidure & Pin,
Algorithms for computing finite semigroups, 1997); both must give the same
Quotient, classes, addition rows and action rows, entry for entry.  The
left action, on the first slot, is folded only when some factor acts
differently on the left (`atoms.two_sided`), and kept only if it differs
from the right one; the reference works it out on every class regardless.
The result atom reads its element order and its zero off the graph, with
no ordkey sort and no identity scan, and folds its rows on their first
read; the order and the zero must be what the sort and the scan give.
"""
import itertools
import random
import time

import pytest

from semikernel.atoms import TableAtom, two_sided
from semikernel.errors import FormatError, InternalInvariantError, UndecidedError
from semikernel.gallery import GALLERY_NAMES, gallery_coring
from semikernel.presentations import Budget, MonoidPresentation, Quotient
from semikernel.semicorings import sweedler_semicoring
from semikernel.semimodules import cyclic_module, enumerate_modules, free_semimodule
from semikernel.semirings import SemiringMorphism, bool_semiring, nat, semiring_from_tables, tropcap, zmod
from semikernel.tensors import SaturationTensor, tensor, tensor_multi
from semikernel.util import sorted_elems
from test_semicorings import _noncommutative

B = bool_semiring()
N = nat()
Z2 = zmod(2)
Z3 = zmod(3)
T2 = _noncommutative()  # the upper triangular BOOL matrices


def reference_walk(pres):
    """The breadth-first walk with one reduce on every step."""
    zero = pres.reduce((0,) * pres.n)
    order, index, steps, parent = [zero], {zero: 0}, [], [None]
    for i, v in enumerate(order):
        row = []
        for g in range(pres.n):
            w = pres.reduce(v[:g] + (v[g] + 1,) + v[g + 1:])
            j = index.setdefault(w, len(order))
            if j == len(order):
                order.append(w)
                parent.append((i, g))
            row.append(j)
        steps.append(row)
    return Quotient(order, steps, parent)


def reference_action(T, classes, slot):
    """The action row of every class in one slot (-1 the right action on
    the last, 0 the left on the first), each worked out and reduced on its own."""
    pos = {x: i for i, x in enumerate(classes)}
    return [[pos[T._act_slot(x, s, slot)] for s in T.over.elements] for x in classes]


@pytest.fixture
def built(monkeypatch):
    """Every eager saturation tensor built in the test."""
    out = []
    build = SaturationTensor._build_result

    def record(self, quotient, name):
        build(self, quotient, name)
        out.append(self)

    monkeypatch.setattr(SaturationTensor, "_build_result", record)
    return out


def assert_same_as_reference(T):
    ref = reference_walk(T.pres)
    assert T.pres.enumerate_quotient() == ref
    classes = ref.order
    atom = T.result.atoms[0]
    assert list(atom._carrier) == classes
    # the atom's greedy generators are the classes one step from zero, in
    # order, each once; a zero class drops out (C_a (x) C_b with gcd 1 has none)
    assert [g for _, g in atom.gens()] == [classes[j] for j in dict.fromkeys(ref.steps[0]) if j]
    pos = {x: i for i, x in enumerate(classes)}
    reference_rows = [[pos[T.pres.reduce(tuple(map(int.__add__, a, b)))] for b in classes] for a in classes]
    assert atom.elements() == sorted_elems(atom._carrier)
    identity = list(range(len(classes)))
    assert atom.zero == next(z for z in sorted_elems(classes) if reference_rows[pos[z]] == identity)
    for a, row in enumerate(atom._rows):
        assert list(row) == reference_rows[a], a
    if T.over.elements is None:
        assert atom._act is None and atom._left is None
        return
    right = [list(row) for row in atom._act]
    assert right == reference_action(T, classes, -1)
    assert (right if atom._left is None else [list(row) for row in atom._left]) == reference_action(T, classes, 0)
    if not any(two_sided(a) for M in T.factors for a in M.atoms):
        assert atom._left is None


def _free(S, *ranks):
    return tensor_multi([free_semimodule(S, r) for r in ranks], force_saturation=True)


@pytest.mark.parametrize(
    "S,ranks",
    [
        (B, (2, 2)),
        (B, (2, 3)),
        (B, (3, 3)),  # 512 classes: rows are arrays, not bytes
        (Z2, (1, 3)),
        (Z2, (2, 2)),
        (Z3, (1, 2)),
        (Z3, (2, 2)),
        (Z3, (1, 2, 1)),
        (B, (1, 2, 2)),
        (T2, (1, 1)),
        (T2, (2, 1)),
        (T2, (1, 2)),
    ],
    ids=lambda x: getattr(x, "name", None) or "x".join(map(str, x)),
)
def test_free_tensors_fold_like_the_reference(built, S, ranks):
    T = _free(S, *ranks)
    assert built == [T]
    assert_same_as_reference(T)
    # a free factor over the non-commutative T2 acts on the left by s x, not
    # x s: the result keeps left rows, and they differ from its right ones
    atom = T.result.atoms[0]
    assert (atom._left is not None and atom._left != atom._act) is (S is T2)


def test_module_pairs_fold_like_the_reference(built):
    mods = enumerate_modules(B, 4)
    for M in mods:
        for M2 in mods:
            tensor_multi([M, M2], force_saturation=True)
    assert len(built) == len(mods) ** 2
    for T in built:
        assert_same_as_reference(T)


def test_cyclic_tensors_over_nat_have_no_action_table(built):
    for a in range(2, 7):
        for b in range(2, 7):
            tensor(cyclic_module(N, a), cyclic_module(N, b))
    assert len(built) == 25
    for T in built:
        assert T.result.atoms[0]._act is None
        assert_same_as_reference(T)


def test_gallery_coring_squares_fold_like_the_reference(built):
    names = [n for n in GALLERY_NAMES if hasattr(gallery_coring(n), "cc") and len(gallery_coring(n).carrier.elements()) <= 4]
    assert names == ["sweedler_id", "coext_bool", "coext_zmod2", "grouplike_bool_2"]
    del built[:]  # the gallery's own Sweedler tensor, if it was built just now
    for n in names:
        C = gallery_coring(n)
        tensor(C.carrier, C.carrier, over=C.base, force_saturation=True)
    assert len(built) == len(names)
    for T in built:
        assert_same_as_reference(T)


def _bool_pairs():
    els = [(a, b) for a in (0, 1) for b in (0, 1)]
    add = {(u, v): (max(u[0], v[0]), max(u[1], v[1])) for u in els for v in els}
    mul = {(u, v): (u[0] * v[0], u[1] * v[1]) for u in els for v in els}
    return semiring_from_tables("BxB", els, add, mul, (0, 0), (1, 1))


SWEEDLER = pytest.mark.parametrize(
    "phi",
    [
        lambda: SemiringMorphism(B, B, lambda x: x),
        lambda: SemiringMorphism(B, _bool_pairs(), lambda s: (s, s)),
        lambda: SemiringMorphism(B, tropcap(1), {0: "oo", 1: 0}.__getitem__),
    ],
    ids=["id", "BxB", "tropcap1"],
)


@SWEEDLER
def test_sweedler_right_action_folds_like_the_reference(built, phi):
    """Sweedler's A (x)_B A is a plain B-tensor of the (B,B)-bisemimodule A."""
    f = phi()
    sweedler_semicoring(f)
    T, = built
    assert T.over is f.source and T.over.elements is not None
    assert_same_as_reference(T)


@SWEEDLER
def test_sweedler_carriers_act_on_both_sides_like_the_reference(built, phi):
    """The carrier's A-actions m (x) n a and a m (x) n: on every class, the
    push of its representing sum with a acting in the last or the first
    slot; on every pure tensor, the pure tensor of m, n a or of a m, n.
    Only id's carrier, A (x)_A A = A over a commutative A, is acted on
    alike on both sides, and it keeps no left rows."""
    f = phi()
    A, car = f.target, sweedler_semicoring(f).carrier
    T, = built
    for a in A.elements:
        right, left = (None, lambda n: (A.mul(n[0], a),)), (lambda m: (A.mul(a, m[0]),), None)
        for x in car.elements():
            assert car.act(x, a) == T.push(T.rep(x), right)
            assert car.act_left(a, x) == T.push(T.rep(x), left)
        for m, n in itertools.product(A.elements, repeat=2):
            assert car.act(T.pure((m,), (n,)), a) == T.pure((m,), (A.mul(n, a),))
            assert car.act_left(a, T.pure((m,), (n,))) == T.pure((A.mul(a, m),), (n,))
    assert two_sided(car.atoms[0]) is (A is not f.source)


def test_walk_reduces_only_the_steps_it_cannot_read(monkeypatch):
    """On B^3 (x) B^3 the walk reads most steps off the graph, and it
    still spends one budget unit on every step."""
    T = SaturationTensor([free_semimodule(B, 3), free_semimodule(B, 3)], B, lazy=True)
    calls = []
    reduce = MonoidPresentation.reduce

    def counted(self, v):
        calls.append(v)
        return reduce(self, v)

    monkeypatch.setattr(MonoidPresentation, "reduce", counted)
    before = T.budget.used
    q = T.pres.enumerate_quotient()
    steps = len(q.order) * T.n
    assert (len(q.order), T.n) == (512, 9)
    assert len(calls) < steps / 2
    assert T.budget.used - before >= steps


def test_budget_stops_an_infinite_walk_that_reads_steps():
    # the free commutative monoid on two generators: from the second class
    # on, the walk reads steps off the graph, and it still runs out
    p = MonoidPresentation(2, [], budget=Budget(50))
    with pytest.raises(UndecidedError):
        p.enumerate_quotient()
    assert p.budget.used == 51


def _with_bad_steps(monkeypatch, change):
    """The quotient walk with `change` applied to its step table."""
    walk = MonoidPresentation.enumerate_quotient

    def bad(self):
        q = walk(self)
        steps = [list(row) for row in q.steps]
        change(steps)
        return Quotient(q.order, steps, q.parent)

    monkeypatch.setattr(MonoidPresentation, "enumerate_quotient", bad)


@pytest.mark.parametrize("S,ranks", [(B, (1, 2)), (B, (3, 3)), (Z3, (1, 2))], ids=["B1xB2", "B3xB3", "Z3-1x2"])
@pytest.mark.parametrize("entry", ["n", "n+255", "-1"])
def test_a_step_off_the_classes_is_refused(monkeypatch, built, S, ranks, entry):
    """A step-table entry outside range(n) raises: the build returns no
    table, with bytes rows (n <= 256) and with array rows alike."""
    def change(steps):
        n = len(steps)
        steps[n // 2][-1] = {"n": n, "n+255": n + 255, "-1": -1}[entry]

    _with_bad_steps(monkeypatch, change)
    with pytest.raises((FormatError, InternalInvariantError)):
        _free(S, *ranks)
    assert built == []


def test_a_generator_action_off_the_classes_is_refused():
    T = _free(Z2, 2, 2)
    q = T.pres.enumerate_quotient()
    n, gens = len(q.order), len(q.steps[0])
    good = [[0, q.steps[0][g]] for g in range(gens)]
    TableAtom(Z2, q.order, q, good)
    for bad in ([[0, n]] + good[1:], good[:-1], [[0]] + good[1:]):
        with pytest.raises(FormatError):
            TableAtom(Z2, q.order, q, bad)


def test_a_saturated_result_builds_no_row_until_one_is_read(monkeypatch):
    """ZMOD(3)^3 (x) ZMOD(3)^3 by saturation counts its 19,683 classes and
    folds no row: its rows would hold 19,683^2 entries.  On B^3 (x) B^3,
    reading one sum folds every row once, and the sums agree with the word
    problem; the atom is then a plain TableAtom."""
    folds = []
    fold = TableAtom._fold
    monkeypatch.setattr(TableAtom, "_fold", lambda self: folds.append(self) or fold(self))
    start = time.process_time()
    F = free_semimodule(Z3, 3)
    T = tensor(F, F, force_saturation=True)
    assert len(T.result.elements()) == 19_683 and T.result.atoms[0].size() == 19_683
    assert folds == [] and type(T.result.atoms[0]) is not TableAtom
    assert time.process_time() - start < 5
    F = free_semimodule(B, 3)
    T = tensor(F, F, force_saturation=True)
    R, atom = T.result, T.result.atoms[0]
    els = R.elements()
    assert len(els) == 512 and folds == []
    rng = random.Random(26)
    for x, y in [rng.sample(els, 2) for _ in range(8)]:
        assert R.add(x, y) == (T.pres.reduce(tuple(map(int.__add__, x[0], y[0]))),)
    assert folds == [atom] and type(atom) is TableAtom
