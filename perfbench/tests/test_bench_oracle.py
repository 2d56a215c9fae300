"""The oracle's known answers, checked against brute force and each other."""
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402


def test_free_and_cyclic_tensor_sizes():
    assert oracle.free_size("BOOL", 3, 3) == 512
    assert oracle.free_size("ZMOD3", 2, 2) == 81
    assert [oracle.cyclic_tensor_size(a, b) for a, b in ((2, 3), (4, 6), (6, 6), (1, 5))] == [1, 2, 6, 1]


def _union_closed_families(k):
    """Families of subsets of a k-set containing {} and closed under union."""
    subsets = range(1 << k)
    count = 0
    for bits in range(1 << (1 << k)):
        family = [s for s in subsets if bits >> s & 1]
        if bits & 1 and all(bits >> (a | b) & 1 for a in family for b in family):
            count += 1
    return count


def test_submodule_counts_are_moore_families():
    # a submodule of B^k is a union-closed family of subsets containing {}
    for k in range(4):
        assert _union_closed_families(k) == oracle.MOORE_FAMILIES[k]
    assert oracle.MOORE_FAMILIES[4] == 2480


def test_module_counts_by_size():
    for base in ("BOOL", "ZMOD2", "ZMOD3"):
        sizes = [t.size for t in oracle.enumerate_tables(base, 4)]
        assert [sizes.count(n) for n in range(1, 5)] == oracle.module_counts(base, 4)
    assert oracle.module_counts("BOOL", 4) == [1, 1, 1, 2]
    assert oracle.module_counts("ZMOD2", 4) == [1, 1, 0, 1]
    assert oracle.module_counts("ZMOD3", 4) == [1, 0, 1, 0]


def _free_table(base, rank):
    ops = oracle.BASES[base]
    vectors = list(itertools.product(ops["elements"], repeat=rank))
    index = {v: i for i, v in enumerate(vectors)}
    add = tuple(
        tuple(index[tuple(ops["add"](x, y) for x, y in zip(u, v))] for v in vectors) for u in vectors
    )
    act = tuple(
        tuple(index[tuple(ops["mul"](x, s) for x in u)] for s in ops["elements"]) for u in vectors
    )
    return oracle.Table(f"{base}^{rank}", base, add, act)


def test_brute_force_hom_counts_match_the_free_formula():
    for base in ("BOOL", "ZMOD2"):
        free = _free_table(base, 2)
        for target in oracle.enumerate_tables(base, 4):
            assert oracle.hom_count(free, target) == oracle.hom_count_free(2, target)


def test_relabelling_is_an_isomorphism():
    lattices = [t for t in oracle.enumerate_tables("BOOL", 4) if t.size == 4]
    assert len(lattices) == 2
    for table in lattices:
        for rest in itertools.permutations(range(1, 4)):
            assert oracle.isomorphic(table, table.relabel((0,) + rest))
    assert not oracle.isomorphic(*lattices)


def test_congruence_classes():
    chain = [t for t in oracle.enumerate_tables("BOOL", 3)][2]  # 0 < a < b
    assert oracle.congruence_classes(chain, []) == 3
    # identifying 0 with the top forces everything together
    top = max(range(3), key=lambda x: sum(chain.add[x][y] == x for y in range(3)))
    assert oracle.congruence_classes(chain, [(0, top)]) == 1


def test_free_tensor_image_is_bilinear():
    # (m1 + m2) (x) n = m1 (x) n + m2 (x) n over ZMOD(3)
    m1, m2, n = (1, 2), (2, 2), (1, 0, 2)
    m = tuple((x + y) % 3 for x, y in zip(m1, m2))
    assert oracle.free_tensor_image("ZMOD3", [[m, n]]) == oracle.free_tensor_image("ZMOD3", [[m1, n], [m2, n]])
    assert oracle.free_tensor_image("ZMOD3", [[m1, n]]) != oracle.free_tensor_image("ZMOD3", [[m2, n]])


def test_exit_code_contract():
    assert oracle.exit_code(["pass", "pass"]) == 0
    assert oracle.exit_code(["pass", "fail"]) == 1
    assert oracle.exit_code(["fail", "undecided"]) == 2
