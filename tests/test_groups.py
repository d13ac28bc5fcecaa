import itertools
from fractions import Fraction

import pytest
from conftest import ORACLE_GROUPS_16, oracle_order

from zerosum import (
    GroupSpec,
    automorphisms,
    is_basis_pair,
    is_generating_pair,
    order_of,
)
from zerosum.groups import _aut_rows, aut_permutations, basis_images
from zerosum.inverse import _generating_pairs

SMALL_GROUPS = [GroupSpec(2, 2), GroupSpec(2, 4), GroupSpec(3, 3), GroupSpec(1, 5), GroupSpec(2, 6)]
AUT_DEFINITION_GROUPS = [(1, 1), *ORACLE_GROUPS_16, (5, 5), (6, 6), (7, 7)]


def spans(e1, e2):
    # definition, with plain modular arithmetic on coordinates: the
    # combinations i*e1 + j*e2 cover the group
    g = e1.group
    n1, n2 = g.n1, g.n2
    combos = {
        ((i * e1.a + j * e2.a) % n1, (i * e1.b + j * e2.b) % n2)
        for i in range(n2) for j in range(n2)
    }
    return len(combos) == g.order


def test_invariant_factor_normalization():
    assert GroupSpec(4, 2) == GroupSpec(2, 4)
    assert GroupSpec(3, 4) == GroupSpec(1, 12)
    assert GroupSpec(6, 4) == GroupSpec(2, 12)
    g = GroupSpec(6, 4)
    assert (g.n1, g.n2) == (2, 12)


def test_rejects_nonpositive_factors():
    with pytest.raises(ValueError):
        GroupSpec(0, 3)
    with pytest.raises(ValueError):
        GroupSpec(2, -2)


def test_accessors_match_definitions():
    g = GroupSpec(3, 6)
    assert (g.m, g.n, g.exponent, g.order, g.rank) == (3, 2, 6, 18, 2)
    assert GroupSpec(1, 7).rank == 1
    assert GroupSpec(1, 1).rank == 0
    assert GroupSpec(2, 2).n == 1


def test_parse_and_str_roundtrip():
    assert GroupSpec.parse("2,6") == GroupSpec(2, 6)
    assert GroupSpec.parse("7") == GroupSpec.cyclic(7)
    assert str(GroupSpec(2, 6)) == "2,6"
    assert str(GroupSpec.cyclic(7)) == "7"
    with pytest.raises(ValueError):
        GroupSpec.parse("2;6")
    with pytest.raises(ValueError):
        GroupSpec.parse("2,3,4")


def test_element_reduction_and_arithmetic():
    g = GroupSpec(2, 4)
    e = g.element(3, 5)
    assert (e.a, e.b) == (1, 1)
    assert (e + e) == g.element(0, 2)
    assert (-e) == g.element(1, 3)
    assert 3 * e == g.element(1, 3)
    assert str(e) == "(1,1)"
    assert g.element_at(e.index) == e


def test_order_of_examples():
    assert order_of(GroupSpec(2, 4).element(1, 2)) == 2
    assert order_of(GroupSpec(3, 6).element(0, 1)) == 6
    assert order_of(GroupSpec(5, 10).zero) == 1


def test_order_of_against_oracle():
    for g in SMALL_GROUPS:
        for e in g.elements():
            assert order_of(e) == oracle_order(e)


def test_order_of_sum_divides_lcm():
    import math

    for g in SMALL_GROUPS:
        for e1 in g.elements():
            for e2 in g.elements():
                o1, o2 = order_of(e1), order_of(e2)
                assert math.lcm(o1, o2) % order_of(e1 + e2) == 0


def test_basis_pair_examples():
    g = GroupSpec(2, 4)
    assert is_basis_pair(g.element(1, 0), g.element(0, 1))
    # 2*(1,1) + 2*(0,1) = 0 yet 2*(1,1) = (0,2) != 0: dependent
    assert not is_basis_pair(g.element(1, 1), g.element(0, 1))
    h = GroupSpec(2, 2)
    assert not is_basis_pair(h.element(1, 0), h.element(1, 0))
    with pytest.raises(ValueError):
        is_basis_pair(GroupSpec(1, 5).element(0, 1), GroupSpec(1, 5).element(0, 2))


@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1, n2 in ORACLE_GROUPS_16 if n1 > 1])
def test_basis_pair_matches_definition(n1, n2):
    # definition, with plain modular arithmetic on coordinates: the multiples
    # i*g1 + j*g2 cover the group, and each one that is 0 has i*g1 = j*g2 = 0
    g = GroupSpec(n1, n2)
    exp = g.exponent

    def mult(k, e):
        return (k * e[0] % n1, k * e[1] % n2)

    def add(x, y):
        return ((x[0] + y[0]) % n1, (x[1] + y[1]) % n2)

    for e1 in g.elements():
        for e2 in g.elements():
            x, y = (e1.a, e1.b), (e2.a, e2.b)
            combos = [(mult(i, x), mult(j, y)) for i in range(exp) for j in range(exp)]
            spans = len({add(u, v) for u, v in combos}) == g.order
            independent = all(
                u == v == (0, 0) for u, v in combos if add(u, v) == (0, 0)
            )
            assert is_basis_pair(e1, e2) == (spans and independent), (e1, e2)


def test_generating_pair_examples():
    g = GroupSpec(2, 4)
    assert is_generating_pair(g.element(1, 1), g.element(0, 1))
    assert is_generating_pair(GroupSpec(2, 2).element(1, 0), GroupSpec(2, 2).element(0, 1))
    assert not is_generating_pair(g.element(0, 1), g.element(0, 3))


def test_basis_implies_generating_and_not_conversely():
    g = GroupSpec(2, 4)
    gen_not_basis = 0
    for e1 in g.elements():
        for e2 in g.elements():
            if is_basis_pair(e1, e2):
                assert is_generating_pair(e1, e2)
            elif is_generating_pair(e1, e2):
                gen_not_basis += 1
    assert gen_not_basis > 0  # n = 2 > 1 admits non-basis generating pairs


def test_automorphism_counts():
    # |GL(2, F_2)| = 6, |GL(2, F_3)| = 48, units mod 5 = 4
    assert len(automorphisms(GroupSpec(2, 2))) == 6
    assert len(automorphisms(GroupSpec(3, 3))) == 48
    assert len(automorphisms(GroupSpec(1, 5))) == 4
    # |Aut(C_m + C_m)| = |GL(2, Z/m)| = m^4 * prod over primes p | m of (1 - 1/p)(1 - 1/p^2)
    counts = {2: 6, 3: 48, 4: 96, 5: 480, 6: 288, 7: 2016, 8: 1536, 9: 3888}
    for m, count in counts.items():
        gl2 = Fraction(m**4)
        for p in (p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))):
            gl2 *= (1 - Fraction(1, p)) * (1 - Fraction(1, p * p))
        assert gl2 == count
        assert len(automorphisms(GroupSpec(m, m))) == count


@pytest.mark.parametrize("n1,n2", AUT_DEFINITION_GROUPS)
def test_automorphisms_match_definition(n1, n2):
    # every pair of images (img1, img2) with n1*img1 = 0 that spans G, in
    # index order; the permutation reads the Element map (a, b) -> a*img1 + b*img2
    g = GroupSpec(n1, n2)
    elems = list(g.elements())
    images = [(img1, img2) for img1 in elems if n1 * img1 == g.zero
              for img2 in elems if spans(img1, img2)]
    expected = [
        tuple((e.a * img1 + e.b * img2).index for e in elems) for img1, img2 in images
    ]
    assert list(automorphisms(g)) == expected
    assert list(basis_images(g)) == [(img1.index, img2.index) for img1, img2 in images]


@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1, n2 in AUT_DEFINITION_GROUPS if n1 > 1])
def test_generating_pairs_match_definition(n1, n2):
    g = GroupSpec(n1, n2)
    elems = list(g.elements())
    expected = []
    for g1 in elems:
        for g2 in elems:
            assert is_generating_pair(g1, g2) == spans(g1, g2), (g1, g2)
            if order_of(g2) == g.exponent and is_generating_pair(g1, g2):
                expected.append((g1, g2))
    assert list(_generating_pairs(g)) == expected


def test_automorphism_bound_error():
    with pytest.raises(ValueError):
        automorphisms(GroupSpec(30, 30))


def test_automorphisms_preserve_order_and_are_bijective():
    # additive: p(x + y) = p(x) + p(y), with the sums taken as Elements
    for g in SMALL_GROUPS:
        elems = list(g.elements())
        add = [[(x + y).index for y in elems] for x in elems]
        for p in automorphisms(g):
            assert sorted(p) == list(range(g.order))
            for i, j in itertools.product(range(g.order), repeat=2):
                assert p[add[i][j]] == add[p[i]][p[j]]
            for e in elems:
                assert order_of(g.element_at(p[e.index])) == order_of(e)


def test_automorphisms_closed_under_composition_and_inverse():
    # On the element permutations: the orbit test relies on closure under
    # inversion (aut_permutations leaves the identity out for that reason).
    import math

    for g in [GroupSpec(2, 2), GroupSpec(2, 4), GroupSpec(1, 5)]:
        perms = set(automorphisms(g))
        assert len(perms) == len(automorphisms(g))
        assert math.factorial(g.order) % len(perms) == 0
        assert tuple(range(g.order)) in perms
        for p in perms:
            inverse = [0] * g.order
            for i, v in enumerate(p):
                inverse[v] = i
            assert tuple(inverse) in perms
        for p, q in itertools.product(perms, perms):
            assert tuple(p[v] for v in q) in perms


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 4), (5, 5), (7, 7)])
def test_aut_rows_match_bitwise_construction(n1, n2):
    # rows[j][v] has bit k set iff the k-th permutation (the identity first)
    # reads index v at position j: the plain construction, one bit at a time.
    group = GroupSpec(n1, n2)
    n = group.order
    want = [[0] * n for _ in range(n)]
    for bit, p in enumerate((range(n), *aut_permutations(group))):
        for j, v in enumerate(p):
            want[j][v] |= 1 << bit
    assert _aut_rows(group)[1] == want
