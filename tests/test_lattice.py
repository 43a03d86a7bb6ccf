import itertools
import math
import random
from fractions import Fraction as F

import pytest

from steintile import lattice as lat
from steintile.errors import CapExceededError, ValidationError


def test_make_lattice_volume_and_canonical_form():
    L = lat.make_lattice([[2, 0], [0, F(1, 2)]])
    assert L.volume == 1
    assert lat.make_lattice([[1, 0], [0, 1]]) == lat.make_lattice([[1, 1], [0, 1]])
    with pytest.raises(ValidationError):
        lat.make_lattice([[1, 0], [0, 0]])
    with pytest.raises(ValidationError):
        lat.make_lattice([])


def test_canonical_form_is_basis_independent():
    # same lattice through different generating rows
    a = lat.make_lattice([[2, 1], [0, 3]])
    b = lat.make_lattice([[2, 4], [2, 1]])
    assert a == b
    assert a.basis == b.basis


def test_dual_examples():
    L = lat.make_lattice([[2, 0], [0, F(1, 2)]])
    assert lat.dual(L).basis == ((F(1, 2), 0), (0, F(2)))
    Z2 = lat.make_lattice([[1, 0], [0, 1]])
    assert lat.dual(Z2) == Z2
    P3 = lat.make_lattice([[3, 0], [0, 3]])
    assert lat.dual(P3) == lat.make_lattice([[F(1, 3), 0], [0, F(1, 3)]])


def test_sum_and_intersection_1d():
    pair = lat.sum_and_intersection(lat.make_lattice([[2]]), lat.make_lattice([[3]]))
    assert pair.sum == lat.make_lattice([[1]])
    assert pair.intersection == lat.make_lattice([[6]])
    assert pair.sum.volume * pair.intersection.volume == 6


def test_sum_and_intersection_nested():
    Z2 = lat.make_lattice([[1, 0], [0, 1]])
    half = lat.make_lattice([[F(1, 2), 0], [0, 1]])
    pair = lat.sum_and_intersection(Z2, half)
    assert pair.sum == half
    assert pair.intersection == Z2


def test_sum_and_intersection_dimension_mismatch():
    with pytest.raises(ValidationError):
        lat.sum_and_intersection(lat.make_lattice([[1]]),
                                 lat.make_lattice([[1, 0], [0, 1]]))


def test_distinct_cyclic_directions_meet_in_scaled_grid():
    fam = lat.many_relations_family(3, 2)
    P3 = lat.make_lattice([[3, 0], [0, 3]])
    for i in range(fam.count):
        for j in range(i + 1, fam.count):
            pair = lat.sum_and_intersection(fam.lattices[i], fam.lattices[j])
            assert pair.intersection == P3


@pytest.mark.parametrize("p,d,count,vol", [(3, 2, 4, 3), (5, 2, 6, 5), (2, 3, 7, 4)])
def test_many_relations_family(p, d, count, vol):
    fam = lat.many_relations_family(p, d)
    assert fam.count == count
    assert all(L.volume == vol for L in fam.lattices)
    assert all(L.contains([p if i == j else 0 for j in range(d)])
               for L in fam.lattices for i in range(d))
    assert fam.common_tile.sides == tuple(F(p) for _ in range(d))
    assert fam.scaled.scaled_volume == F(vol, count)


def test_many_relations_scaled_reports():
    fam = lat.many_relations_family(3, 2)
    # count = 4, d = 2: squared diameter 2*9/4 is exact, scale 1/2 is rational
    assert fam.scaled.tile_diameter_squared == F(9, 2)
    assert fam.scaled.tile_diameter_squared_symbolic == (18, 4)
    assert fam.scaled.lattices is not None
    assert all(L.volume == F(3, 4) for L in fam.scaled.lattices)

    fam5 = lat.many_relations_family(5, 2)
    # count = 6 is not a perfect square: no rational scaled bases
    assert fam5.scaled.lattices is None
    assert fam5.scaled.tile_diameter_squared == F(50, 6) or \
        fam5.scaled.tile_diameter_squared == F(25, 3)

    fam23 = lat.many_relations_family(2, 3)
    # count = 7, d = 3: count**(2/3) irrational, symbolic pair only
    assert fam23.scaled.tile_diameter_squared is None
    assert fam23.scaled.tile_diameter_squared_symbolic == (12, 7)


def test_many_relations_rejects():
    with pytest.raises(ValidationError):
        lat.many_relations_family(4, 2)
    with pytest.raises(ValidationError):
        lat.many_relations_family(3, 1)
    with pytest.raises(CapExceededError):
        lat.many_relations_family(101, 3, cap=10**6)


def test_directions_and_lattices_equal_the_enumeration_route():
    # every prime p and d >= 2 with p^d <= 2000 (so p <= 43 and d <= 10)
    primes = [p for p in range(2, 45) if all(p % q for q in range(2, p))]
    cases = [(p, d) for p in primes for d in range(2, 11) if p ** d <= 2000]
    for p, d in cases:
        fam = lat.many_relations_family(p, d)
        assert list(fam.directions) == lat.projective_points_by_enumeration(p, d), (p, d)
        for v, L in zip(fam.directions, fam.lattices):
            rows = [[p if i == j else 0 for j in range(d)] for i in range(d)] + [list(v)]
            assert L == lat._from_rational_rows(rows, d), (p, v)


def test_many_relations_entry_cap():
    # the largest d per prime with count * d^2 <= 10^6; one more is refused
    # (test_cli checks the refusals of every prime edge)
    for p, d in ((2, 12), (3, 9), (5, 7), (7, 6)):
        with pytest.raises(CapExceededError, match="entry cap"):
            lat.many_relations_count(p, d + 1)
        assert lat.many_relations_count(p, d) == (p ** d - 1) // (p - 1)
    # composite p whose family would exceed the entry cap: cap before primality
    with pytest.raises(CapExceededError):
        lat.many_relations_count(4, 9)


def test_box_validation_and_stats():
    with pytest.raises(ValidationError):
        lat.Box((1, 0))
    b = lat.Box((F(3, 2), 2))
    assert b.volume == 3 and b.diameter_squared == F(9, 4) + 4


def test_box_tiling_multiplicity_fundamental():
    P3 = lat.make_lattice([[3, 0], [0, 3]])
    box = lat.Box((3, 3))
    for x in ([0, 0], [F(1, 2), F(1, 2)], [3, 0], [-1, F(17, 5)]):
        assert lat.box_tiling_multiplicity(P3, box, x) == 1


def test_box_tiling_multiplicity_diagonal_subgroup():
    fam = lat.many_relations_family(3, 2)
    box = lat.Box((3, 3))
    target = None
    for v, L in zip(fam.directions, fam.lattices):
        if v == (1, 1):
            target = L
    assert target is not None
    assert lat.box_tiling_multiplicity(target, box, [F(1, 2), F(1, 2)]) == 3


def test_box_tiling_multiplicity_half_open_boundary():
    Z1 = lat.make_lattice([[1]])
    box = lat.Box((1,))
    # lam in (x-1, x]: exactly one integer for any rational x
    for x in (0, 1, F(1, 2), F(-7, 3)):
        assert lat.box_tiling_multiplicity(Z1, box, [x]) == 1


def _brute_force_multiplicity(L, box, x):
    """Points lam of L with x - lam in the box, found by testing every point
    of the grid (1/den)Z^d inside the box (x - a, x]."""
    den = L.denominator
    ranges = []
    for xi, ai in zip(x, box.sides):
        lo = math.floor((xi - ai) * den) + 1
        hi = math.floor(xi * den)
        ranges.append(range(lo, hi + 1))
    return sum(L.contains([F(k, den) for k in ks]) for ks in itertools.product(*ranges))


def test_box_tiling_multiplicity_equals_brute_force():
    rng = random.Random(7)
    for i in range(150):
        d = 1 + i % 3
        L = _random_lattice(rng, d)
        box = lat.Box(tuple(F(rng.randrange(1, 5), rng.randrange(1, 4)) for _ in range(d)))
        x = [F(rng.randrange(-12, 13), rng.randrange(1, 6)) for _ in range(d)]
        assert lat.box_tiling_multiplicity(L, box, x) == _brute_force_multiplicity(L, box, x)


def test_box_convolution_stats():
    unit = lat.Box((1,))
    st = lat.box_convolution_stats([unit] * 5)
    assert st.volume == 5 and st.diameter_squared == 25
    st = lat.box_convolution_stats([lat.Box((2, F(1, 2))), lat.Box((F(1, 2), 2))])
    assert st.volume == F(25, 4)
    assert st.volume >= 4  # N^d with N = d = 2
    one = lat.Box((F(2, 3), 5))
    st = lat.box_convolution_stats([one])
    assert st.volume == one.volume and st.diameter_squared == one.diameter_squared


def _random_lattice(rng, d):
    while True:
        basis = [[F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(d)]
                 for _ in range(d)]
        try:
            return lat.make_lattice(basis)
        except ValidationError:
            continue


def test_random_lattice_identities():
    rng = random.Random(99)
    for i in range(60):
        d = 1 + i % 3
        L1, L2 = _random_lattice(rng, d), _random_lattice(rng, d)
        assert lat.dual(lat.dual(L1)) == L1
        assert lat.dual(L1).volume * L1.volume == 1
        pair = lat.sum_and_intersection(L1, L2)
        assert pair.sum.volume * pair.intersection.volume == L1.volume * L2.volume
        assert lat.dual(pair.intersection) == lat.sum_and_intersection(
            lat.dual(L1), lat.dual(L2)).sum


def test_lattice_serialization():
    L = lat.make_lattice([[2, 0], [0, F(1, 2)]])
    assert L.to_json() == {"d": 2, "basis": [["2", "0"], ["0", "1/2"]]}


def test_sum_and_intersection_equal_the_dual_route():
    # the kernel's meet against (L1* + L2*)*, its sum against the HNF of both bases
    rng = random.Random(7)
    for i in range(300):
        d = 1 + i % 4
        L1, L2 = _random_lattice(rng, d), _random_lattice(rng, d)
        pair = lat.sum_and_intersection(L1, L2)
        assert pair.sum == lat._from_rational_rows(list(L1.basis) + list(L2.basis), d)
        assert pair.intersection == lat.dual(lat._from_rational_rows(
            list(lat.dual(L1).basis) + list(lat.dual(L2).basis), d))
        for v in pair.intersection.basis:
            assert L1.contains(v) and L2.contains(v)
        for v in L1.basis + L2.basis:
            assert pair.sum.contains(v)
