import pytest

from steintile import (
    CapExceededError,
    ValidationError,
    crt_iso,
    cyclic_subgroups,
    make_group,
    quotient,
    subgroup_from_generators,
)
from steintile.abelian import _closure, subgroup_intersection, subgroup_sum


def members(H):
    """The enumeration oracle: H's sorted members."""
    return tuple(_closure(H.parent, H.generators))


def small_groups():
    """Every group of order <= 36 with at most 3 cyclic factors, each >= 2."""
    out = [[a] for a in range(2, 37)]
    out += [[a, b] for a in range(2, 19) for b in range(a, 19) if a * b <= 36]
    out += [[a, b, c] for a in range(2, 4) for b in range(a, 9) for c in range(b, 9)
            if a * b * c <= 36]
    return out


def test_make_group_orders():
    assert make_group([2, 4]).order == 8
    assert make_group([1]).order == 1
    assert make_group([3, 3]).order == 9


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValidationError):
        make_group([0, 3])
    with pytest.raises(ValidationError):
        make_group([-2])
    with pytest.raises(CapExceededError):
        make_group([10, 10, 10], cap=999)


def test_subgroup_from_generators():
    G = make_group([8])
    H = subgroup_from_generators(G, [(2,)])
    assert members(H) == ((0,), (2,), (4,), (6,))
    G = make_group([2, 2])
    assert subgroup_from_generators(G, [(1, 0), (0, 1)]).order == 4
    G = make_group([3, 3])
    H = subgroup_from_generators(G, [(1, 1)])
    assert members(H) == ((0, 0), (1, 1), (2, 2))
    with pytest.raises(ValidationError):
        subgroup_from_generators(G, [(3, 0)])


def test_subgroup_calculus_cyclic():
    G = make_group([8])
    H1, H2 = subgroup_from_generators(G, [(2,)]), subgroup_from_generators(G, [(4,)])
    assert members(subgroup_intersection(G, H1, H2)) == ((0,), (4,))
    assert members(subgroup_sum(G, H1, H2)) == ((0,), (2,), (4,), (6,))
    assert (H1.index, H2.index) == (2, 4)

    G = make_group([6])
    H1, H2 = subgroup_from_generators(G, [(2,)]), subgroup_from_generators(G, [(3,)])
    assert subgroup_intersection(G, H1, H2).order == 1
    assert subgroup_sum(G, H1, H2).order == 6


def test_subgroup_calculus_enumerated():
    # expected sets recomputed here by raw enumeration
    G = make_group([4, 2])
    H1 = subgroup_from_generators(G, [(1, 0)])
    H2 = subgroup_from_generators(G, [(2, 0), (0, 1)])
    inter = subgroup_intersection(G, H1, H2)
    assert list(members(inter)) == sorted(set(members(H1)) & set(members(H2)))
    assert inter.order == 2
    assert subgroup_sum(G, H1, H2).order == G.order


def test_mismatched_parent_rejected():
    G, G2 = make_group([4]), make_group([8])
    H = subgroup_from_generators(G2, [(2,)])
    for op in (subgroup_intersection, subgroup_sum):
        with pytest.raises(ValidationError):
            op(G, H, H)
    with pytest.raises(ValidationError):
        quotient(G, H)


def test_quotient_examples():
    G = make_group([8])
    red = quotient(G, subgroup_from_generators(G, [(4,)]))
    assert list(dict.fromkeys(red.values())) == [(0,), (1,), (2,), (3,)]
    assert red[(5,)] == (1,) and red[(7,)] == (3,)
    G = make_group([4, 2])
    red = quotient(G, subgroup_from_generators(G, [(2, 0)]))
    assert len(set(red.values())) == 4
    full = subgroup_from_generators(G, G.elements())
    red = quotient(G, full)
    assert set(red.values()) == {(0, 0)}


def test_quotient_reduce_properties():
    G = make_group([4, 2])
    H = subgroup_from_generators(G, [(2, 0)])
    red = quotient(G, H)
    assert sorted(red) == list(G.elements())
    assert len(set(red.values())) * H.order == G.order
    for x in G.elements():
        r = red[x]
        assert red[r] == r
        assert r <= x
        diff = G.add(x, G.neg(r))
        assert H.contains(diff)
    # reduction respects addition: the representatives form a group
    reps = set(red.values())
    for a in reps:
        assert red[G.neg(a)] in reps
        for b in reps:
            assert red[G.add(a, b)] == red[G.add(red[a], red[b])]


def test_crt_examples():
    iso = crt_iso(2, 3)
    assert iso.to_cyclic(1, 2) == 5
    assert iso.to_cyclic(0, 0) == 0
    assert iso.to_cyclic(1, 0) == 3
    assert iso.to_pair(5) == (1, 2)
    with pytest.raises(ValidationError):
        crt_iso(4, 6)


def test_crt_roundtrip_and_homomorphism():
    for m, n in [(1, 7), (2, 3), (4, 9), (5, 6), (8, 15), (29, 30)]:
        iso = crt_iso(m, n)
        for i in range(m):
            for j in range(n):
                x = iso.to_cyclic(i, j)
                assert 0 <= x < m * n
                assert x % m == i and x % n == j
                assert iso.to_pair(x) == (i, j)
        # additivity on a few pairs
        pairs = [(0, 0), (1 % m, 2 % n), (m - 1, n - 1)]
        for i1, j1 in pairs:
            for i2, j2 in pairs:
                lhs = iso.to_cyclic((i1 + i2) % m, (j1 + j2) % n)
                rhs = (iso.to_cyclic(i1, j1) + iso.to_cyclic(i2, j2)) % (m * n)
                assert lhs == rhs


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_cyclic_subgroup_counts_prime_power(p, d):
    G = make_group([p] * d)
    subs = cyclic_subgroups(G)
    assert len(subs) == (p**d - 1) // (p - 1)
    assert all(H.order == p for H in subs)


def test_cyclic_subgroups_mixed_group():
    G = make_group([8])
    subs = cyclic_subgroups(G)
    assert [H.order for H in subs] == [2, 4, 8]


def test_lagrange_and_coset_partition():
    for orders in ([12], [2, 4], [6], [3, 3]):
        G = make_group(orders)
        for H in cyclic_subgroups(G):
            assert G.order % H.order == 0
            red = quotient(G, H)
            seen = set()
            for rep in sorted(set(red.values())):
                coset = {G.add(rep, h) for h in members(H)}
                assert len(coset) == H.order
                assert all(red[c] == rep for c in coset)
                assert not (coset & seen)
                seen |= coset
            assert len(seen) == G.order


def test_product_formula():
    for orders in ([12], [2, 4], [3, 3]):
        G = make_group(orders)
        subs = cyclic_subgroups(G)
        for H1 in subs:
            for H2 in subs:
                total, inter = subgroup_sum(G, H1, H2), subgroup_intersection(G, H1, H2)
                assert total.order * inter.order == H1.order * H2.order


def test_subgroup_hnf_is_canonical():
    G = make_group([2, 2])
    H = subgroup_from_generators(G, [(1, 1)])
    assert H.hnf == ((1, 1), (0, 2))
    assert H == subgroup_from_generators(G, [(1, 1), (0, 0), (1, 1)])
    assert hash(H) == hash(subgroup_from_generators(G, [(1, 1), (1, 1)]))
    assert H != subgroup_from_generators(G, [(1, 0)])
    G = make_group([4, 6])
    H = subgroup_from_generators(G, [(2, 3), (0, 2)])
    assert H == subgroup_from_generators(G, [(2, 1)])
    assert H.hnf == ((2, 1), (0, 2)) and H.order == 6


def test_subgroup_closure_by_enumeration():
    G = make_group([4, 6])
    H = subgroup_from_generators(G, [(2, 3), (0, 2)])
    elems = set(members(H))
    assert G.zero in elems
    for a in elems:
        assert G.neg(a) in elems
        for b in elems:
            assert G.add(a, b) in elems
    assert G.order % H.order == 0


def _reduce_matches_oracle(G, H):
    elems = members(H)
    assert H.order == len(elems)
    assert H.index * H.order == G.order
    table = quotient(G, H)
    for x in G.elements():
        assert H.reduce(x) == table[x]
        assert H.contains(x) == (x in elems)
    assert list(H.coset_minima()) == sorted(set(table.values()))


def test_reduce_and_kernel_match_enumeration():
    # every cyclic subgroup and every pairwise sum and intersection of every
    # group of order <= 36 with at most 3 factors, against the element sets
    pairs = 0
    for orders in small_groups():
        G = make_group(orders)
        subs = cyclic_subgroups(G)
        for H in subs:
            _reduce_matches_oracle(G, H)
        for H1 in subs:
            e1 = set(members(H1))
            for H2 in subs:
                e2 = set(members(H2))
                total, inter = subgroup_sum(G, H1, H2), subgroup_intersection(G, H1, H2)
                assert set(members(total)) == {G.add(a, b) for a in e1 for b in e2}
                assert set(members(inter)) == e1 & e2
                assert total == subgroup_from_generators(G, H1.generators + H2.generators)
                _reduce_matches_oracle(G, total)
                pairs += 1
    assert pairs > 2000


def test_reduce_accepts_any_integer_vector():
    G = make_group([6, 4])
    H = subgroup_from_generators(G, [(2, 2)])
    for x in [(-7, 13), (100, -1), (5, 3)]:
        y = tuple(a % d for a, d in zip(x, G.orders))
        assert H.reduce(x) == H.reduce(y) == quotient(G, H)[y]
