import pytest

from steintile import (
    CapExceededError,
    ValidationError,
    crt_iso,
    cyclic_subgroups,
    make_group,
    quotient,
    subgroup_calculus,
    subgroup_from_generators,
)


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
    assert H.elements == ((0,), (2,), (4,), (6,))
    G = make_group([2, 2])
    assert subgroup_from_generators(G, [(1, 0), (0, 1)]).order == 4
    G = make_group([3, 3])
    H = subgroup_from_generators(G, [(1, 1)])
    assert H.elements == ((0, 0), (1, 1), (2, 2))
    with pytest.raises(ValidationError):
        subgroup_from_generators(G, [(3, 0)])


def test_subgroup_calculus_cyclic():
    G = make_group([8])
    c = subgroup_calculus(G, subgroup_from_generators(G, [(2,)]),
                          subgroup_from_generators(G, [(4,)]))
    assert c.intersection.elements == ((0,), (4,))
    assert c.sum.elements == ((0,), (2,), (4,), (6,))
    assert (c.index1, c.index2) == (2, 4)

    G = make_group([6])
    c = subgroup_calculus(G, subgroup_from_generators(G, [(2,)]),
                          subgroup_from_generators(G, [(3,)]))
    assert c.intersection.order == 1
    assert c.sum.order == 6


def test_subgroup_calculus_enumerated():
    # expected sets recomputed here by raw enumeration
    G = make_group([4, 2])
    H1 = subgroup_from_generators(G, [(1, 0)])
    H2 = subgroup_from_generators(G, [(2, 0), (0, 1)])
    c = subgroup_calculus(G, H1, H2)
    expected_inter = sorted(set(H1.elements) & set(H2.elements))
    assert list(c.intersection.elements) == expected_inter
    assert c.intersection.order == 2
    assert c.sum.order == G.order


def test_mismatched_parent_rejected():
    G, G2 = make_group([4]), make_group([8])
    H = subgroup_from_generators(G2, [(2,)])
    with pytest.raises(ValidationError):
        subgroup_calculus(G, H, H)


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
                coset = {G.add(rep, h) for h in H.elements}
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
                c = subgroup_calculus(G, H1, H2)
                assert c.sum.order * c.intersection.order == H1.order * H2.order


def test_subgroup_serialization():
    G = make_group([2, 2])
    H = subgroup_from_generators(G, [(1, 1)])
    assert H.to_json() == [[0, 0], [1, 1]]


def test_subgroup_closure_by_enumeration():
    G = make_group([4, 6])
    H = subgroup_from_generators(G, [(2, 3), (0, 2)])
    members = set(H.elements)
    assert G.zero in members
    for a in members:
        assert G.neg(a) in members
        for b in members:
            assert G.add(a, b) in members
    assert G.order % H.order == 0
