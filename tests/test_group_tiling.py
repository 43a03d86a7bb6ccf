import json
import random
from fractions import Fraction

import pytest

from steintile import copula, make_group, subgroup_from_generators
from steintile import group_tiling as gt
from steintile.abelian import _closure, cyclic_subgroups, quotient
from steintile.errors import CapExceededError, ValidationError


def factor_pair(m, n):
    G = make_group([m, n])
    return G, subgroup_from_generators(G, [(1, 0)]), subgroup_from_generators(G, [(0, 1)])


def test_group_function_drops_zeros_and_rejects_negative():
    G = make_group([4])
    f = gt.GroupFunction(G, {(0,): 1, (1,): 0, (2,): Fraction(1, 3)})
    assert f.support == ((0,), (2,))
    assert f.mass() == Fraction(4, 3)
    with pytest.raises(ValidationError):
        gt.GroupFunction(G, {(0,): -1})
    with pytest.raises(ValidationError):
        gt.GroupFunction(G, {(7,): 1})


def test_tiling_level_constant_function():
    G = make_group([6])
    f = gt.GroupFunction(G, {(x,): 1 for x in range(6)})
    res = gt.tiling_level(f, subgroup_from_generators(G, [(2,)]))
    assert isinstance(res, gt.TilingCertificate)
    assert res.level == 3 and res.normalized


def test_tiling_level_scaled_fundamental_domain():
    G = make_group([6])
    f = gt.GroupFunction(G, {(0,): 2, (1,): 2, (2,): 2})
    res = gt.tiling_level(f, subgroup_from_generators(G, [(3,)]))
    assert isinstance(res, gt.TilingCertificate)
    assert res.level == 2 and res.normalized


def test_tiling_level_failure_witnesses():
    G = make_group([4])
    f = gt.GroupFunction(G, {(0,): 1})
    res = gt.tiling_level(f, subgroup_from_generators(G, [(2,)]))
    assert isinstance(res, gt.TilingFailure)
    assert (res.witness_x, res.sum_x) == ((0,), 1)
    assert (res.witness_y, res.sum_y) == ((1,), 0)


def test_mass_level_identity():
    # level = mass * |H| / |G| whenever the periodization is constant
    rng = random.Random(3)
    G = make_group([2, 4])
    for H in cyclic_subgroups(G):
        red = quotient(G, H)
        values = {}
        for rep in sorted(set(red.values())):
            level_share = Fraction(rng.randrange(1, 5))
            members = sorted(G.add(rep, h) for h in _closure(G, H.generators))
            values[members[0]] = level_share
        f = gt.GroupFunction(G, values)
        res = gt.tiling_level(f, H)
        if isinstance(res, gt.TilingCertificate):
            assert res.level == f.mass() * H.order / G.order


def test_project_tile_full_collapse():
    G = make_group([3])
    full = subgroup_from_generators(G, [(1,)])
    f = gt.GroupFunction(G, {(x,): 1 for x in range(3)})
    proj = gt.project_tile(f, full, full)
    assert proj.group == G
    assert proj.values == {(0,): Fraction(3)}


def test_project_tile_trivial_kernel_keeps_function():
    G, G1, G2 = factor_pair(2, 3)
    f = gt.GroupFunction(G, {x: 1 for x in G.elements()})
    proj = gt.project_tile(f, G1, G2)
    assert proj == f


def test_project_tile_rejects_non_tiling():
    G, G1, G2 = factor_pair(2, 2)
    f = gt.GroupFunction(G, {(0, 0): 1})
    with pytest.raises(ValidationError):
        gt.project_tile(f, G1, G2)


def test_project_lift_roundtrip_z4xz2():
    G = make_group([4, 2])
    G1 = subgroup_from_generators(G, [(1, 0)])
    G2 = subgroup_from_generators(G, [(2, 0), (0, 1)])
    res = gt.min_support(G, G1, G2)
    # a witness spread over a whole intersection coset collapses back onto
    # the least member of each coset, where it still tiles
    K = subgroup_from_generators(G, [(2, 0)])
    spread = gt.GroupFunction(G, {G.add(x, k): v / K.order
                                  for x, v in res.witness.values.items()
                                  for k in _closure(G, K.generators)})
    assert spread.support_size == K.order * res.S
    proj = gt.project_tile(spread, G1, G2)
    assert proj == res.witness
    # optimal support on G is 2, checked against the brute-force oracle on G
    assert proj.support_size == 2
    oracle = gt.min_support_bruteforce(G, G1, G2)
    assert oracle.S == 2
    for H in (G1, G2):
        cert = gt.tiling_level(proj, H)
        assert isinstance(cert, gt.TilingCertificate) and cert.normalized


def test_multiple_construction_z2_z4():
    G, G1, G2 = factor_pair(2, 4)
    f = gt.multiple_construction(G1, G2)
    assert f.support_size == 4
    assert gt.tiling_level(f, G1).level == 2
    assert gt.tiling_level(f, G2).level == 4


def test_multiple_construction_equal_orders_diagonal():
    G, G1, G2 = factor_pair(2, 2)
    f = gt.multiple_construction(G1, G2)
    assert f.support == ((0, 0), (1, 1))
    assert set(f.values.values()) == {Fraction(2)}


def test_multiple_construction_z3_z6():
    G, G1, G2 = factor_pair(3, 6)
    f = gt.multiple_construction(G1, G2)
    assert f.support_size == 6
    assert gt.tiling_level(f, G1).normalized
    assert gt.tiling_level(f, G2).normalized


def test_multiple_construction_rejects():
    G, G1, G2 = factor_pair(4, 6)
    with pytest.raises(ValidationError, match="divide"):
        gt.multiple_construction(G1, G2)
    G = make_group([4])
    H = subgroup_from_generators(G, [(2,)])
    with pytest.raises(ValidationError, match="direct"):
        gt.multiple_construction(H, H)


def test_min_support_examples():
    G, G1, G2 = factor_pair(3, 6)
    assert gt.min_support(G, G1, G2).S == 6
    G, G1, G2 = factor_pair(3, 5)
    assert gt.min_support(G, G1, G2).S == 7
    G = make_group([2])
    full = subgroup_from_generators(G, [(1,)])
    res = gt.min_support(G, full, full)
    assert res.S == 1
    assert res.witness.values == {(0,): Fraction(2)}


def test_min_support_bruteforce_examples():
    G, G1, G2 = factor_pair(2, 2)
    res = gt.min_support_bruteforce(G, G1, G2)
    assert res.S == 2
    assert res.witness.support == ((0, 0), (1, 1))
    G, G1, G2 = factor_pair(2, 4)
    assert gt.min_support_bruteforce(G, G1, G2).S == 4
    G, G1, G2 = factor_pair(3, 5)
    assert gt.min_support_bruteforce(G, G1, G2).S == 7


def test_min_support_bruteforce_cap():
    G, G1, G2 = factor_pair(5, 8)
    with pytest.raises(CapExceededError):
        gt.min_support_bruteforce(G, G1, G2)


def test_min_support_witness_properties():
    for m, n in [(2, 2), (2, 3), (3, 4), (2, 6), (4, 4)]:
        G, G1, G2 = factor_pair(m, n)
        res = gt.min_support(G, G1, G2)
        assert res.S >= max(G.order // G1.order, G.order // G2.order)
        for H in (G1, G2):
            cert = gt.tiling_level(res.witness, H)
            assert isinstance(cert, gt.TilingCertificate) and cert.normalized


def test_min_support_nested_subgroups():
    # sum of images is a proper subgroup of the quotient: coset decomposition
    G = make_group([8])
    G1 = subgroup_from_generators(G, [(4,)])
    G2 = subgroup_from_generators(G, [(4,)])
    res = gt.min_support(G, G1, G2)
    brute = gt.min_support_bruteforce(G, G1, G2)
    assert res.S == brute.S == 4


def test_common_fundamental_domain_examples():
    G, G1, G2 = factor_pair(2, 2)
    assert gt.common_fundamental_domain(G, G1, G2) == ((0, 0), (1, 1))
    G = make_group([4])
    H = subgroup_from_generators(G, [(2,)])
    assert gt.common_fundamental_domain(G, H, H) == ((0,), (1,))
    G = make_group([9])
    H = subgroup_from_generators(G, [(3,)])
    assert gt.common_fundamental_domain(G, H, H) == ((0,), (1,), (2,))


def test_common_fundamental_domain_rejects_unequal_index():
    G, G1, G2 = factor_pair(2, 4)
    with pytest.raises(ValidationError):
        gt.common_fundamental_domain(G, G1, G2)


def test_matrix_as_cyclic_tile_values():
    f = gt.matrix_as_cyclic_tile(copula.construct_lmr(2, 1))
    assert [int(f((x,))) for x in range(6)] == [1, 0, 0, 1, 2, 2]


def test_group_function_serialization_roundtrip():
    G = make_group([3, 6])
    f = gt.GroupFunction(G, {(0, 0): Fraction(1, 2), (2, 5): 3})
    doc = f.to_json()
    assert doc == {"group": [3, 6],
                   "values": [{"at": [0, 0], "v": "1/2"}, {"at": [2, 5], "v": "3"}]}
    assert gt.GroupFunction.from_json(doc) == f


def _tiling_level_by_table(f, H):
    """The coset-table route: sum f per coset of quotient(G, H); the
    witnesses are the least coset minima with differing sums."""
    red = quotient(f.group, H)
    sums = dict.fromkeys(red.values(), Fraction(0))
    for x, v in f.values.items():
        sums[red[x]] += v
    s0 = sums[f.group.zero]
    for x, s in sums.items():
        if s != s0:
            return gt.TilingFailure(H, f.group.zero, s0, x, s)
    return gt.TilingCertificate(H, s0, s0 == H.order)


def _min_support_by_table(G, G1, G2):
    """The witness of min_support built from element sets and coset tables."""
    e1, e2 = set(_closure(G, G1.generators)), set(_closure(G, G2.generators))
    K = subgroup_from_generators(G, sorted(e1 & e2))
    red = quotient(G, K)
    t1, t2 = sorted({red[g] for g in e1}), sorted({red[g] for g in e2})
    reps = sorted(set(quotient(G, subgroup_from_generators(G, sorted(e1 | e2))).values()))
    plan = copula.min_support_exact(len(t1), len(t2))
    return {red[G.add(r, G.add(t1[i], t2[j]))]: len(e1 & e2) * plan.witness.entries[i][j]
            for r in reps for i, j in plan.pattern.sorted_edges}


def _random_subgroup(rng, G):
    k = len(G.orders)
    gens = [tuple(rng.randrange(d) for d in G.orders) for _ in range(rng.randint(0, k))]
    return subgroup_from_generators(G, gens)


def test_tiling_level_matches_table_route():
    rng = random.Random(11)
    for _ in range(400):
        G = make_group([rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
        H = _random_subgroup(rng, G)
        els = G.elements()
        if rng.random() < 0.5:
            # a tile: one value per coset minimum of a random subgroup, spread
            values = {}
            for rep in sorted(set(quotient(G, H).values())):
                values[rep] = Fraction(rng.randint(1, 3))
        else:
            values = {x: Fraction(rng.randint(0, 3), rng.randint(1, 2))
                      for x in rng.sample(els, rng.randint(0, len(els)))}
        f = gt.GroupFunction(G, values)
        for K in (H, _random_subgroup(rng, G)):
            assert gt.tiling_level(f, K) == _tiling_level_by_table(f, K)


def test_min_support_matches_table_route():
    rng = random.Random(12)
    for _ in range(300):
        G = make_group([rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
        G1, G2 = _random_subgroup(rng, G), _random_subgroup(rng, G)
        if max(G1.order, G2.order) // gt.subgroup_intersection(G, G1, G2).order > 8:
            continue
        assert gt.min_support(G, G1, G2).witness.values == _min_support_by_table(G, G1, G2)


def test_group_commands_never_enumerate(monkeypatch):
    from steintile import abelian, cli

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration on the fast path")

    for target, name in ((abelian, "_closure"), (gt, "_closure"), (abelian, "quotient"),
                         (gt, "quotient"), (abelian.FiniteAbelianGroup, "elements")):
        monkeypatch.setattr(target, name, refuse)
    cases = [("60,60,20", "[[1,0,0],[0,0,4]]", "[[1,0,0],[0,10,0]]"),
             ("6,4", "[[2,0]]", "[[0,1],[3,2]]"),
             ("4,4", "[[1,1]]", "[[1,3]]")]
    for orders, g1, g2 in cases:
        rr = cli.run(["group", "min-support", "--orders", orders, "--g1", g1, "--g2", g2])
        assert rr.exit_code == 0
        for gens in (g1, g2):
            chk = cli.run(["group", "tile-check", "--function",
                           json.dumps(rr.result["witness"]), "--gens", gens])
            assert chk.exit_code == 0 and chk.result["normalized"] is True
    assert rr.result["S"] == 4
    assert cli.run(["group", "cfd", "--orders", "4,4", "--g1", "[[1,1]]",
                    "--g2", "[[1,3]]"]).result["size"] == 4
    big = cli.run(["group", "min-support", "--orders", "60,60,20",
                   "--g1", cases[0][1], "--g2", cases[0][2]])
    assert big.result["S"] == 400
    fn = {"group": [60, 60, 20], "values": [{"at": [0, 0, 0], "v": "1"}]}
    miss = cli.run(["group", "tile-check", "--function", json.dumps(fn),
                    "--gens", cases[0][1]])
    assert miss.result == {"tiles": False, "witness_x": [0, 0, 0], "sum_x": "1",
                           "witness_y": [0, 0, 1], "sum_y": "0"}
    assert cli.run(["group", "cfd", "--orders", "60,60,20", "--g1", "[[1,0,0],[0,1,0]]",
                    "--g2", "[[0,1,0],[1,0,0]]"]).result["size"] == 20
