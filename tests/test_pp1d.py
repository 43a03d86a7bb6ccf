import random
from fractions import Fraction as F

import pytest

from steintile import copula, make_group, pp1d
from steintile import group_tiling as gt
from steintile.errors import ValidationError


def test_indicator():
    f = pp1d.indicator(0, 1)
    assert f.mass() == 1
    assert f.value(F(1, 2)) == 1 and f.value(1) == 0 and f.value(0) == 1
    g = pp1d.indicator(F(1, 2), F(3, 2))
    assert g.mass() == 1 and g.breakpoints == (F(1, 2), F(3, 2))
    with pytest.raises(ValidationError):
        pp1d.indicator(1, 1)


def test_linear_ops():
    f = pp1d.add(pp1d.indicator(0, 1), pp1d.indicator(F(1, 2), F(3, 2)))
    assert f.value(F(3, 4)) == 2
    assert f.value(F(1, 4)) == 1
    assert f.value(F(5, 4)) == 1
    assert pp1d.scale(0, f).is_zero
    t = pp1d.translate(pp1d.indicator(0, 1), F(1, 3))
    assert t.breakpoints == (F(1, 3), F(4, 3))
    assert t.value(F(1, 3)) == 1 and t.value(F(1, 4)) == 0


def test_canonical_form():
    # adjacent equal pieces merge; zero ends are stripped
    f = pp1d.RationalPiecewisePoly([0, 1, 2, 3], [(), (F(1),), (F(1),)])
    assert f.breakpoints == (1, 3)
    assert f.pieces == ((F(1),),)
    z = pp1d.RationalPiecewisePoly([0, 1], [()])
    assert z.is_zero and z == pp1d.ZERO


def test_convolve_tent():
    tent = pp1d.convolve(pp1d.indicator(0, 1), pp1d.indicator(0, 1))
    assert tent.breakpoints == (0, 1, 2)
    assert tent.value(1) == 1
    assert tent.value(F(1, 2)) == F(1, 2)
    assert tent.value(F(3, 2)) == F(1, 2)
    assert tent.mass() == 1


def test_convolve_trapezoid():
    trap = pp1d.convolve(pp1d.indicator(0, 1), pp1d.indicator(0, F(1, 2)))
    for x in (F(1, 2), F(3, 4), F(99, 100)):
        assert trap.value(x) == F(1, 2)
    assert trap.value(F(1, 4)) == F(1, 4)


def test_convolve_mass():
    f = pp1d.indicator(0, 1)
    g = pp1d.scale(F(2, 3), pp1d.indicator(0, 1))
    assert pp1d.convolve(f, g).mass() == F(2, 3)


def test_fold_examples():
    tent = pp1d.convolve(pp1d.indicator(0, 1), pp1d.indicator(0, 1))
    folded = pp1d.fold(tent, 1)
    assert folded.breakpoints == (0, 1) and folded.pieces == ((F(1),),)
    assert pp1d.fold(pp1d.indicator(0, 1), F(1, 2)).pieces == ((F(2),),)
    two = pp1d.fold(pp1d.indicator(0, 1), F(2, 3))
    assert two.breakpoints == (0, F(1, 3), F(2, 3))
    assert two.pieces == ((F(2),), (F(1),))
    with pytest.raises(ValidationError):
        pp1d.fold(tent, 0)


def test_tiling_level_examples():
    c = pp1d.convolve(pp1d.indicator(0, 1), pp1d.indicator(0, F(2, 3)))
    r1 = pp1d.tiling_level_1d(c, 1)
    assert isinstance(r1, pp1d.TilingLevel1D) and r1.level == F(2, 3)
    r2 = pp1d.tiling_level_1d(c, F(2, 3))
    assert isinstance(r2, pp1d.TilingLevel1D) and r2.level == 1
    r3 = pp1d.tiling_level_1d(pp1d.indicator(0, 1), F(2, 3))
    assert isinstance(r3, pp1d.TilingFailure1D)
    assert r3.interval == (F(1, 3), F(2, 3))


def test_support_stats():
    tent = pp1d.convolve(pp1d.indicator(0, 1), pp1d.indicator(0, 1))
    st = pp1d.support_stats(tent)
    assert (st.measure, st.diameter, st.hull) == (2, 2, (0, 2))
    z = pp1d.support_stats(pp1d.ZERO)
    assert (z.measure, z.diameter, z.hull) == (0, 0, None)
    # interior zero piece is not counted in the measure but spans the hull
    gappy = pp1d.from_segments([(0, 1, (F(1),)), (2, 3, (F(1),))])
    st = pp1d.support_stats(gappy)
    assert st.measure == 2 and st.diameter == 3


def test_convolution_tile():
    f, _ = pp1d.convolution_tile([1, F(2, 3)])
    st = pp1d.support_stats(f)
    assert st.measure == F(5, 3)
    assert pp1d.tiling_level_1d(f, 1).level == F(2, 3)
    assert pp1d.tiling_level_1d(f, F(2, 3)).level == 1
    tri, _ = pp1d.convolution_tile([1, 1, 1])
    assert max(len(p) for p in tri.pieces) == 3  # quadratic pieces
    assert pp1d.tiling_level_1d(tri, 1).level == 1


def test_convolution_tile_returns_its_verified_levels():
    lams = [F(3, 2), 1, F(3, 2), F(5, 7)]
    f, levels = pp1d.convolution_tile(lams)
    assert levels == tuple(pp1d.tiling_level_1d(f, lam) for lam in lams)
    assert [res.level for res in levels] == [F(15, 14), F(45, 28), F(15, 14), F(9, 4)]


def test_discrete_to_continuous_staircase():
    f = gt.matrix_as_cyclic_tile(copula.construct_lmr(2, 1))
    Fc = gt.discrete_to_continuous(f, 2, 3)
    st = pp1d.support_stats(Fc)
    assert st.measure == 4 and st.diameter == 6
    assert pp1d.tiling_level_1d(Fc, 2).level == 3
    assert pp1d.tiling_level_1d(Fc, 3).level == 2


def test_discrete_to_continuous_trivial_row():
    G = make_group([5])
    f = gt.GroupFunction(G, {(x,): 1 for x in range(5)})
    Fc = gt.discrete_to_continuous(f, 1, 5)
    assert Fc == pp1d.indicator(0, 5)


def test_discrete_to_continuous_one_less_than_convolution():
    f = gt.matrix_as_cyclic_tile(copula.construct_lmr(3, 1))
    Fc = gt.discrete_to_continuous(f, 3, 4)
    conv, _ = pp1d.convolution_tile([3, 4])
    assert pp1d.support_stats(Fc).measure == 6
    assert pp1d.support_stats(conv).measure == 7


def test_discrete_to_continuous_rejects():
    G = make_group([6])
    f = gt.GroupFunction(G, {(0,): 1})
    with pytest.raises(ValidationError):
        gt.discrete_to_continuous(f, 2, 3)  # does not tile
    with pytest.raises(ValidationError):
        gt.discrete_to_continuous(f, 2, 4)  # gcd != 1


@pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (4, 1), (4, 2), (4, 3)])
def test_discrete_to_continuous_staircase_family(m, k):
    n = k * m + 1
    f = gt.matrix_as_cyclic_tile(copula.construct_lmr(m, k))
    Fc = gt.discrete_to_continuous(f, m, n)
    assert pp1d.support_stats(Fc).measure == f.support_size == (k + 1) * m
    assert pp1d.tiling_level_1d(Fc, m).level == n
    assert pp1d.tiling_level_1d(Fc, n).level == m


def test_steinhaus_lb():
    assert pp1d.steinhaus_lb(F(2, 3)) == F(4, 3)
    assert pp1d.steinhaus_lb(F(1, 2)) == 1
    assert pp1d.steinhaus_lb(F(9, 10)) == F(9, 5)
    with pytest.raises(ValidationError):
        pp1d.steinhaus_lb(F(3, 2))


def _random_poly(rng, max_deg=2):
    return tuple(F(rng.randrange(-6, 7), rng.randrange(1, 4))
                 for _ in range(rng.randrange(0, max_deg + 1) + 1))


def _random_pp(rng, nonneg=False):
    cuts = sorted({F(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(rng.randrange(2, 5))})
    while len(cuts) < 2:
        cuts.append((cuts[0] if cuts else F(0)) + 1)
    if nonneg:
        pieces = [(F(rng.randrange(1, 7), rng.randrange(1, 4)),) for _ in range(len(cuts) - 1)]
    else:
        pieces = [_random_poly(rng) for _ in range(len(cuts) - 1)]
    return pp1d.RationalPiecewisePoly(cuts, pieces)


def test_random_mass_multiplicativity():
    rng = random.Random(11)
    for _ in range(100):
        f, g = _random_pp(rng), _random_pp(rng)
        assert pp1d.convolve(f, g).mass() == f.mass() * g.mass()


def test_random_fold_mass_preservation():
    rng = random.Random(12)
    lams = [F(1, 3), F(1, 2), F(1), F(5, 4)]
    for i in range(100):
        f = _random_pp(rng)
        assert pp1d.fold(f, lams[i % 4]).mass() == f.mass()


def test_random_tiling_level_is_mass_over_lambda():
    rng = random.Random(13)
    lams = [F(1, 3), F(1, 2), F(1), F(5, 4)]
    for i in range(100):
        lam = lams[i % 4]
        f = pp1d.convolve(_random_pp(rng), pp1d.indicator(0, lam))
        res = pp1d.tiling_level_1d(f, lam)
        assert isinstance(res, pp1d.TilingLevel1D)
        assert res.level == f.mass() / lam


def test_random_titchmarsh_diameter_additivity():
    rng = random.Random(14)
    for _ in range(100):
        f, g = _random_pp(rng, nonneg=True), _random_pp(rng, nonneg=True)
        df = pp1d.support_stats(f).diameter
        dg = pp1d.support_stats(g).diameter
        assert pp1d.support_stats(pp1d.convolve(f, g)).diameter == df + dg


def test_serialization_roundtrip():
    f, _ = pp1d.convolution_tile([1, F(2, 3)])
    assert pp1d.RationalPiecewisePoly.from_json(f.to_json()) == f
    doc = pp1d.indicator(0, 1).to_json()
    assert doc == [{"from": "0", "to": "1", "coeffs": ["1"]}]


def test_sample_csv():
    csv = pp1d.sample_csv(pp1d.indicator(0, 1), per_unit=2)
    assert csv.splitlines() == ["x,value", "0,1", "1/2,1", "1,0"]
