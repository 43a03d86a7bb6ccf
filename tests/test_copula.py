import math

import pytest

from steintile import copula
from steintile.errors import CapExceededError, ValidationError


def ints(mat):
    return [[int(v) for v in row] for row in mat.entries]


def test_validate_accepts_scaled_permutation():
    m = copula.validate([[2, 0], [0, 2]], 2, 2)
    assert m.support_size == 2


def test_validate_rejects_bad_row():
    with pytest.raises(ValidationError, match="row 0"):
        copula.validate([[1, 2], [2, 1]], 2, 2)
    with pytest.raises(ValidationError, match="negative"):
        copula.validate([[3, -1], [-1, 3]], 2, 2)
    with pytest.raises(ValidationError, match="column 0"):
        copula.validate([[2, 0], [1, 1]], 2, 2)


def test_validate_accepts_staircase():
    assert copula.validate([[1, 2, 0], [1, 0, 2]], 2, 3).support_size == 4


def test_construct_lmr_matrices():
    assert ints(copula.construct_lmr(2, 1)) == [[1, 2, 0], [1, 0, 2]]
    assert ints(copula.construct_lmr(3, 1)) == [[1, 3, 0, 0], [1, 0, 3, 0], [1, 0, 0, 3]]
    assert ints(copula.construct_lmr(2, 2)) == [[1, 2, 2, 0, 0], [1, 0, 0, 2, 2]]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_construct_lmr_support(m, k):
    mat = copula.construct_lmr(m, k)
    assert mat.support_size == (k + 1) * m


def test_construct_lmr_rejects():
    with pytest.raises(ValidationError):
        copula.construct_lmr(1, 1)
    with pytest.raises(ValidationError):
        copula.construct_lmr(3, 0)


def test_construct_nw_blocks_examples():
    assert ints(copula.construct_nw_blocks(4, 6)) == [
        [4, 2, 0, 0, 0, 0],
        [0, 2, 4, 0, 0, 0],
        [0, 0, 0, 4, 2, 0],
        [0, 0, 0, 0, 2, 4],
    ]
    assert copula.construct_nw_blocks(3, 5).support_size == 7
    assert ints(copula.construct_nw_blocks(3, 6)) == [
        [3, 3, 0, 0, 0, 0],
        [0, 0, 3, 3, 0, 0],
        [0, 0, 0, 0, 3, 3],
    ]


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("n", range(1, 8))
def test_construct_nw_blocks_support_formula(m, n):
    assert copula.construct_nw_blocks(m, n).support_size == m + n - math.gcd(m, n)


def test_transportation_feasible_examples():
    diag = copula.SupportPattern(2, 2, frozenset({(0, 0), (1, 1)}))
    res = copula.transportation_feasible(diag, 2, 2)
    assert res.feasible
    assert ints(res.witness) == [[2, 0], [0, 2]]

    single = copula.SupportPattern(2, 2, frozenset({(0, 0)}))
    assert not copula.transportation_feasible(single)

    lmr_pat = copula.construct_lmr(2, 1).support_pattern()
    assert copula.transportation_feasible(lmr_pat).feasible


def test_support_lower_bound():
    assert copula.support_lower_bound(3, 7) == 9
    assert copula.support_lower_bound(4, 6) == 8
    assert copula.support_lower_bound(5, 5) == 5


def test_min_support_exact_values():
    assert copula.min_support_exact(3, 6).S == 6
    assert copula.min_support_exact(3, 7).S == 9
    assert copula.min_support_exact(3, 5).S == 7


def test_min_support_cap():
    with pytest.raises(CapExceededError):
        copula.min_support_exact(9, 9)
    assert copula.min_support_exact(2, 10, cap=10).S == 10


def test_min_support_witnesses_validate():
    for m in range(1, 6):
        for n in range(1, 6):
            res = copula.min_support_exact(m, n)
            copula.validate(res.witness.entries, m, n)
            assert res.witness.support_size == res.S
            assert res.pattern.size == res.S
            assert res.S >= copula.support_lower_bound(m, n)
            assert res.S <= m + n - math.gcd(m, n)


def test_min_support_symmetry():
    for m, n in [(2, 5), (3, 4), (4, 6), (5, 3)]:
        assert copula.min_support_exact(m, n).S == copula.min_support_exact(n, m).S


def test_min_support_exact_equals_search():
    for m in range(1, 7):
        for n in range(1, 7):
            assert copula.min_support_exact(m, n).S == copula.min_support_search(m, n).S


def test_min_support_exact_witness_attains_formula():
    for m in range(1, 41):
        for n in range(1, 41):
            res = copula.min_support_exact(m, n, cap=40)
            copula.validate(res.witness.entries, m, n)
            assert res.S == m + n - math.gcd(m, n)
            assert res.witness.support_size == res.S
            assert res.pattern == res.witness.support_pattern()


def test_min_support_exact_single_row_or_column():
    for m, n in [(1, 1), (1, 9), (9, 1), (1, 50)]:
        res = copula.min_support_exact(m, n)
        assert res.S == m * n
        assert all(v == 1 for row in res.witness.entries for v in row)


def test_witness_deterministic():
    a = copula.min_support_exact(3, 5)
    b = copula.min_support_exact(3, 5)
    assert a.pattern == b.pattern
    assert a.witness.entries == b.witness.entries


def test_matrix_serialization():
    mat = copula.construct_lmr(2, 1)
    assert mat.to_json()["entries"] == [["1", "2", "0"], ["1", "0", "2"]]
    assert mat.to_csv() == "1,2,0\n1,0,2"


def test_validate_reports_first_offending_margin_exactly():
    from fractions import Fraction
    third = Fraction(1, 3)
    with pytest.raises(ValidationError, match=r"^row 1 sums to 5/3, expected 2$"):
        copula.validate([[1, 1], [third, 4 * third]], 2, 2)
    with pytest.raises(ValidationError, match=r"^column 1 sums to 7/3, expected 2$"):
        copula.validate([[1, 2 * third, 4 * third], [1, 5 * third, third]], 2, 3)
    with pytest.raises(ValidationError, match=r"^entry \(0,1\) is negative: -1/2$"):
        copula.validate([[Fraction(5, 2), Fraction(-1, 2)], [1, 1]], 2, 2)
    mat = copula.validate([[third, 2 * third + 1], [Fraction(5, 3), third]], 2, 2)
    assert all(isinstance(v, Fraction) for row in mat.entries for v in row)
    assert mat.entries[0][0] == third
