from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import satake
from heckelab.partitions import Partition, _tableau_sum, dominance_leq, enumerate_partitions
from heckelab.satake import (
    degree_via_satake,
    satake_image,
    schur_limit_defect,
    trivial_point,
    verify_basic,
)
from heckelab.sympoly import hall_littlewood_p, monomial_symmetric, n_weight
from heckelab.cosets import coset_decomposition


def test_hand_images_rank_two():
    img = satake_image(Partition((1, 0)), 7)
    assert img.poly.scale(7) == monomial_symmetric(Partition((1, 0)))
    img = satake_image(Partition((1, 1)), 7)
    assert img.poly.scale(7**3) == monomial_symmetric(Partition((1, 1)))


def test_identity_image():
    for n in (2, 3, 4):
        img = satake_image(Partition((0,) * n), 5)
        assert img.poly == monomial_symmetric(Partition((0,) * n))
        assert img.scaled == img.poly


def test_scaled_image_two_zero():
    img = satake_image(Partition((2, 0)), 3)
    assert img.scaled.coefficient((2, 0)) == 1
    assert img.scaled.coefficient((1, 1)) == 1 - Fraction(1, 3)


def test_rejects_negative_parts():
    with pytest.raises(ValueError):
        satake_image(Partition((1, -1)), 3)


@pytest.mark.parametrize("p", [1, 4, 6, 25])
def test_rejects_composite_p(p):
    with pytest.raises(ValueError, match="prime"):
        satake_image(Partition((1, 0)), p)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda table: {**table, (1, 0): (1,)},  # a term of wrong degree
        lambda table: {b: tuple(2 * c for c in cs) for b, cs in table.items()},  # lead 2
        # + t^2 at (1, 1), above n(1, 1) - n(2, 0) = 1: the coefficient 1/3 on m'
        lambda table: {**table, (1, 1): table[(1, 1)] + (1,)},
    ],
    ids=("degree", "leading", "denominator"),
)
def test_corrupted_image_raises_arithmetic_error(monkeypatch, corrupt):
    # explicit raises, not asserts, so the checks survive python -O
    honest = satake._tableau_polynomials
    monkeypatch.setattr(satake, "_tableau_polynomials", lambda a: corrupt(honest(a)))
    with pytest.raises(ArithmeticError):
        satake_image.__wrapped__(Partition((2, 0)), 3)


@given(st.integers(1, 4), st.integers(0, 6), st.sampled_from([2, 3, 5, 7, 101]))
@settings(max_examples=60, deadline=None)
def test_integral_image_is_rescaled_hall_littlewood(n, weight, p):
    # R_a on m'_b is p^(n(b) - n(a)) times the coefficient of m_b in P_a(x; 1/p)
    for a in enumerate_partitions(n, weight):
        img = satake_image(a, p)
        spec = hall_littlewood_p(a, Fraction(1, p))
        assert set(img.integral) == set(spec.terms)
        for b, c in spec.terms.items():
            assert type(img.integral[b]) is int
            assert img.integral[b] == c * p ** (n_weight(b) - n_weight(a)), (a, b, p)


def test_non_integral_degree_raises_arithmetic_error(monkeypatch):
    a = Partition((1, 0))
    # the degree 4 of T_(1,0) at p = 3 becomes 4/3
    bent = satake.SatakeImage(a=a, p=3, integral={(1, 0): Fraction(1, 3)})
    monkeypatch.setattr(satake, "satake_image", lambda a, p: bent)
    with pytest.raises(ArithmeticError):
        degree_via_satake(a, 3)


def test_central_shift_reuses_the_table_of_the_unshifted_shape():
    # P_(c + (s^n)) = (x_1...x_n)^s P_c: the shifted table holds the tableau
    # sums of the full shape at every content below it
    for n in range(1, 6):
        for w in range(9):
            for a in enumerate_partitions(n, w):
                if a[-1]:
                    shape = tuple(x for x in a if x)
                    assert satake._tableau_polynomials(a) == {
                        tuple(b): _tableau_sum(shape, tuple(x for x in b if x))
                        for b in enumerate_partitions(n, w) if dominance_leq(b, a)
                    }, a


def test_verify_basic_examples():
    rep = verify_basic(Partition((2, 0)), 3)
    assert rep.ok and rep.support_lex_ok
    assert set(rep.coefficients) == {(2, 0), (1, 1)}

    rep = verify_basic(Partition((1, 1, 1)), 5)
    assert rep.coefficients == {(1, 1, 1): Fraction(1)}

    rep = verify_basic(Partition((2, 1, 0)), 5)
    assert set(rep.coefficients) <= {(2, 1, 0), (1, 1, 1)}
    assert rep.ok


def test_verify_basic_sweep():
    for n in (2, 3, 4):
        for total in range(0, 9):
            for a in enumerate_partitions(n, total):
                for p in (2, 3, 5, 101):
                    rep = verify_basic(a, p)
                    assert rep.ok, (a, p)
                    assert rep.support_lex_ok, (a, p)


def test_schur_limit_defect_examples():
    assert schur_limit_defect(Partition((1, 0)), 11) == 0
    assert schur_limit_defect(Partition((0, 0, 0)), 7) == 0
    assert schur_limit_defect(Partition((2, 0)), 7) == Fraction(1, 7)


def test_schur_limit_defect_shrinks():
    for a in (Partition((2, 1, 0)), Partition((3, 0, 0)), Partition((4, 2, 0))):
        defects = [schur_limit_defect(a, p) for p in (11, 101, 1009)]
        assert defects[0] > defects[1] > defects[2] > 0
        scaled = [d * p for d, p in zip(defects, (11, 101, 1009))]
        # defect * p stays within a narrow band: the leading 1/p term dominates
        assert max(scaled) <= 2 * min(scaled)


def test_schur_limit_defect_vanishes_for_central_shifts():
    # central shifts of the trivial and first-generator shapes have exact images
    assert schur_limit_defect(Partition((2, 2)), 7) == 0
    assert schur_limit_defect(Partition((2, 1, 1)), 7) == 0


def test_degree_consistency_against_cosets():
    for n, primes in ((2, (2, 3, 5)), (3, (2, 3, 5))):
        for total in range(0, 4):
            for a in enumerate_partitions(n, total):
                for p in primes:
                    assert (
                        degree_via_satake(a, p)
                        == coset_decomposition(a, p).degree
                    ), (a, p)


def test_trivial_point_shape():
    assert trivial_point(2, 3) == (Fraction(9), Fraction(3))
    assert degree_via_satake(Partition((1, 0)), 3) == 4
