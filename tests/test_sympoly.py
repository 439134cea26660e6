import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckelab import partitions, sympoly
from heckelab.partitions import Partition, enumerate_partitions, kostka_number
from heckelab.sympoly import SymPoly, denominators_are_powers_of, evaluate, symmetrize_alternant
from spec import coefficient, expanded, hall_littlewood_p, monomial_symmetric, schur


def apply_permutation(dense, perm):
    return {tuple(k[perm.index(i)] for i in range(len(perm))): c for k, c in dense.items()}


partitions_small = st.builds(
    Partition,
    st.lists(st.integers(0, 4), min_size=2, max_size=4),
)


# -- monomial basis -------------------------------------------------------------


def test_monomial_examples():
    m = monomial_symmetric(Partition((1, 0)))
    assert expanded(m) == {(1, 0): 1, (0, 1): 1}
    m = monomial_symmetric(Partition((1, 1)))
    assert expanded(m) == {(1, 1): 1}
    m = monomial_symmetric(Partition((2, 1, 0)))
    assert len(expanded(m)) == 6


def test_multiply_expansion():
    m10 = monomial_symmetric(Partition((1, 0)))
    prod = m10 * m10
    assert coefficient(prod, (2, 0)) == 1
    assert coefficient(prod, (1, 1)) == 2
    one = SymPoly.one(2)
    assert prod * one == prod


@given(partitions_small, partitions_small, st.randoms())
@settings(max_examples=40, deadline=None)
def test_multiply_commutative_and_symmetric(a, b, rnd):
    if a.n != b.n:
        b = Partition(tuple(b)[: a.n] + (0,) * max(0, a.n - b.n))
    f = monomial_symmetric(a)
    g = monomial_symmetric(b)
    prod = f * g
    assert prod == g * f
    dense = expanded(prod)
    perm = list(range(a.n))
    rnd.shuffle(perm)
    assert apply_permutation(dense, tuple(perm)) == dense


def dense_product_spec(f, g):
    """Product of the expanded (dense Laurent) polynomials, monomial by
    monomial, collapsed back to orbit storage."""
    dense = {}
    for ka, ca in expanded(f).items():
        for kb, cb in expanded(g).items():
            k = tuple(map(add, ka, kb))
            dense[k] = dense.get(k, 0) + ca * cb
    return SymPoly.from_expanded(f.n, {k: c for k, c in dense.items() if c})


@st.composite
def laurent_pairs(draw):
    n = draw(st.integers(1, 5))
    keys = st.lists(st.integers(-2, 4), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v, reverse=True))
    )
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    polys = st.dictionaries(keys, coeffs, max_size=3).map(lambda d: SymPoly(n, d))
    return draw(polys), draw(polys)


REPEATED_PARTS = (
    SymPoly(4, {(2, 2, 0, 0): Fraction(1), (1, 1, -1, -1): Fraction(-3, 2)}),
    SymPoly(4, {(3, 3, 3, -2): Fraction(2), (1, 1, 0, 0): Fraction(1), (0, 0, 0, 0): Fraction(5)}),
)


@given(laurent_pairs())
@example(REPEATED_PARTS)
@settings(max_examples=40, deadline=None)
def test_multiply_matches_dense_laurent_spec(pair):
    f, g = pair
    assert f * g == dense_product_spec(f, g)


def test_multiply_associative():
    polys = [
        monomial_symmetric(Partition((2, 0, 0))),
        monomial_symmetric(Partition((1, 1, 0))),
        schur(Partition((2, 1, 0))),
    ]
    f, g, h = polys
    assert (f * g) * h == f * (g * h)


# -- Schur polynomials -------------------------------------------------------------


def test_schur_row_shape_is_complete_homogeneous():
    # single-row shapes sum every monomial of the given degree
    for n, j in ((2, 3), (3, 2), (4, 2)):
        s = schur(Partition((j,) + (0,) * (n - 1)))
        dense = expanded(s)
        assert all(c == 1 for c in dense.values())
        assert len(dense) == len(
            [k for k in dense]
        )
        from math import comb

        assert len(dense) == comb(j + n - 1, n - 1)


def test_schur_examples():
    assert expanded(schur(Partition((1, 1)))) == {(1, 1): 1}
    s = schur(Partition((2, 1, 0)))
    assert coefficient(s, (1, 1, 1)) == kostka_number(
        Partition((2, 1)), Partition((1, 1, 1))
    )


def test_schur_kostka_coefficients():
    for n in (2, 3, 4):
        for total in range(0, 7 if n < 4 else 6):
            for a in enumerate_partitions(n, total):
                s = schur(a)
                for b in enumerate_partitions(n, total):
                    assert coefficient(s, b) == kostka_number(a, b)


def test_pieri_rule_two_variables():
    s10 = schur(Partition((1, 0)))
    assert s10 * s10 == schur(Partition((2, 0))) + schur(Partition((1, 1)))


# -- the alternating symmetrizer -----------------------------------------------------


def test_alternant_hand_examples():
    t = Fraction(1, 5)
    assert symmetrize_alternant(Partition((1, 0)), t) == monomial_symmetric(
        Partition((1, 0))
    )
    out = symmetrize_alternant(Partition((1, 1)), t)
    assert out == monomial_symmetric(Partition((1, 1))).scale(1 + t)
    out = symmetrize_alternant(Partition((2, 0)), t)
    assert coefficient(out, (2, 0)) == 1
    assert coefficient(out, (1, 1)) == 1 - t


def test_alternant_at_zero_is_schur():
    for n in (2, 3):
        for total in range(0, 6):
            for a in enumerate_partitions(n, total):
                assert symmetrize_alternant(a, 0) == schur(a)


def test_schur_two_routes_agree():
    # tableau route (schur = hall_littlewood_p at t = 0) against the bialternant
    # route (the alternant at t = 0, where v_a(0) = 1)
    for n in (2, 3, 4):
        for total in range(0, 7 if n < 4 else 5):
            for a in enumerate_partitions(n, total):
                assert schur(a) == symmetrize_alternant(a, 0), a


# -- Hall-Littlewood polynomials by the tableau formula ---------------------------


def v_factor(a, t):
    """Spec normalisation v_a(t): over each distinct entry of a, zeros included,
    with multiplicity m, the product of (1 - t^j)/(1 - t) for j = 1..m."""
    out = Fraction(1)
    for mult in Counter(a).values():
        for j in range(1, mult + 1):
            out *= (1 - t**j) / (1 - t)
    return out


@pytest.mark.parametrize(
    "ranks, primes, expected_cases",
    [((1, 2, 3, 4), (2, 3, 5), 156), ((5,), (2, 7), 38)],
    ids=("n1-4", "n5"),
)
def test_hall_littlewood_matches_alternant_spec(ranks, primes, expected_cases):
    cases = 0
    for n in ranks:
        for total in range(0, 6):
            for a in enumerate_partitions(n, total):
                for p in primes:
                    t = Fraction(1, p)
                    spec = symmetrize_alternant(a, t)
                    assert hall_littlewood_p(a, t).scale(v_factor(a, t)) == spec, (a, p)
                    cases += 1
    assert cases == expected_cases


def test_hall_littlewood_hand_coefficient():
    # tableaux 12/3 and 13/2 carry psi = 1 - t and 1 - t^2; swapping the
    # strip condition of (5.8') makes both weights vanish
    t = Fraction(1, 3)
    p = hall_littlewood_p(Partition((2, 1, 0)), t)
    assert coefficient(p, (1, 1, 1)) == (1 - t) * (2 + t) == Fraction(14, 9)
    assert coefficient(p, (2, 1, 0)) == 1


def test_kostka_stays_integer_after_fractional_zero():
    # t = 0 and Fraction(0) hash alike; the recursion's cache keeps them apart
    partitions._tableau_sum.cache_clear()
    assert hall_littlewood_p(Partition((2, 1, 0)), Fraction(0)) == schur(Partition((2, 1, 0)))
    assert type(kostka_number.__wrapped__(Partition((2, 1, 0)), Partition((1, 1, 1)))) is int


@given(partitions_small, st.integers(2, 7), st.randoms())
@settings(max_examples=30, deadline=None)
def test_alternant_symmetric_and_homogeneous(a, p, rnd):
    out = symmetrize_alternant(a, Fraction(1, p))
    if out:
        assert {sum(k) for k in out.terms} == {a.weight}
    dense = expanded(out)
    perm = list(range(a.n))
    rnd.shuffle(perm)
    assert apply_permutation(dense, tuple(perm)) == dense


def test_denominator_filter():
    terms = {(1, 0): Fraction(3, 8)}
    assert denominators_are_powers_of(terms, 2)
    assert not denominators_are_powers_of(terms, 3)


def test_exact_evaluation():
    s = schur(Partition((2, 0)))
    assert evaluate(s.terms, [Fraction(2), Fraction(3)]) == 4 + 6 + 9
    val = evaluate(s.terms, [1.0, 2.0])
    assert abs(val - 7) < 1e-12


def test_evaluate_negative_exponents():
    laurent = {(0, -1): Fraction(1)}
    assert evaluate(laurent, [2, 4]) == Fraction(1, 2) + Fraction(1, 4)


# -- input checks that python -O must not strip ------------------------------------


def test_rejects_non_canonical_orbit_key():
    with pytest.raises(ValueError):
        SymPoly(2, {(0, 1): Fraction(1)})


def test_sum_rejects_other_number_of_variables():
    with pytest.raises(ValueError):
        SymPoly.one(2) + SymPoly.one(3)


def test_product_rejects_other_number_of_variables():
    with pytest.raises(ValueError):
        SymPoly.one(2) * SymPoly.one(3)


def test_evaluate_rejects_point_of_other_length():
    with pytest.raises(ValueError):
        evaluate(SymPoly.one(2).terms, [1, 2, 3])


@given(st.lists(st.integers(-2, 3), min_size=1, max_size=7))
@example([1, 1, 0, 0, 0, 0, 0])
@example([2, 2, 2, 2, 2, 2, 2])
def test_orbit_lists_distinct_permutations_in_order(entries):
    key = tuple(sorted(entries, reverse=True))
    assert sympoly._orbit(key) == tuple(sorted(set(permutations(key))))
