from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import hecke, partitions, satake, sympoly
from heckelab.partitions import Partition, enumerate_partitions
from heckelab.hecke import (
    HeckeElement,
    adjoint_generator,
    multiply,
    multiply_generators,
    upper_generator,
    verify_lem2,
)
from heckelab.cosets import CosetBudgetError, oracle_multiply
from heckelab.satake import SatakeImage, monomial_coefficients, satake_image
from heckelab.sympoly import SymPoly
from spec import hall_littlewood_p, monomial_symmetric, satake_of_element


def operator_equal(e: HeckeElement, f: HeckeElement) -> bool:
    """Whether e and f act as the same operator: their reduced forms agree."""
    return e.reduced().terms == f.reduced().terms


def test_satake_of_element_examples():
    e = HeckeElement.generator((1, 0), 3)
    assert satake_of_element(e) == monomial_symmetric(Partition((1, 0))).scale(
        Fraction(1, 3)
    )
    ident = HeckeElement.identity(3, 5)
    assert satake_of_element(ident) == SymPoly.one(3)


def test_satake_of_element_matches_oracle_square():
    # the square of the first generator, expressed elementwise
    p = 3
    e = HeckeElement(2, p, {Partition((2, 0)): 1, Partition((1, 1)): p + 1})
    lhs = satake_of_element(e)
    gen = satake_of_element(HeckeElement.generator((1, 0), p))
    assert lhs == gen * gen


def test_expansion_rejects_negative_exponent():
    with pytest.raises(ArithmeticError, match="negative exponent"):
        hecke._peel({(0, -1): 1}, 3)


def test_expansion_detects_a_pivot_that_does_not_clear(monkeypatch):
    # a leading coefficient of 2 leaves -c at the pivot after subtracting
    true_image = hecke.satake_image

    def image_without_unit_lead(a, p):
        img = true_image(a, p)
        return SatakeImage(a=img.a, p=p, integral={**img.integral, tuple(a): 2})

    monkeypatch.setattr(hecke, "satake_image", image_without_unit_lead)
    with pytest.raises(ArithmeticError, match="failed to make progress"):
        hecke._peel({(1, 0): 1}, 3)


def multiply_spec(e: HeckeElement, f: HeckeElement) -> HeckeElement:
    """The product in Fractions: sum c_a c_b p^-(v(a) + v(b)) S_a S_b over the
    scaled images S_a = P_a(x; 1/p), peeled over the S_c and rescaled by p^v(c)."""
    p = e.p

    def scaled(a):
        return hall_littlewood_p(a, Fraction(1, p))

    prod = SymPoly.zero(e.n)
    for a, ca in e.terms.items():
        for b, cb in f.terms.items():
            scale = ca * cb * Fraction(1, p ** (a.v_weight() + b.v_weight()))
            prod = prod + (scaled(a) * scaled(b)).scale(scale)
    residual, out, last = dict(prod.terms), {}, None
    while residual:
        key = max(residual, key=lambda k: (sum(k), k))
        assert last is None or (sum(key), key) < last, "peeling made no progress"
        c = residual[key]
        out[Partition(key)] = c * p ** Partition(key).v_weight()
        for k, v in scaled(key).terms.items():
            residual[k] = residual.get(k, 0) - c * v
            if not residual[k]:
                del residual[k]
        last = sum(key), key
    return HeckeElement(e.n, p, out)


@st.composite
def element_pairs(draw):
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    parts = [a for w in range(4 if n == 4 else 5) for a in enumerate_partitions(n, w)]
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
    terms = st.dictionaries(st.sampled_from(parts), coeffs, min_size=1, max_size=3)
    return HeckeElement(n, p, draw(terms)), HeckeElement(n, p, draw(terms))


@given(element_pairs())
@settings(max_examples=60, deadline=None)
def test_multiply_matches_fraction_spec(pair):
    e, f = pair
    assert multiply(e, f) == multiply_spec(e, f)


def test_generator_grid_builds_pinned_tables():
    # the crosscheck's 49 products at n = 3, p = 3 from cold caches: each
    # monomial product table, tableau table and int image is built once, and
    # a central shift a + (s^n) reuses the tableau sums of a
    caches = (sympoly._monomial_product, satake._tableau_polynomials,
              partitions._tableau_sum, satake.satake_image)
    for cache in caches:
        cache.cache_clear()
    parts = [a for w in range(4) for a in enumerate_partitions(3, w)]
    for a in parts:
        for b in parts:
            hecke.multiply_generators(a, b, 3)
    assert [cache.cache_info().misses for cache in caches] == [49, 23, 59, 23]


def test_central_twist_image():
    # the central coset diag(p, p) is the partition (1, 1): its image is
    # p^-3 x_1 x_2, the identity's image 1 shifted by one central power
    img = satake_of_element(HeckeElement.generator((1, 1), 3))
    assert img == SymPoly(2, {(1, 1): Fraction(1, 27)})
    assert monomial_coefficients(satake_image((1, 1), 3), image=True) == img.terms


def test_identity_multiplication():
    e = HeckeElement.generator((2, 1, 0), 3)
    assert multiply(HeckeElement.identity(3, 3), e) == e
    assert multiply(e, HeckeElement.identity(3, 3)) == e


def test_multiply_matches_hand_example():
    assert multiply_generators((1, 0), (1, 0), 3) == {
        Partition((2, 0)): 1,
        Partition((1, 1)): 4,
    }
    assert multiply_generators((1, 0, 0), (1, 1, 0), 2) == {
        Partition((2, 1, 0)): 1,
        Partition((1, 1, 1)): 7,
    }


def test_cross_oracle_sweep():
    for n, primes in ((2, (2, 3, 5)), (3, (2, 3))):
        parts = [a for w in range(0, 3) for a in enumerate_partitions(n, w)]
        for p in primes:
            for a in parts:
                for b in parts:
                    try:
                        expected = oracle_multiply(a, b, p, budget=200_000)
                    except CosetBudgetError:
                        continue
                    assert multiply_generators(a, b, p) == dict(expected), (a, b, p)


def test_structure_constants_are_counts():
    out = multiply_generators((2, 0, 0), (1, 1, 0), 3)
    assert all(isinstance(v, int) and v >= 0 for v in out.values())


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=20, deadline=None)
def test_multiply_commutative(p, data):
    parts = [a for w in range(0, 4) for a in enumerate_partitions(2, w)]
    coeffs = st.integers(-3, 3)
    e = HeckeElement(
        2, p, {a: Fraction(data.draw(coeffs)) for a in data.draw(st.sets(st.sampled_from(parts), min_size=1, max_size=2))}
    )
    f = HeckeElement(
        2, p, {a: Fraction(data.draw(coeffs)) for a in data.draw(st.sets(st.sampled_from(parts), min_size=1, max_size=2))}
    )
    assert multiply(e, f) == multiply(f, e)


def test_reduced_and_operator_equality():
    e = HeckeElement.generator((2, 1, 1), 3)
    f = HeckeElement.generator((1, 0, 0), 3)
    assert e.reduced().terms == f.terms
    assert operator_equal(e, f)
    assert not operator_equal(e, HeckeElement.generator((1, 1, 0), 3))


# -- the adjoint-product decomposition ------------------------------------------------


def test_lem2_rank_two():
    for p in (2, 3, 5):
        rep = verify_lem2(2, 1, p)
        assert rep.support_ok and rep.duality_ok and rep.functional_equation_ok
        assert rep.c[0] == 1
        assert rep.c[1] == Fraction(p + 1, p)


def test_lem2_adjoint_is_reversed_generator():
    g = upper_generator(2, 3, 5)
    adj = adjoint_generator(2, 3, 5)
    assert list(adj.terms) == [Partition((2, 2, 0))]
    prod = multiply(g, adj)
    assert all(c >= 0 for c in prod.terms.values())


def test_lem2_leading_coefficient_is_one():
    for n, j, p in ((2, 2, 3), (3, 1, 2), (3, 2, 2), (4, 1, 3)):
        rep = verify_lem2(n, j, p)
        assert rep.support_ok, (n, j, p)
        assert rep.c[0] == 1, (n, j, p)


def test_lem2_tail_parts_bound():
    # parts 1..n-1 of every support partition stay >= j
    for n, j, p in ((3, 2, 3), (4, 2, 2)):
        rep = verify_lem2(n, j, p)
        assert rep.tail_parts_ok


def test_lem2_coefficients_bounded_on_prime_ladder():
    # |c_ij| stays below a fixed constant as p grows (limit behaviour)
    for n, j in ((3, 1), (3, 2), (4, 1), (4, 2)):
        for p in (2, 3, 5, 101, 1009):
            rep = verify_lem2(n, j, p)
            assert rep.support_ok, (n, j, p)
            assert all(abs(c) <= 4 for c in rep.c.values()), (n, j, p, rep.c)


def test_lem2_central_shift_identity():
    # the two displayed forms name the same operator
    for j, i, n in ((2, 1, 4), (3, 2, 4)):
        a = Partition((2 * j - i,) + (j,) * (n - 2) + (i,))
        b = Partition((2 * j - 2 * i,) + (j - i,) * (n - 2) + (0,))
        assert operator_equal(HeckeElement.generator(a, 3), HeckeElement.generator(b, 3))


# -- input checks that python -O must not strip ------------------------------------


def test_element_rejects_term_of_other_rank():
    with pytest.raises(ValueError):
        HeckeElement(n=2, p=3, terms={(1, 0, 0): 1})


def test_sum_rejects_other_prime():
    with pytest.raises(ValueError):
        HeckeElement.generator((1, 0), 3) + HeckeElement.generator((1, 0), 5)


def test_multiply_rejects_other_prime():
    with pytest.raises(ValueError):
        multiply(HeckeElement.generator((1, 0), 3), HeckeElement.generator((1, 0), 5))
