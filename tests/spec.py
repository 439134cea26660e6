"""Spec polynomials the tests hold the Satake route to, as SymPolys.

hall_littlewood_p evaluates the tableau formula of Macdonald III (5.11')
coefficient by coefficient at the given t, and satake_of_element sums
p^{-v(a)} P_a(x; 1/p) over an element's terms; neither reads the int
images R_a.
"""

from fractions import Fraction
from functools import lru_cache

from heckelab.hecke import HeckeElement
from heckelab.partitions import Partition, dominance_leq, enumerate_partitions, tableau_sum
from heckelab.sympoly import SymPoly, _orbit


def monomial_symmetric(a: Partition) -> SymPoly:
    """Sum of x^b over the distinct permutations b of a."""
    a = Partition(a)
    return SymPoly(a.n, {tuple(a): Fraction(1)})


def hall_littlewood_p(a: Partition, t) -> SymPoly:
    """Hall-Littlewood polynomial P_a(x_1, ..., x_n; t) by the tableau formula (5.11').

    The coefficient of m_b, for b dominated by a, is tableau_sum(a, b, t).
    """
    a = Partition(a)
    dominated = [b for b in enumerate_partitions(a.n, a.weight) if dominance_leq(b, a)]
    return SymPoly(a.n, {tuple(b): tableau_sum(a, b, t) for b in dominated})


@lru_cache(maxsize=None)
def schur(a: Partition) -> SymPoly:
    """Schur polynomial s_a = P_a(x; 0): Kostka numbers times monomial symmetric functions."""
    return hall_littlewood_p(a, 0)


def satake_of_element(e: HeckeElement) -> SymPoly:
    """Satake image: the sum of coefficients times images p^{-v(a)} P_a(x; 1/p)."""
    total = SymPoly.zero(e.n)
    for a, c in e.terms.items():
        image = hall_littlewood_p(a, Fraction(1, e.p)).scale(Fraction(1, e.p ** a.v_weight()))
        total = total + image.scale(c)
    return total


def coefficient(poly: SymPoly, exponents) -> Fraction:
    """Coefficient of the monomial with the given exponent vector."""
    return poly.terms.get(tuple(sorted(exponents, reverse=True)), Fraction(0))


def expanded(poly: SymPoly) -> dict[tuple[int, ...], Fraction]:
    """Dense monomial -> coefficient dict over every orbit element."""
    return {mono: c for key, c in poly.terms.items() for mono in _orbit(key)}
