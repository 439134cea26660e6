"""Specs the tests hold the Satake route and the coset tables to.

hall_littlewood_p evaluates the tableau formula of Macdonald III (5.11')
coefficient by coefficient at the given t, and satake_of_element sums
p^{-v(a)} P_a(x; 1/p) over an element's terms; neither reads the int
images R_a.  scaled_inverse and need_vector build, one form at a time, the
scaled inverse and need vector that cosets' weight tables carry.
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


def scaled_inverse(y, d):
    """d·y⁻¹ for an upper-triangular y with positive diagonal and det(y) = d.

    This is the adjugate of y, an integer upper-triangular matrix, found by
    back-substitution in y·x = d·I; every division is exact.
    """
    n = len(y)
    x = [[0] * n for _ in range(n)]
    for j in range(n):
        x[j][j] = d // y[j][j]
        for i in range(j - 1, -1, -1):
            s = sum(y[i][k] * x[k][j] for k in range(i + 1, j + 1))
            x[i][j] = -s // y[i][i]
    return tuple(tuple(row) for row in x)


def need_vector(x, p, w):
    """Least c with diag(p^c)·x divisible by p^w: max(0, w − min_j v_p(x_ij)) per row.

    The minimum runs over the nonzero entries of the row; a zero row needs
    nothing.
    """
    need = []
    for row in x:
        low = w  # min(w, least valuation seen so far)
        for v in row:
            if v:
                e = 0
                while e < low and v % p == 0:
                    v //= p
                    e += 1
                low = e
        need.append(w - low)
    return tuple(need)
