"""Images of double-coset operators under the Satake map.

For a non-increasing exponent vector a and a prime p, the image of the
double-coset operator attached to diag(p^{a_1}, ..., p^{a_n}) is

    p^{-v(a)} * P_a(x; 1/p),

with v(a) = sum_j j a_j and P_a the Hall-Littlewood polynomial, computed
by the tableau formula of Macdonald III (5.8'), (5.11').  The tests hold
it to the defining form

    P_a(x; t) = 1/v_a(t) * sum_sigma sigma( x^a prod_{i<j} (x_i - t x_j)/(x_i - x_j) ),
    1/v_a(t) = (1 - t)^n * prod_i prod_{j=1..k_i} (1 - t^j)^{-1},

where k_1, ..., k_t are the multiplicities of the distinct values among the
a_i.  Each image is checked for degree |a|, leading coefficient 1 at x^a,
and coefficients in Z[1/p].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import require_prime
from .partitions import Partition, dominance_leq
from .sympoly import SymPoly, denominators_are_powers_of, hall_littlewood_p, schur


@dataclass(frozen=True)
class SatakeImage:
    a: Partition
    p: int
    poly: SymPoly  # the image itself
    scaled: SymPoly  # p^{v(a)} times the image; coefficients in Z[1/p]


@lru_cache(maxsize=None)
def satake_image(a: Partition, p: int) -> SatakeImage:
    """Exact Satake image of the double-coset operator for a at the prime p."""
    a = Partition(a)
    require_prime(p)
    scaled = hall_littlewood_p(a, Fraction(1, p))
    if scaled.homogeneous_degree() != a.weight:
        raise ArithmeticError(f"image of {a}, p={p} is not homogeneous of degree {a.weight}")
    if scaled.coefficient(a) != 1:
        raise ArithmeticError(f"leading coefficient not 1 for {a}, p={p}")
    if not denominators_are_powers_of(scaled, p):
        raise ArithmeticError(f"image of {a} has a denominator prime to p={p}")
    poly = scaled.scale(Fraction(1, p**a.v_weight()))
    return SatakeImage(a=a, p=p, poly=poly, scaled=scaled)


def scaled_image(a: Partition, p: int) -> SymPoly:
    """p^{v(a)} times the Satake image (unit leading coefficient at x^a)."""
    return satake_image(Partition(a), p).scaled


@dataclass
class BasicReport:
    """Support and coefficient checks on a scaled Satake image."""

    a: Partition
    p: int
    support_dominance_ok: bool
    support_lex_ok: bool
    leading_is_one: bool
    symmetric_ok: bool
    denominators_ok: bool
    coefficients: dict[tuple[int, ...], Fraction]

    @property
    def ok(self) -> bool:
        return (
            self.support_dominance_ok
            and self.leading_is_one
            and self.symmetric_ok
            and self.denominators_ok
        )


def verify_basic(a: Partition, p: int) -> BasicReport:
    """Check the structural facts about the scaled image.

    Support is tested in both orders: dominance (every support partition is
    dominated by a) and lexicographic (every support partition is <= a when
    both are read in non-increasing order).
    """
    a = Partition(a)
    img = satake_image(a, p)
    support = img.scaled.support_partitions()
    dom_ok = all(dominance_leq(b, a) for b in support)
    lex_ok = all(tuple(b) <= tuple(a) for b in support)
    dense = img.scaled.expanded()
    swap = (1, 0) + tuple(range(2, a.n)) if a.n >= 2 else (0,)
    sym_ok = all(
        dense.get(tuple(k[i] for i in swap), None) == c for k, c in dense.items()
    )
    return BasicReport(
        a=a,
        p=p,
        support_dominance_ok=dom_ok,
        support_lex_ok=lex_ok,
        leading_is_one=img.scaled.coefficient(a) == 1,
        symmetric_ok=sym_ok,
        denominators_ok=denominators_are_powers_of(img.scaled, p),
        coefficients=dict(img.scaled.terms),
    )


def schur_limit_defect(a: Partition, p: int) -> Fraction:
    """Largest absolute coefficient of (scaled image minus the Schur polynomial).

    Scales like 1/p as p grows.
    """
    a = Partition(a)
    diff = satake_image(a, p).scaled - schur(a)
    if not diff.terms:
        return Fraction(0)
    return max(abs(c) for c in diff.terms.values())


def trivial_point(n: int, p: int) -> tuple[Fraction, ...]:
    """Evaluation point (p^n, p^{n-1}, ..., p) at which images give coset degrees."""
    return tuple(Fraction(p ** (n - i)) for i in range(n))


def degree_via_satake(a: Partition, p: int) -> int:
    """Coset degree of the operator, read off the image at the trivial point."""
    a = Partition(a)
    value = satake_image(a, p).poly.evaluate(trivial_point(a.n, p))
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral degree {value} for {a}, p={p}")
    return value.numerator
