"""Images of double-coset operators under the Satake map.

For a non-increasing exponent vector a and a prime p, the image of the
double-coset operator T_a attached to diag(p^{a_1}, ..., p^{a_n}) is

    p^{-v(a)} * P_a(x; 1/p),

with v(a) = sum_j j a_j and P_a the Hall-Littlewood polynomial, computed
by the tableau formula of Macdonald III (5.8'), (5.11').  The tests hold
it to the defining form

    P_a(x; t) = 1/v_a(t) * sum_sigma sigma( x^a prod_{i<j} (x_i - t x_j)/(x_i - x_j) ),
    1/v_a(t) = (1 - t)^n * prod_i prod_{j=1..k_i} (1 - t^j)^{-1},

where k_1, ..., k_t are the multiplicities of the distinct values among the
a_i.  An image is stored as R_a = p^{-n(a)} P_a(x; 1/p), n(a) = v(a) - |a|,
on the basis m'_b = p^{-n(b)} m_b: its coefficient sum_k c_k p^{n(b)-n(a)-k}
comes from a tableau polynomial sum_k c_k t^k of degree at most n(b) - n(a),
so it is an integer (Macdonald III (3.6), II (4.3)).  T_a -> R_a, the Satake
map followed by x -> p x, is a ring homomorphism.  Each R_a is checked for
weight |a|, coefficient 1 at a and that degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .linalg import require_prime
from .partitions import Partition, _tableau_sum, dominance_leq, enumerate_partitions
from .sympoly import SymPoly, denominators_are_powers_of, n_weight, schur


@dataclass(frozen=True)
class SatakeImage:
    a: Partition
    p: int
    integral: dict[tuple[int, ...], int]  # R_a on the basis m'_b = p^{-n(b)} m_b

    @cached_property
    def scaled(self) -> SymPoly:  # p^{v(a)} times the image, P_a(x; 1/p)
        base = n_weight(self.a)
        return SymPoly(self.a.n, {b: Fraction(c, self.p ** (n_weight(b) - base))
                                  for b, c in self.integral.items()})

    @cached_property
    def poly(self) -> SymPoly:  # the image itself
        return self.scaled.scale(Fraction(1, self.p ** self.a.v_weight()))


@lru_cache(maxsize=None)
def _tableau_polynomials(a: Partition) -> dict[tuple[int, ...], tuple[int, ...]]:
    """b -> coefficients in t of the coefficient of m_b in P_a(x; t), for b below a.

    A central shift a = c + (s^n) reuses the table of c, every key shifted by
    s: P_a = (x_1...x_n)^s P_c (Macdonald III §2).
    """
    if s := a[-1]:
        return {tuple(x + s for x in b): coeffs
                for b, coeffs in _tableau_polynomials(Partition(x - s for x in a)).items()}
    shape = tuple(x for x in a if x)
    return {tuple(b): _tableau_sum(shape, tuple(x for x in b if x))
            for b in enumerate_partitions(a.n, a.weight) if dominance_leq(b, a)}


@lru_cache(maxsize=None)
def satake_image(a: Partition, p: int) -> SatakeImage:
    """Exact Satake image of the double-coset operator for a at the prime p."""
    a = Partition(a)
    require_prime(p)
    base = n_weight(a)
    integral = {}
    for b, coeffs in _tableau_polynomials(a).items():
        if sum(b) != a.weight:
            raise ArithmeticError(f"image of {a}, p={p} is not homogeneous of degree {a.weight}")
        shift = n_weight(b) - base - (len(coeffs) - 1)
        if shift < 0:
            raise ArithmeticError(f"t-degree of m{b} in the image of {a} exceeds n{b} - n{a}")
        if coeffs:  # Horner's rule at p: sum_k c_k p^(d - k)
            integral[b] = reduce(lambda v, c: v * p + c, coeffs) * p**shift
    if integral.get(tuple(a)) != 1:
        raise ArithmeticError(f"leading coefficient not 1 for {a}, p={p}")
    return SatakeImage(a=a, p=p, integral=integral)


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
    support = sorted(img.scaled.terms)
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
