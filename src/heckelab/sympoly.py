"""Symmetric Laurent polynomials in n variables, as orbit-keyed dicts.

A polynomial holds one coefficient per S_n-orbit of exponent vectors, keyed
by the orbit's non-increasing representative k, so it is a dict on the
monomial basis m_k.  Two functions serve every production reader:

- scaled_product multiplies on the basis m'_k = p^(-n(k)) m_k, n(k) = sum
  (i-1) k_i: if m_a * m_b = sum_c N_c m_c (Macdonald I §2), then m'_a * m'_b
  is sum_c N_c p^(n(c) - n(a) - n(b)) m'_c, an exponent >= 0 since
  c = sort(a + sigma b) is dominated by a + b and n reverses dominance, so
  ints stay ints.  N_c and the exponent depend only on the keys:
  _monomial_product builds each key pair's table once for every prime.
- evaluate sums coefficient times m_k(point) over the orbits, exactly for
  rational points.

SymPoly (Fraction coefficients, SymPoly.__mul__ the case p = 1) and the
alternant

    sum over sigma of  sigma( x^a * prod_{i<j} (x_i - t x_j) / (x_i - x_j) ),

which is v_a(t) P_a(x; t), are the spec route: the alternant's numerator is
expanded in integers as an alternating polynomial and divided once by the
Vandermonde determinant under a zero-remainder check; it reads no tableau and
no R_a.  The tests and `heckelab verify` hold the Satake images to it, and
perfbench's tracer wraps both.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from operator import add

from .partitions import Partition


@lru_cache(maxsize=None)
def _orbit(key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Distinct permutations of a non-increasing exponent vector, ascending lex:
    each distinct entry, smallest first, followed by the orbit of the others."""
    if len(key) < 2:
        return (key,)
    out = []
    for i in range(len(key) - 1, -1, -1):
        if i == len(key) - 1 or key[i] != key[i + 1]:
            out += [(key[i], *rest) for rest in _orbit(key[:i] + key[i + 1:])]
    return tuple(out)


def _orbit_size(key: tuple[int, ...]) -> int:
    """Number of distinct permutations of an exponent vector: n! / prod mult!."""
    size = factorial(len(key))
    for mult in Counter(key).values():
        size //= factorial(mult)
    return size


def n_weight(key) -> int:
    """n(key) = sum (i - 1) key_i over the entries in order (Macdonald I (1.5))."""
    return sum(i * x for i, x in enumerate(key))


@lru_cache(maxsize=None)
def _monomial_product(
    key_a: tuple[int, ...], key_b: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Structure constants of m_a * m_b = sum_c N_c m_c, as ((c, N_c, s_c), ...)
    with s_c = n(c) - n(a) - n(b) >= 0, the exponent of p on the basis m'.

    S_n acts diagonally on the pairs (alpha, beta) in O(a) x O(b), so the
    pairs summing into O(c) number |O(a)| #{beta in O(b) : sort(a + beta) = c},
    and each element of O(c) receives N_c = that count / |O(c)| of them.
    The exponents may be negative; nothing depends on the coefficient ring.
    """
    tally = Counter(
        tuple(sorted(map(add, key_a, beta), reverse=True)) for beta in _orbit(key_b)
    )
    size_a = _orbit_size(key_a)
    base = n_weight(key_a) + n_weight(key_b)
    out = []
    for key, hits in sorted(tally.items()):
        count, rem = divmod(size_a * hits, _orbit_size(key))
        if rem:
            raise ArithmeticError(f"orbit count of {key} in m{key_a} * m{key_b} is not integral")
        out.append((key, count, n_weight(key) - base))
    return tuple(out)


def scaled_product(f: dict, g: dict, p: int) -> dict:
    """Coefficients of the product of f and g, all three on the basis m'_k = p^(-n(k)) m_k."""
    out: dict = {}
    right = list(g.items())
    for key_a, ca in f.items():
        for key_b, cb in right:
            c = ca * cb
            for key, count, shift in _monomial_product(key_a, key_b):
                out[key] = out.get(key, 0) + c * count * p**shift
    return {k: c for k, c in out.items() if c}


def evaluate(terms: dict, point):
    """Value of sum_k terms[k] m_k at a point, each m_k summed over _orbit(k):
    exact for int and Fraction coordinates, in complex floats otherwise."""
    point = [Fraction(x) if isinstance(x, int) else x for x in point]
    exact = all(isinstance(x, Fraction) for x in point)
    total = Fraction(0) if exact else 0
    for key, coeff in terms.items():
        if len(key) != len(point):
            raise ValueError(f"point has {len(point)} coordinates, not {len(key)}")
        for mono in _orbit(key):
            term = coeff if exact else complex(coeff)
            for x, e in zip(point, mono):
                term = term * x**e
            total += term
    return total


class SymPoly:
    """Symmetric Laurent polynomial with exact rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.n = n
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    canon = tuple(sorted(key, reverse=True))
                    if canon != tuple(key):
                        raise ValueError(f"non-canonical orbit key {key}")
                    self.terms[canon] = Fraction(coeff)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SymPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "SymPoly":
        return cls(n, {(0,) * n: Fraction(1)})

    @classmethod
    def from_expanded(cls, n: int, dense: dict[tuple[int, ...], Fraction]) -> "SymPoly":
        """Collapse a dense (monomial -> coeff) dict of a symmetric polynomial.

        Reads the coefficient at each orbit's sorted representative and
        checks constancy across the orbit.
        """
        out: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in dense.items():
            canon = tuple(sorted(key, reverse=True))
            if canon in out:
                if out[canon] != coeff:
                    raise ArithmeticError("dense dict is not symmetric")
            elif coeff:
                out[canon] = Fraction(coeff)
        poly = cls(n)
        poly.terms = out
        return poly

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        if self.n != other.n:
            raise ValueError("summands differ in the number of variables")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, Fraction(0)) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        p = SymPoly(self.n)
        p.terms = out
        return p

    def __neg__(self) -> "SymPoly":
        p = SymPoly(self.n)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def scale(self, c) -> "SymPoly":
        c = Fraction(c)
        p = SymPoly(self.n)
        if c:
            p.terms = {k: coeff * c for k, coeff in self.terms.items()}
        return p

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        if self.n != other.n:
            raise ValueError("factors differ in the number of variables")
        p = SymPoly(self.n)
        p.terms = scaled_product(self.terms, other.terms, 1)
        return p

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = [f"{c}*m{k}" for k, c in sorted(self.terms.items(), reverse=True)]
        return "SymPoly(" + " + ".join(bits) + ")"


def _alternate(poly: dict, n: int) -> dict:
    """sum_sigma sgn(sigma) sigma(poly) for an int polynomial in n variables,
    the sign read off the inversion count; zero terms dropped."""
    out = {}
    for perm in permutations(range(n)):
        sign = (-1) ** sum(x > y for x, y in combinations(perm, 2))
        for key, c in poly.items():
            e = tuple(key[k] for k in perm)
            out[e] = out.get(e, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _divide_by_vandermonde(numerator: dict, n: int) -> dict:
    """Exact quotient of an int polynomial by V = sum_sigma sgn(sigma) x^(sigma delta),
    delta = (n-1, ..., 0), peeling the lex-largest monomial of the residual
    against V's leading term x^delta; ArithmeticError when x^delta does not
    divide it, which means a nonzero remainder."""
    delta = tuple(range(n - 1, -1, -1))
    vandermonde = _alternate({delta: 1}, n).items()
    residual = {k: c for k, c in numerator.items() if c}
    quotient = {}
    while residual:
        lead, c = max(residual.items())  # keys are distinct, so this is the lex-largest
        shift = tuple(x - d for x, d in zip(lead, delta))
        if any(x < 0 for x in shift):
            raise ArithmeticError("nonzero remainder dividing by the Vandermonde determinant")
        quotient[shift] = c
        for mono, sign in vandermonde:
            e = tuple(map(add, shift, mono))
            if r := residual.get(e, 0) - sign * c:
                residual[e] = r
            else:
                del residual[e]
    return quotient


def symmetrize_alternant(a: Partition, t) -> SymPoly:
    """The S_n sum of sigma(x^a * prod_{i<j} (x_i - t x_j)/(x_i - x_j)).

    Computed exactly in integers, with t = u/v: the alternating numerator
    sum_sigma sgn(sigma) sigma(x^a prod_{i<j} (v x_i - u x_j)) is divided
    once by the Vandermonde determinant, and the quotient by v^C(n, 2).
    """
    a = Partition(a)
    u, v = Fraction(t).as_integer_ratio()
    base = {tuple(a): 1}
    for i, j in combinations(range(a.n), 2):
        step = {}
        for key, c in base.items():
            for var, w in ((i, v), (j, -u)):
                e = key[:var] + (key[var] + 1,) + key[var + 1:]
                step[e] = step.get(e, 0) + w * c
        base = step
    quotient = _divide_by_vandermonde(_alternate(base, a.n), a.n)
    scale = v ** comb(a.n, 2)
    return SymPoly.from_expanded(a.n, {k: Fraction(c, scale) for k, c in quotient.items()})


def denominators_are_powers_of(terms: dict, p: int) -> bool:
    """True iff every coefficient of the dict lies in Z[1/p]."""
    for coeff in terms.values():
        den = coeff.denominator
        while den % p == 0:
            den //= p
        if den != 1:
            return False
    return True
