"""Exact symmetric Laurent polynomials in n variables.

A SymPoly stores one coefficient per S_n-orbit of exponent vectors, keyed
by the orbit's non-increasing representative; coefficients are Fractions.
The module supplies the monomial symmetric basis, exact multiplication,
and the Hall-Littlewood polynomials P_a(x; t) by the tableau formula of
Macdonald, Symmetric Functions and Hall Polynomials, III (5.11'), with
strip weights (5.8'); at t = 0 they are the Schur polynomials.

scaled_product multiplies on the basis m'_k = p^(-n(k)) m_k, n(k) = sum (i-1) k_i:
if m_a * m_b = sum_c N_c m_c (Macdonald I §2), then m'_a * m'_b is sum_c N_c
p^(n(c) - n(a) - n(b)) m'_c, an exponent >= 0 since c = sort(a + sigma b) is
dominated by a + b and n reverses dominance, so ints stay ints.  N_c and the
exponent depend only on the keys: _monomial_product builds each key pair's
table once for every prime, and SymPoly.__mul__ is the case p = 1.  The alternant

    sum over sigma of  sigma( x^a * prod_{i<j} (x_i - t x_j) / (x_i - x_j) ),

which is v_a(t) P_a(x; t), is kept only as the spec reference for tests:
its numerator is expanded as an alternating polynomial and divided by the
Vandermonde factor by factor with a zero-remainder check at every step.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import add

from .partitions import Partition, dominance_leq, enumerate_partitions, tableau_sum


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


def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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

    # -- views -------------------------------------------------------------

    def coefficient(self, exponents) -> Fraction:
        """Coefficient of the monomial with the given exponent vector."""
        return self.terms.get(tuple(sorted(exponents, reverse=True)), Fraction(0))

    def expanded(self) -> dict[tuple[int, ...], Fraction]:
        """Dense monomial -> coefficient dict over every orbit element."""
        dense = {}
        for key, coeff in self.terms.items():
            for mono in _orbit(key):
                dense[mono] = coeff
        return dense

    def evaluate(self, point):
        """Evaluate at a point (exact for int/Fraction inputs, numeric otherwise)."""
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, not {self.n}")
        point = [Fraction(x) if isinstance(x, int) else x for x in point]
        exact = all(isinstance(x, Fraction) for x in point)
        total = Fraction(0) if exact else 0
        for key, coeff in self.terms.items():
            for mono in _orbit(key):
                term = coeff if exact else complex(coeff)
                for x, e in zip(point, mono):
                    term = term * x**e
                total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = [f"{c}*m{k}" for k, c in sorted(self.terms.items(), reverse=True)]
        return "SymPoly(" + " + ".join(bits) + ")"


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


# -- dense (non-symmetric) helpers used by the alternant machinery ----------


def _dense_mul_monomial(dense, mono, coeff):
    out = {}
    for key, c in dense.items():
        e = tuple(x + y for x, y in zip(key, mono))
        out[e] = c * coeff
    return out


def _dense_add_into(acc, dense):
    for key, c in dense.items():
        s = acc.get(key, Fraction(0)) + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _product_factors(n: int, t: Fraction) -> dict[tuple[int, ...], Fraction]:
    """Expansion of prod_{i<j} (x_i - t*x_j) as a dense dict."""
    pairs = list(combinations(range(n), 2))
    acc = {(0,) * n: Fraction(1)}
    for i, j in pairs:
        out: dict[tuple[int, ...], Fraction] = {}
        for key, c in acc.items():
            ei = list(key)
            ei[i] += 1
            _dense_add_into(out, {tuple(ei): c})
            ej = list(key)
            ej[j] += 1
            _dense_add_into(out, {tuple(ej): -t * c})
        acc = out
    return acc


def _divide_linear(dense, i: int, j: int):
    """Exact division of a dense polynomial by (x_i - x_j).

    Treats the polynomial as univariate in x_i with coefficients in the
    remaining variables.  Raises ArithmeticError on a nonzero remainder.
    """
    # group by x_i degree
    by_deg: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for key, c in dense.items():
        d = key[i]
        stripped = key[:i] + (0,) + key[i + 1 :]
        by_deg.setdefault(d, {})[stripped] = c
    if not by_deg:
        return {}
    top = max(by_deg)
    quotient_levels: dict[int, dict[tuple[int, ...], Fraction]] = {}
    carry: dict[tuple[int, ...], Fraction] = {}
    # synthetic division: q_{k-1} = c_k + x_j * q_k, descending k
    for k in range(top, 0, -1):
        level = dict(by_deg.get(k, {}))
        _dense_add_into(level, carry)
        quotient_levels[k - 1] = level
        shift = [0] * len(next(iter(dense)))
        shift[j] = 1
        carry = _dense_mul_monomial(level, tuple(shift), Fraction(1))
    # matching the x_i-free terms: c_0 = -x_j q_0 + r, so r = c_0 + x_j q_0
    remainder = dict(by_deg.get(0, {}))
    _dense_add_into(remainder, carry)
    if any(remainder.values()):
        raise ArithmeticError("nonzero remainder dividing by Vandermonde factor")
    out: dict[tuple[int, ...], Fraction] = {}
    for k, level in quotient_levels.items():
        for key, c in level.items():
            e = key[:i] + (k,) + key[i + 1 :]
            if c:
                out[e] = c
    return out


def symmetrize_alternant(a: Partition, t) -> SymPoly:
    """The S_n sum of sigma(x^a * prod_{i<j} (x_i - t x_j)/(x_i - x_j)).

    Computed exactly: the alternating numerator
    sum_sigma sgn(sigma) sigma(x^a prod (x_i - t x_j)) is expanded and then
    divided by prod_{i<j} (x_i - x_j) one factor at a time.
    """
    a = Partition(a)
    n = a.n
    t = Fraction(t)
    base = _product_factors(n, t)
    numerator: dict[tuple[int, ...], Fraction] = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        # apply sigma to x^a * prod: permute variable indices of every monomial
        shift = [0] * n
        for pos, var in enumerate(perm):
            shift[var] += a[pos]
        for key, c in base.items():
            e = list(shift)
            for pos, var in enumerate(perm):
                e[var] += key[pos]
            _dense_add_into(numerator, {tuple(e): sign * c})
    quotient = numerator
    for i, j in combinations(range(n), 2):
        quotient = _divide_linear(quotient, i, j)
    return SymPoly.from_expanded(n, quotient)


def denominators_are_powers_of(poly: SymPoly, p: int) -> bool:
    """True iff every coefficient lies in Z[1/p]."""
    for coeff in poly.terms.values():
        den = coeff.denominator
        while den % p == 0:
            den //= p
        if den != 1:
            return False
    return True
