"""Partitions with a fixed number of parts, Kostka numbers, and contingency-table counts.

A partition here is a non-increasing tuple of n non-negative integers
(trailing zeros allowed, so the rank n is part of the data).  tableau_sum,
the weighted horizontal-strip recursion of Macdonald III (5.8'), (5.11'),
gives Kostka numbers (the Schur coefficients) and Satake images; the recursion
builds each sum once as an integer polynomial in t and evaluates it at
each t asked for.  The module
also builds the two matrices attached to the set of weight-n partitions:
the contingency-count matrix D, whose (a', a) entry counts non-negative
integer matrices with row sums a' and column sums a, and the Kostka
matrix A with D = A^T A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .linalg import matrix_det


class Partition(tuple):
    """Non-increasing tuple of non-negative integers.

    Inputs are sorted into canonical non-increasing order on construction;
    negative parts are rejected.
    """

    def __new__(cls, parts):
        parts = tuple(sorted((int(x) for x in parts), reverse=True))
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def weight(self) -> int:
        return sum(self)

    def v_weight(self) -> int:
        """Position-weighted sum a_1 + 2*a_2 + ... + n*a_n."""
        return sum(j * a for j, a in enumerate(self, start=1))

    def __repr__(self):
        return f"Partition{tuple(self)}"


def enumerate_partitions(n: int, total: int) -> list[Partition]:
    """All non-increasing n-tuples of non-negative integers summing to total.

    Returned in ascending lexicographic order (compare first differing
    coordinate).
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, cap: int, slots: int):
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        # first part is at least ceil(remaining/slots), at most min(cap, remaining)
        lo = -(-remaining // slots)
        for first in range(lo, min(cap, remaining) + 1):
            rec(prefix + (first,), remaining - first, first, slots - 1)

    rec((), total, total, n)
    return [Partition(p) for p in sorted(out)]


def dominance_leq(a, b) -> bool:
    """True iff a is dominated by b: equal weights and all partial sums of a <= those of b.

    Both arguments are taken in non-increasing order.
    """
    if sum(a) != sum(b):
        return False
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def kostka_number(shape: Partition, content: Partition) -> int:
    """Number of semistandard Young tableaux of the given shape and content.

    Zero when the content is not dominated by the shape.  Raises on a
    weight mismatch.  Equal to tableau_sum at t = 0.
    """
    return tableau_sum(shape, content, 0)


def tableau_sum(shape: Partition, content: Partition, t):
    """Sum of psi_T(t) over the semistandard tableaux T of the given shape and content.

    The coefficient of m_content in the Hall-Littlewood polynomial
    P_shape(x; t): Macdonald, Symmetric Functions and Hall Polynomials,
    III (5.11').  Zero unless the content is dominated by the shape.

    The sum is an integer polynomial in t, built once per (shape, content)
    by _tableau_sum and evaluated here by Horner's rule in the arithmetic
    of t (so t = 0 gives the Kostka number).
    """
    shape = Partition(shape)
    content = Partition(content)
    if shape.weight != content.weight:
        raise ValueError("shape and content must have equal weight")
    coeffs = _tableau_sum(tuple(x for x in shape if x), tuple(x for x in content if x))
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return value


@lru_cache(maxsize=None)
def _tableau_sum(shape: tuple[int, ...], content: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_d) of the tableau sum as a polynomial in t,
    with c_d != 0, or () for the zero sum.

    Peels the cells holding the largest entry, a horizontal strip, and
    recurses; nothing depends on t, so one table serves every prime.
    """
    if not content:
        return () if shape else (1,)
    if not dominance_leq(_pad(content, len(shape)), _pad(shape, len(content))):
        return ()
    last = content[-1]
    rest = content[:-1]
    total: tuple[int, ...] = ()
    for smaller in _horizontal_strips(shape, last):
        term = _poly_mul(_strip_weight(shape, smaller), _tableau_sum(smaller, rest))
        total = _poly_add(total, term)
    return total


def _strip_weight(shape: tuple[int, ...], smaller: tuple[int, ...]) -> tuple[int, ...]:
    """psi_{shape/smaller}(t) of Macdonald III (5.8'), as coefficients in t: the
    product of (1 - t^{m_j(smaller)}) over the j >= 1 where the strip has no
    cell in column j and one in column j + 1."""
    cols = {j for lam, mu in zip(shape, _pad(smaller, len(shape)))
            for j in range(mu + 1, lam + 1)}
    weight: tuple[int, ...] = (1,)
    for j in cols:
        if j > 1 and j - 1 not in cols:
            m = smaller.count(j - 1)
            factor = [1] + [0] * m
            factor[m] -= 1  # 1 - t^m, which vanishes at m = 0
            weight = _poly_mul(weight, _trim(factor))
    return weight


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    if len(f) < len(g):
        f, g = g, f
    return _trim([a + b for a, b in zip(f, g)] + list(f[len(g):]))


def _poly_mul(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim(out)


def _pad(t: tuple[int, ...], n: int) -> tuple[int, ...]:
    return t + (0,) * (n - len(t)) if len(t) < n else t


def _horizontal_strips(shape: tuple[int, ...], size: int):
    """Shapes obtained from shape by removing a horizontal strip of the given size.

    Row i loses r_i <= shape[i] - shape[i+1] cells; the strips come in
    ascending lex order of (r_1, r_2, ...).
    """
    caps = [x - y for x, y in zip(shape, shape[1:] + (0,))]
    for removed in product(*(range(c + 1) for c in caps)):
        if sum(removed) == size:
            yield tuple(x - r for x, r in zip(shape, removed) if x != r)


def contingency_count(rows: Partition, cols: Partition) -> int:
    """Number of non-negative integer matrices with the given row and column sums."""
    rows = Partition(rows)
    cols = Partition(cols)
    if rows.weight != cols.weight:
        raise ValueError("row and column sums must have equal weight")
    return _contingency(tuple(rows), tuple(cols))


@lru_cache(maxsize=None)
def _contingency(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    r = rows[0]
    total = 0
    for row in product(*(range(min(c, r) + 1) for c in cols)):  # first row, by column
        if sum(row) == r:
            reduced = tuple(sorted((c - x for c, x in zip(cols, row)), reverse=True))
            total += _contingency(rows[1:], reduced)
    return total


def weight_partitions(n: int) -> list[Partition]:
    """The weight-n partitions with n parts, ascending lex (index set of D and A)."""
    return enumerate_partitions(n, n)


def contingency_matrix(n: int) -> list[list[int]]:
    """Matrix D over the weight-n partitions in ascending lex order."""
    pi = weight_partitions(n)
    return [[contingency_count(a, b) for b in pi] for a in pi]


def kostka_matrix(n: int) -> list[list[int]]:
    """Kostka matrix A over the weight-n partitions, rows = shapes, cols = contents."""
    pi = weight_partitions(n)
    return [[kostka_number(a, b) for b in pi] for a in pi]


@dataclass
class CholeskyReport:
    """Outcome of checking D = A^T A over the weight-n partitions."""

    n: int
    size: int
    product_matches: bool
    det_is_one: bool
    diagonal_ones: bool
    support_in_dominance: bool
    lex_triangular_descending: bool
    success: bool = field(init=False)

    def __post_init__(self):
        self.success = (
            self.product_matches
            and self.det_is_one
            and self.diagonal_ones
            and self.support_in_dominance
        )


def verify_cholesky(n: int) -> CholeskyReport:
    """Check that D = A^T A exactly, det D = 1, and A is uni-triangular.

    Triangularity of A is certified order-free: K(a, b) != 0 only when b is
    dominated by a, with K(a, a) = 1.  Listing partitions in descending lex
    order then exhibits A as an upper uni-triangular matrix, which is also
    recorded.
    """
    pi = weight_partitions(n)
    d = contingency_matrix(n)
    a = kostka_matrix(n)
    size = len(pi)
    prod_ok = all(
        d[i][j] == sum(a[k][i] * a[k][j] for k in range(size))
        for i in range(size)
        for j in range(size)
    )
    diag_ok = all(a[i][i] == 1 for i in range(size))
    dom_ok = all(
        a[i][j] == 0
        for i in range(size)
        for j in range(size)
        if not dominance_leq(pi[j], pi[i])
    )
    # in descending lex order, nonzero entries sit on or above the diagonal
    lex_ok = all(
        a[i][j] == 0 for i in range(size) for j in range(size) if pi[j] > pi[i]
    )
    return CholeskyReport(
        n=n,
        size=size,
        product_matches=prod_ok,
        det_is_one=matrix_det(d) == 1,
        diagonal_ones=diag_ok,
        support_in_dominance=dom_ok,
        lex_triangular_descending=lex_ok,
    )
