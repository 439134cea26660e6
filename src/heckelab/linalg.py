"""Exact linear algebra: integer determinants and solves, and the integral
Gram–Schmidt data behind completed squares and LLL.

matrix_det and solve share one fraction-free elimination over Z (Bareiss,
Math. Comp. 22 (1968): every division in it is exact): triangular for the
determinant, Gauss–Jordan for solve, which clears each row's denominators
first and forms each solution entry as one Fraction at the end.  gram_schmidt
gives the leading principal minors d_i of an integer Gram matrix and the
integers d_(j+1) mu_ij by exact divisions: the completed squares of its form
and the start of lll.  It stops at the first d_i <= 0, so by Sylvester's
criterion it certifies positive definiteness.  positive_semidefinite runs a
symmetric fraction-free elimination that drops zero rows, and
condition_at_most decides lambda_max <= bound * lambda_min with it, exactly.
column_echelon brings an integer matrix to column echelon form by
unimodular column operations (extended gcd), the basis change behind
enumerating lattice points under linear windows, and lll reduces a
lattice basis under an integer inner product in integers only, so that
the enumeration runs on short, nearly orthogonal vectors.  require_prime
is the one primality check behind every function that takes a prime p.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime, by trial division."""
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime >= 2, got {p}")


def _bareiss(a: list[list[int]], below_only: bool = False) -> int:
    """Fraction-free Gauss–Jordan elimination of the integer rows a, in place.

    Step k scales each other row by the pivot and divides by the previous
    pivot, exactly (Bareiss), and drops the pivot column from every row.
    Returns the determinant d of the leading square block (0 if singular);
    the rows are then d times the solution of the system it defines.  With
    below_only, step k updates only the rows below the pivot: triangular
    elimination, which still returns d and leaves the rows unspecified.
    """
    size = len(a)
    prev = 1
    for k in range(size):
        piv = next((r for r in range(k, size) if a[r][0]), None)
        if piv is None:
            return 0
        if piv != k:  # a swap that negates one row keeps det and solution
            a[k], a[piv] = [-x for x in a[piv]], a[k]
        d, pivot_row = a[k][0], a[k][1:]
        a[k] = pivot_row
        for i in range(k + 1 if below_only else 0, size):
            if i != k:
                row = a[i]
                f = row[0]
                a[i] = [(d * x - f * y) // prev for x, y in zip(row[1:], pivot_row)]
        prev = d
    return prev


def matrix_det(m) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    return _bareiss([list(row) for row in m], below_only=True)


def solve(m, rhs) -> tuple[Fraction, list[list[Fraction]] | None]:
    """(det m, X) with m X = rhs, X None exactly when m is singular (det 0).

    m is square with int or Fraction entries, rhs has one row per row of m.
    Each row of (m | rhs) is cleared of its denominators (lcm L_i), so the
    elimination runs in integers; det m = d / prod L_i, and X = N / d.
    """
    rows, scale = [], 1
    for row, extra in zip(m, rhs):
        entries = [*row, *extra]
        den = lcm(*(x.denominator for x in entries))
        rows.append([x.numerator * (den // x.denominator) for x in entries])
        scale *= den
    det = _bareiss(rows)
    if not det:
        return Fraction(0), None
    return Fraction(det, scale), [[Fraction(x, det) for x in row] for row in rows]


def gram_schmidt(gram) -> tuple[list[int], list[list[int]]] | None:
    """Integral Gram–Schmidt data (d, lam) of the integer Gram matrix gram,
    read on and below the diagonal (Cohen, Alg. 2.6.7): d[0] = 1, d[i + 1]
    is the (i + 1)-th leading principal minor and lam[i][j] = d[j + 1] mu_ij
    for j < i, all reached by exact divisions.  Returns None at the first
    d[i + 1] <= 0, so exactly when gram is not positive definite
    (Sylvester).  Then y^T gram y = sum_i T_i^2 / (d[i] d[i + 1]) with
    integers T_i = d[i + 1] y_i + sum_{k > i} lam[k][i] y_k.
    """
    m = len(gram)
    d = [1] * (m + 1)
    lam: list[list[int]] = []
    for i in range(m):
        row: list[int] = []
        lam.append(row)
        for j in range(i + 1):
            u = gram[i][j]
            for t in range(j):
                u = (d[t + 1] * u - row[t] * lam[j][t]) // d[t]
            row.append(u)
        d[i + 1] = row.pop()  # the step j = i gives the minor
        if d[i + 1] <= 0:
            return None
    return d, lam


def positive_semidefinite(m) -> bool:
    """Whether the symmetric integer matrix m is positive semidefinite, by
    fraction-free elimination (Bareiss: each entry is a minor on the kept
    pivots, so divisions are exact).  A negative pivot fails; a zero pivot
    needs a zero row, which is dropped, as a positive semidefinite matrix
    vanishes on the row and column of a zero diagonal entry."""
    a, prev = [list(row) for row in m], 1
    while a:
        (d, *top), *rest = a
        if d < 0 or (d == 0 and any(top)):
            return False
        if d:
            a = [[(d * x - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in rest]
            prev = d
        else:
            a = [row[1:] for row in rest]
    return True


def condition_at_most(q, bound: int) -> bool:
    """lambda_max <= bound * lambda_min for the positive-definite integer q,
    exactly: bound*(I (x) q) - q (x) I has the eigenvalues bound*lambda_j -
    lambda_i, so it is positive semidefinite (fine for n <= 6)."""
    n = len(q)
    return positive_semidefinite([
        [bound * q[i][j] * (a == b) - q[a][b] * (i == j) for b in range(n) for j in range(n)]
        for a in range(n) for i in range(n)
    ])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def column_echelon(rows) -> tuple[list[list[int]], list[list[int]], list[int | None]]:
    """Unimodular U with H = V U in column echelon form, pivots on the right.

    rows is a k-by-n integer matrix V.  Returns (U, H, pivot): U is n-by-n
    with determinant +-1.  Rows are taken in order.  When row j is
    independent of the rows before it, extended-gcd steps gather its
    entries on the columns not yet used into one of them, which moves to
    the right of the unused columns, and pivot[j] is that column, with
    H[j][pivot[j]] > 0 and H[j][c] = 0 for every c < pivot[j].  Otherwise
    pivot[j] is None and row j of H is 0 outside the earlier pivot columns.
    So the r pivots are the columns n-1, ..., n-r, in row order.
    """
    n = len(rows[0]) if rows else 0
    # U and H as lists of columns, so column steps act on whole lists
    ucols = [[int(i == c) for i in range(n)] for c in range(n)]
    hcols = [list(col) for col in zip(*rows)]
    free = n  # columns free..n-1 hold pivots
    pivot: list[int | None] = []
    for j in range(len(rows)):
        nz = [c for c in range(free) if hcols[c][j]]
        if not nz:
            pivot.append(None)
            continue
        p = nz[0]
        for c in nz[1:]:
            a, b = hcols[p][j], hcols[c][j]
            g, s, t = _xgcd(a, b)
            # the step ((s, -b/g), (t, a/g)) has determinant 1
            for cols in (ucols, hcols):
                x, y = cols[p], cols[c]
                cols[p] = [s * u + t * v for u, v in zip(x, y)]
                cols[c] = [(a // g) * v - (b // g) * u for u, v in zip(x, y)]
        free -= 1
        sign = 1 if hcols[p][j] > 0 else -1
        for cols in (ucols, hcols):
            cols[p], cols[free] = cols[free], [sign * x for x in cols[p]]
        pivot.append(free)
    return [list(r) for r in zip(*ucols)], [list(r) for r in zip(*hcols)], pivot


def lll(basis: list[list[int]], inner) -> list[list[int]]:
    """LLL-reduced basis (Lenstra, Lenstra, Lovász, Math. Ann. 261 (1982),
    with factor 3/4) of the lattice spanned by the independent integer
    vectors basis, under the integer-valued inner product inner(x, y).

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7): the Gram determinants d_i of the first i vectors and
    lam_ij = d_(j+1) mu_ij come from gram_schmidt and are updated on each
    size reduction and swap by exact divisions.  b_k is fully size-reduced,
    each mu_kj rounded half to even as round() does, before the Lovász test.
    """
    b = [list(v) for v in basis]
    m = len(b)
    d, lam = gram_schmidt([[inner(b[i], b[j]) for j in range(i + 1)] for i in range(m)])
    k = 1
    while k < m:
        row = lam[k]
        for j in range(k - 1, -1, -1):
            # q = round(mu_kj), halves to even
            q, r = divmod(row[j], d[j + 1])
            if 2 * r > d[j + 1] or (2 * r == d[j + 1] and q & 1):
                q += 1
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    row[t] -= q * lam[j][t]
                row[j] -= q * d[j + 1]
        lk = row[k - 1]
        # Lovász: |b*_k|^2 >= (3/4 - mu^2) |b*_(k-1)|^2, times 4 d[k] d[k - 1]
        if 4 * (d[k + 1] * d[k - 1] + lk * lk) >= 3 * d[k] * d[k]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            lam[k - 1][: k - 1], row[: k - 1] = row[: k - 1], lam[k - 1][: k - 1]
            dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]  # d[k] after the swap
            for i in range(k + 1, m):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
            d[k] = dk
            k = max(k - 1, 1)
    return b
