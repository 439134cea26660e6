"""Exact linear algebra: integer determinants, rational solves, and the
symmetric elimination behind completed squares.

matrix_det never leaves Z (Bareiss, Math. Comp. 22 (1968): every division
in the elimination is exact).  solve and ldl work over Q with Fraction
entries; ldl does not pivot, so by Sylvester's criterion its pivots are all
positive exactly when the leading principal minors are, which is how it
certifies positive definiteness.
"""

from __future__ import annotations

from fractions import Fraction


def matrix_det(m) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in m]
    size = len(a)
    sign, prev = 1, 1
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
        prev = a[col][col]
    return sign * prev


def solve(m, rhs) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Gauss–Jordan elimination of m X = rhs over Q.

    m is square and rhs has one row per row of m.  Returns (det m, X), with
    X None exactly when m is singular (det 0).
    """
    size = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(x) for x in extra]
        for row, extra in zip(m, rhs)
    ]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col]), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, [row[size:] for row in a]


def ldl(q) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Completed squares y^T q y = sum_i d_i (y_i + sum_{j>i} u_ij y_j)^2.

    q is symmetric.  Returns (d, u), with u unit upper triangular, or None
    unless every pivot d_i is positive, that is unless q is positive definite.
    """
    n = len(q)
    a = [[Fraction(x) for x in row] for row in q]
    d: list[Fraction] = []
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        if a[i][i] <= 0:
            return None
        d.append(a[i][i])
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= a[i][r] * u[i][c]
    return d, u
