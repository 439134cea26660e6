from fractions import Fraction
from itertools import permutations
from math import lcm

from hypothesis import example, given
from hypothesis import strategies as st

from heckelab.linalg import ldl, matrix_det, solve


def leibniz_det(m):
    """sum over permutations sigma of sign(sigma) * prod_i m[i][sigma(i)]."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def square(entries, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


small_ints = st.integers(-3, 3)


def test_matrix_det():
    assert matrix_det([[2, 1], [1, 1]]) == 1
    assert matrix_det([[1, 2], [2, 4]]) == 0
    assert matrix_det([[0, 1], [1, 0]]) == -1
    # the first elimination step zeroes the (2, 2) pivot, forcing a row swap
    assert matrix_det([[1, 2, 3], [2, 4, 5], [1, 5, 6]]) == 3


@given(square(st.integers(-9, 9), 5))
def test_matrix_det_matches_leibniz(m):
    assert matrix_det(m) == leibniz_det(m)


def systems(entries):
    """A square m with a two-column right-hand side, both drawn from entries."""
    return square(entries, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.lists(entries, min_size=2, max_size=2),
                min_size=len(m),
                max_size=len(m),
            ),
        )
    )


@given(
    st.one_of(
        systems(small_ints), systems(st.fractions(-3, 3, max_denominator=4))
    )
)
@example(([[1, 2], [2, 4]], [[1, 0], [0, 1]]))
@example(([[0, 1], [1, 0]], [[1, 2], [3, 4]]))  # one row swap flips the sign
def test_solve(system):
    m, rhs = system
    n = len(m)
    det, x = solve(m, rhs)
    # clearing denominators scales the determinant by scale^n; integer m has scale 1
    scale = lcm(*(Fraction(v).denominator for row in m for v in row))
    assert det * scale**n == matrix_det([[int(v * scale) for v in row] for row in m])
    assert (x is None) == (det == 0)
    if x is not None:
        assert [
            [sum(m[i][k] * x[k][j] for k in range(n)) for j in range(2)]
            for i in range(n)
        ] == rhs


@given(square(small_ints, 4), st.integers(0, 8), st.data())
def test_ldl_certifies_positive_definite(s, shift, data):
    n = len(s)
    q = [[s[i][j] + s[j][i] + 2 * shift * (i == j) for j in range(n)] for i in range(n)]
    minors = [leibniz_det([row[:k] for row in q[:k]]) for k in range(1, n + 1)]
    out = ldl(q)
    assert (out is not None) == all(x > 0 for x in minors)
    if out is not None:
        d, u = out
        y = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        uy = [sum(u[i][j] * y[j] for j in range(n)) for i in range(n)]
        assert sum(di * v * v for di, v in zip(d, uy)) == sum(
            y[i] * q[i][j] * y[j] for i in range(n) for j in range(n)
        )
