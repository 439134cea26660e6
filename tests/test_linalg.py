from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import mul

from hypothesis import example, given
from hypothesis import strategies as st

from heckelab import linalg
from heckelab.linalg import column_echelon, gram_schmidt, lll, matrix_det, solve


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


def gauss_jordan_spec(m, rhs):
    """Gauss–Jordan elimination of m X = rhs in Fractions: (det m, X), X None
    when m is singular.  The reference for the fraction-free solve."""
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


def singular_systems(entries):
    """Systems whose last row is an integer combination of the others."""
    return systems(entries).flatmap(
        lambda s: st.lists(st.integers(-2, 2), min_size=len(s[0]), max_size=len(s[0])).map(
            lambda c: (
                s[0][:-1] + [[sum(ci * row[j] for ci, row in zip(c, s[0][:-1]))
                              for j in range(len(s[0]))]],
                s[1],
            )
        )
    )


@given(
    st.one_of(
        systems(st.integers(-50, 50)),
        systems(st.fractions(-3, 3, max_denominator=6)),
        singular_systems(small_ints),
        singular_systems(st.fractions(-2, 2, max_denominator=3)),
    )
)
@example(([[Fraction(1, 2)]], [[1, 0]]))  # det of m itself, not of the cleared 1
@example(([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[1, 2], [3, 4], [5, 6]]))  # row swaps
@example(([[0, 2, 1], [3, 0, 0], [1, 1, 0]], [[1, 0], [0, 1], [1, 1]]))  # swaps then pivots
@example(([[1, 1], [1, 1]], [[1, 0], [0, 1]]))
def test_solve_matches_fraction_gauss_jordan(system):
    m, rhs = system
    assert solve(m, rhs) == gauss_jordan_spec(m, rhs)


symmetric = st.tuples(square(small_ints, 4), st.integers(0, 8)).map(
    lambda t: [
        [t[0][i][j] + t[0][j][i] + 2 * t[1] * (i == j) for j in range(len(t[0]))]
        for i in range(len(t[0]))
    ]
)


@given(symmetric, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
@example([[1, 1], [1, 1]], [1, -1, 0, 0])  # the last pivot is 0
@example([[0, 1], [1, 2]], [1, 0, 0, 0])  # the first pivot is 0
def test_gram_schmidt_certifies_positive_definite(q, y):
    n = len(q)
    minors = [leibniz_det([row[:k] for row in q[:k]]) for k in range(1, n + 1)]
    out = gram_schmidt(q)
    assert (out is None) == any(x <= 0 for x in minors)
    if out is not None:
        d, lam = out
        assert d == [1, *minors]
        y = y[:n]
        t = [d[i + 1] * y[i] + sum(lam[k][i] * y[k] for k in range(i + 1, n)) for i in range(n)]
        assert sum(Fraction(t[i] ** 2, d[i] * d[i + 1]) for i in range(n)) == sum(
            y[i] * q[i][j] * y[j] for i in range(n) for j in range(n)
        )


def rank(rows) -> int:
    """Rank over Q, by elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@example(3, 3, None)  # a dependent second row and a zero row
def test_column_echelon(k, n, data):
    rows = [[2, 4, -6], [1, 2, -3], [0, 0, 0]] if data is None else data.draw(
        st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=k, max_size=k)
    )
    U, H, pivot = column_echelon(rows)
    assert matrix_det(U) in (1, -1)
    assert H == [[sum(a * b for a, b in zip(row, col)) for col in zip(*U)] for row in rows]
    pivots = [p for p in pivot if p is not None]
    assert pivots == list(range(n - 1, n - 1 - len(pivots), -1))
    assert len(pivots) == rank(rows)
    for j, p in enumerate(pivot):
        earlier = {q for q in pivot[: j + 1] if q is not None}
        assert all(H[j][c] == 0 for c in range(n) if c not in earlier)
        if p is not None:
            assert H[j][p] > 0
            # row j decided by its own pivot and the columns right of it
            assert all(H[j][c] == 0 for c in range(p))
        # a dependent row depends on the earlier rows, so rank does not grow
        assert (p is None) == (rank(rows[: j + 1]) == rank(rows[:j]))


@st.composite
def lattices(draw, entries=st.integers(-30, 30)):
    """(basis, weights, shift): m independent integer vectors in Z^n, n in
    {m, m + 1}, under <x, y> = sum_i w_i x_i y_i + (s . x)(s . y)."""
    m = draw(st.integers(1, 4))
    n = m + draw(st.integers(0, 1))
    basis = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
        .filter(lambda b: rank(b) == m)
    )
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    shift = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return basis, weights, shift


def weighted_inner(weights, shift):
    def inner(x, y):
        return sum(w * a * b for w, a, b in zip(weights, x, y)) + sum(
            map(mul, shift, x)
        ) * sum(map(mul, shift, y))

    return inner


@given(lattices())
def test_lll_keeps_the_lattice_and_reduces(lattice):
    basis, weights, shift = lattice
    m, n = len(basis), len(basis[0])
    inner = weighted_inner(weights, shift)
    red = lll(basis, inner)
    # same lattice: red = C basis with C integer, and det C = +-1 because
    # the Gram determinants agree
    gram = [[inner(x, y) for y in basis] for x in basis]
    red_gram = [[inner(x, y) for y in red] for x in red]
    _, coeffs = solve(gram, [[inner(b, r) for r in red] for b in basis])
    assert all(c.denominator == 1 for row in coeffs for c in row)
    for k, r in enumerate(red):
        assert r == [sum(coeffs[i][k] * b[t] for i, b in enumerate(basis)) for t in range(n)]
    assert matrix_det(gram) == matrix_det(red_gram)
    # size-reduced and Lovasz, from the Gram–Schmidt data of red
    mu = [[Fraction(0)] * m for _ in range(m)]
    norm = []
    for i in range(m):
        for j in range(i):
            mu[i][j] = (red_gram[i][j] - sum(mu[j][t] * mu[i][t] * norm[t] for t in range(j))) / norm[j]
        norm.append(red_gram[i][i] - sum(mu[i][t] ** 2 * norm[t] for t in range(i)))
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(m) for j in range(i))
    assert all(norm[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norm[i - 1] for i in range(1, m))


def lll_spec(basis, inner):
    """LLL with factor 3/4 in Fractions, its Gram–Schmidt data recomputed
    after every change: b_k is fully size-reduced (round() takes halves to
    even), then the Lovász test swaps or moves on.  The reference for the
    integral lll."""
    b = [list(v) for v in basis]
    m = len(b)

    def gso():
        mu = [[Fraction(0)] * m for _ in range(m)]
        norm: list[Fraction] = []
        for i in range(m):
            for j in range(i):
                mu[i][j] = (inner(b[i], b[j]) - sum(
                    mu[j][t] * mu[i][t] * norm[t] for t in range(j)
                )) / norm[j]
            norm.append(Fraction(inner(b[i], b[i])) - sum(mu[i][t] ** 2 * norm[t] for t in range(i)))
        return mu, norm

    k = 1
    while k < m:
        mu, norm = gso()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if norm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            k = max(k - 1, 1)
    return b


@given(st.one_of(lattices(), lattices(st.integers(-10**6, 10**6))))
# mu = 5/2 rounds to 2 (half to even), where rounding half up gives 3
@example(([[2, 0], [5, 1]], [1, 1], [0, 0]))
@example(([[2, 0], [3, 1]], [1, 1], [0, 0]))  # mu = 3/2 rounds to 2
@example(([[4, 0, 0], [2, 1, 0], [6, 3, 1]], [1, 1, 1], [0, 0, 0]))  # mu = 1/2 stays
def test_lll_matches_fraction_spec(lattice):
    basis, weights, shift = lattice
    inner = weighted_inner(weights, shift)
    assert lll(basis, inner) == lll_spec(basis, inner)


def test_lll_makes_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("lll made a Fraction")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    # a skewed basis of Z^3: four size reductions and three swaps
    basis = [[5, 7, 1], [3, 1, 0], [1, 0, 0]]
    inner = weighted_inner([1, 2, 3], [1, 0, -1])
    assert lll(basis, inner) == lll_spec(basis, inner)
    # the Gram–Schmidt data lll starts from: d_k is the k-th leading minor
    gram = [[inner(x, y) for y in basis] for x in basis]
    d, _ = gram_schmidt(gram)
    assert d == [1, *(matrix_det([row[:k] for row in gram[:k]]) for k in (1, 2, 3))]
