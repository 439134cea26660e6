from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.partitions import (
    _horizontal_strips,
    CholeskyReport,
    Partition,
    contingency_count,
    contingency_matrix,
    count_partitions,
    dominance_leq,
    enumerate_partitions,
    kostka_matrix,
    kostka_number,
    tableau_sum,
    verify_cholesky,
    weight_partitions,
)


# -- independent oracles -------------------------------------------------------


def ssyt_count_oracle(shape, content):
    """Brute-force count of semistandard fillings: all weakly increasing rows,
    strictly increasing columns, with the prescribed content."""
    shape = [x for x in shape if x]
    content = list(content)
    n = len(content)

    def rows(prev_row, remaining_shape, used):
        if not remaining_shape:
            if all(u == c for u, c in zip(used, content)):
                yield ()
            return
        width = remaining_shape[0]

        def fill(row, col):
            if col == width:
                yield row
                return
            lo = row[col - 1] if col else 1
            for val in range(lo, n + 1):
                if used[val - 1] < content[val - 1]:
                    if prev_row is None or col >= len(prev_row) or val > prev_row[col]:
                        used[val - 1] += 1
                        yield from fill(row + (val,), col + 1)
                        used[val - 1] -= 1

        for row in fill((), 0):
            for rest in rows(row, remaining_shape[1:], used):
                yield (row,) + rest

    return sum(1 for _ in rows(None, shape, [0] * n))


def contingency_oracle(rows, cols):
    n = len(rows)
    count = 0
    for flat in product(*(range(min(rows[i], cols[j]) + 1) for i in range(n) for j in range(n))):
        mat = [flat[i * n : (i + 1) * n] for i in range(n)]
        if all(sum(mat[i]) == rows[i] for i in range(n)) and all(
            sum(mat[i][j] for i in range(n)) == cols[j] for j in range(n)
        ):
            count += 1
    return count


# -- construction and enumeration ------------------------------------------------


def test_partition_sorts_on_construction():
    assert tuple(Partition((0, 2, 1))) == (2, 1, 0)
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_v_weight():
    assert Partition((2, 1, 0)).v_weight() == 2 + 2 * 1
    assert Partition((1, 1, 1)).v_weight() == 6


def test_enumerate_small():
    assert [tuple(a) for a in enumerate_partitions(2, 2)] == [(1, 1), (2, 0)]
    assert [tuple(a) for a in enumerate_partitions(3, 3)] == [
        (1, 1, 1),
        (2, 1, 0),
        (3, 0, 0),
    ]
    four = enumerate_partitions(4, 4)
    assert [tuple(a) for a in four] == [
        (1, 1, 1, 1),
        (2, 1, 1, 0),
        (2, 2, 0, 0),
        (3, 1, 0, 0),
        (4, 0, 0, 0),
    ]
    assert len(four) == count_partitions(4, 4) == 5


@given(st.integers(1, 5), st.integers(0, 9))
def test_enumeration_sorted_and_complete(n, total):
    parts = enumerate_partitions(n, total)
    assert parts == sorted(parts)
    assert len(set(parts)) == len(parts)
    assert all(a.weight == total and a.n == n for a in parts)
    assert len(parts) == count_partitions(total, n)


# -- Kostka numbers ---------------------------------------------------------------


def test_kostka_examples():
    assert kostka_number(Partition((1, 1)), Partition((1, 1))) == 1
    assert kostka_number(Partition((2, 1)), Partition((1, 1, 1))) == 2
    with pytest.raises(ValueError):
        kostka_number(Partition((2, 1)), Partition((1, 1)))


def test_kostka_diagonal_is_one():
    for total in range(1, 7):
        for a in enumerate_partitions(4, total):
            assert kostka_number(a, a) == 1


def test_kostka_against_ssyt_oracle():
    for total in range(1, 6):
        for shape in enumerate_partitions(3, total):
            for content in enumerate_partitions(3, total):
                assert kostka_number(shape, content) == ssyt_count_oracle(shape, content)


def test_kostka_dominance_support():
    for total in range(1, 7):
        parts = enumerate_partitions(4, total)
        for shape in parts:
            for content in parts:
                if not dominance_leq(content, shape):
                    assert kostka_number(shape, content) == 0


# -- tableau sums as polynomials in t --------------------------------------------


def strip_weight_spec(shape, smaller, t):
    """psi_{shape/smaller}(t) of Macdonald III (5.8') at t: the product of
    (1 - t^{m_j(smaller)}) over the j >= 1 where the strip has no cell in
    column j and one in column j + 1 (smaller padded to len(shape))."""
    cols = {j for lam, mu in zip(shape, smaller) for j in range(mu + 1, lam + 1)}
    weight = 1
    for j in cols:
        if j > 1 and j - 1 not in cols:
            weight *= 1 - t ** smaller.count(j - 1)
    return weight


def tableau_sum_spec(shape, content, t):
    """The tableau sum of III (5.11') in t's own arithmetic: peel the
    horizontal strip of the largest entry, weight it at t, and recurse."""
    shape = tuple(x for x in shape if x)
    content = tuple(x for x in content if x)
    if not content:
        return 1 if not shape else 0
    below = shape[1:] + (0,)
    total = 0
    for smaller in product(*(range(lo, hi + 1) for lo, hi in zip(below, shape))):
        if sum(shape) - sum(smaller) == content[-1]:
            total += strip_weight_spec(shape, smaller, t) * tableau_sum_spec(
                smaller, content[:-1], t
            )
    return total


@given(st.integers(1, 5).flatmap(lambda n: st.integers(0, 9).flatmap(
    lambda w: st.sampled_from(enumerate_partitions(n, w)))), st.integers(0, 9))
def test_horizontal_strips_are_the_interlacing_shapes(shape, size):
    # shape / smaller is a horizontal strip iff shape_1 >= smaller_1 >= shape_2 >= ...;
    # the strips come largest first
    shape = tuple(x for x in shape if x)
    below = shape[1:] + (0,)
    spec = [smaller for smaller in product(*(range(lo, hi + 1) for lo, hi in zip(below, shape)))
            if sum(shape) - sum(smaller) == size]
    assert list(_horizontal_strips(shape, size)) == [
        tuple(x for x in smaller if x) for smaller in sorted(spec, reverse=True)]


T_VALUES = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.sampled_from((2, 3, 5, 7, 101)).map(lambda p: Fraction(1, p)),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 9)).filter(lambda t: t.numerator != 1),
)


@given(st.integers(1, 5), st.integers(0, 6), T_VALUES)
@settings(max_examples=60, deadline=None)
def test_tableau_sum_matches_fraction_recursion(n, weight, t):
    parts = enumerate_partitions(n, weight)
    for shape in parts:
        for content in parts:
            value = tableau_sum(shape, content, t)
            assert value == tableau_sum_spec(shape, content, t), (shape, content, t)
            if type(t) is int:
                assert type(value) is int


# -- contingency counts ------------------------------------------------------------


def test_contingency_examples():
    assert contingency_count(Partition((2, 0)), Partition((2, 0))) == 1
    assert contingency_count(Partition((2, 0)), Partition((1, 1))) == 1
    assert contingency_count(Partition((1, 1)), Partition((1, 1))) == 2
    assert contingency_count(Partition((1, 1, 1)), Partition((1, 1, 1))) == 6
    with pytest.raises(ValueError):
        contingency_count(Partition((2, 0)), Partition((1, 0)))


def test_contingency_against_bruteforce():
    for total in range(1, 5):
        for rows in enumerate_partitions(3, total):
            for cols in enumerate_partitions(3, total):
                assert contingency_count(rows, cols) == contingency_oracle(rows, cols)


@given(st.integers(1, 6))
@settings(deadline=None)
def test_contingency_transpose_symmetry(n):
    parts = weight_partitions(n)
    for a in parts:
        for b in parts:
            assert contingency_count(a, b) == contingency_count(b, a)


# -- the Gram factorization ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_cholesky(n):
    report = verify_cholesky(n)
    assert isinstance(report, CholeskyReport)
    assert report.success
    assert report.det_is_one
    assert report.lex_triangular_descending


def test_cholesky_n2_kostka_matrix():
    # ascending lex order (1,1), (2,0): shapes are rows
    assert kostka_matrix(2) == [[1, 0], [1, 1]]
    assert contingency_matrix(2) == [[2, 1], [1, 1]]


def test_cholesky_n3_diagonal_entry():
    # the (1,1,1) diagonal entry of D is the squared column norm of A
    a = kostka_matrix(3)
    pi = weight_partitions(3)
    i = pi.index(Partition((1, 1, 1)))
    assert sum(row[i] ** 2 for row in a) == 6
    assert contingency_count(Partition((1, 1, 1)), Partition((1, 1, 1))) == 6
