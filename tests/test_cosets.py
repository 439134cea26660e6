import random
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from heckelab import cosets
from heckelab.partitions import Partition, enumerate_partitions
from heckelab.cosets import (
    CosetBudgetError,
    coset_decomposition,
    determinantal_divisors_bruteforce,
    elementary_divisors,
    hermite_reduce_upper,
    matrix_det,
    oracle_multiply,
)
from spec import need_vector, scaled_inverse

HADAMARD = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def hermite_normal_form(m):
    """Row-style Hermite form of a nonsingular integer matrix, from scratch:
    the oracle that hermite_reduce_upper is checked against.

    Upper triangular with positive diagonal; entry (i, j) for i < j reduced
    into [0, h_jj).  Obtained by left multiplication with unimodular
    matrices only.
    """
    n = len(m)
    a = [list(row) for row in m]
    for col in range(n):
        for r in range(col + 1, n):
            # Euclidean steps: gcd of the column lands in the pivot slot
            while a[r][col]:
                q = a[col][col] // a[r][col]
                a[col] = [x - q * y for x, y in zip(a[col], a[r])]
                a[col], a[r] = a[r], a[col]
        if a[col][col] == 0:
            raise ValueError("singular matrix")
        if a[col][col] < 0:
            a[col] = [-x for x in a[col]]
    # column by column, rows above the pivot less multiples of the pivot row
    for j in range(n):
        for i in range(j):
            q = a[i][j] // a[j][j]
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
    return tuple(tuple(row) for row in a)


# -- normal forms -----------------------------------------------------------------


def test_determinantal_divisor_examples():
    diag = ((4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))
    # elementary divisors (1,2,2,4) so the minor gcds are their partial products
    assert elementary_divisors(diag) == (1, 2, 2, 4)
    assert determinantal_divisors_bruteforce(diag) == (1, 2, 4, 16)
    assert determinantal_divisors_bruteforce(((1, 0), (0, 1))) == (1, 1)
    assert elementary_divisors(HADAMARD) == (1, 2, 2, 4)
    assert determinantal_divisors_bruteforce(HADAMARD) == (1, 2, 4, 16)
    assert abs(matrix_det(HADAMARD)) == 16


def test_hadamard_two_by_two_minors():
    vals = set()
    for r1 in range(4):
        for r2 in range(r1 + 1, 4):
            for c1 in range(4):
                for c2 in range(c1 + 1, 4):
                    vals.add(
                        HADAMARD[r1][c1] * HADAMARD[r2][c2]
                        - HADAMARD[r1][c2] * HADAMARD[r2][c1]
                    )
    assert vals <= {0, 2, -2}


def test_divisors_cross_check_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        while True:
            m = tuple(
                tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(n)
            )
            if matrix_det(m) != 0:
                break
        divs = elementary_divisors(m)
        assert len(divs) == n and divs[0] >= 1
        assert all(b % a == 0 for a, b in zip(divs, divs[1:]))
        assert prod(divs) == abs(matrix_det(m))


def test_divisors_reject_singular():
    with pytest.raises(ValueError):
        elementary_divisors(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        determinantal_divisors_bruteforce(((1, 1), (1, 1)))


def test_hermite_left_invariance():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 3)
        while True:
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            if matrix_det(m) != 0:
                break
        h = hermite_normal_form(m)
        # canonical shape
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i):
                assert h[i][j] == 0
            for j in range(i + 1, n):
                assert 0 <= h[i][j] < h[j][j]
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for k in range(n):
                u[i][k] += c * u[j][k]
        um = tuple(
            tuple(sum(u[i][k] * m[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert hermite_normal_form(um) == h


def test_hermite_reduce_upper_matches_general():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = [[0] * n for _ in range(n)]
        for j in range(n):
            m[j][j] = rng.randint(1, 9)
            for i in range(j):
                m[i][j] = rng.randint(-20, 20)
        mt = tuple(tuple(row) for row in m)
        assert hermite_reduce_upper(mt) == hermite_normal_form(mt)


def _draw_hermite(draw, n, w, p):
    """(y, e): a Hermite form y of det p^w, with diagonal p^e for a drawn
    composition e of w and offsets drawn in [0, p^e_j)."""
    cuts = sorted(draw(st.lists(st.integers(0, w), min_size=n - 1, max_size=n - 1)))
    e = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, w])]
    y = tuple(
        tuple(
            p ** e[j] if i == j else draw(st.integers(0, p ** e[j] - 1)) if i < j else 0
            for j in range(n)
        )
        for i in range(n)
    )
    return y, e


@st.composite
def _prime_power_determinant(draw):
    """(m, p, w) with det m = ±p^w: a Hermite form, or U·diag(p^e)·V with U, V
    unimodular (elementary row operations, and a sign)."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    w = draw(st.integers(0, 5))
    m, e = _draw_hermite(draw, n, w, p)
    if draw(st.booleans()):
        return m, p, w

    def unimodular():
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            u[0][0] = -1
        if n > 1:
            for _ in range(draw(st.integers(0, 6))):
                i, j = draw(st.permutations(range(n)))[:2]
                c = draw(st.integers(-3, 3))
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        return u

    u, v = unimodular(), unimodular()
    ud = [[x * p**ej for x, ej in zip(row, e)] for row in u]
    m = tuple(
        tuple(sum(ud[i][k] * v[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return m, p, w


@settings(max_examples=300)
@given(_prime_power_determinant())
@example((HADAMARD, 2, 4))
def test_p_local_type_matches_smith_form(case):
    m, p, w = case
    assert abs(matrix_det(m)) == p**w
    assert cosets._p_local_type(m, p, w) == elementary_divisors(m)


# -- coset decompositions -----------------------------------------------------------


def test_decomposition_examples():
    assert coset_decomposition(Partition((1, 0)), 3).degree == 4
    assert coset_decomposition(Partition((1, 0, 0)), 2).degree == 7
    cl = coset_decomposition(Partition((2, 2)), 5)
    assert cl.degree == 1 and cl.reps[0] == ((25, 0), (0, 25))


def test_decomposition_reps_are_valid():
    for a, p in ((Partition((2, 0)), 3), (Partition((2, 1, 0)), 2)):
        cl = coset_decomposition(a, p)
        target = tuple(p**e for e in sorted(a))
        assert len(set(cl.reps)) == cl.degree
        for rep in cl.reps:
            assert matrix_det(rep) == p**a.weight
            assert elementary_divisors(rep) == target
            assert hermite_reduce_upper(rep) == rep


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_decomposition_rejects_composite_p(p):
    with pytest.raises(ValueError, match="prime"):
        coset_decomposition(Partition((1, 0)), p)


def test_candidate_count_is_the_number_of_hermite_forms():
    # the closed form [w + n − 1, n − 1]_p counts the sublattices of index p^w:
    # the forms the pass lists, and the sum over diagonals p^b of the offset
    # choices Π_j p^{j·b_j}; (4, 4, 3) and (3, 4, 5), with 925 771 and
    # 508 431 forms, are left to the sum
    listed = [(n, w, 2) for n in range(1, 5) for w in range(5)]
    listed += [(n, w, 3) for n in range(1, 5) for w in range(5) if (n, w) != (4, 4)]
    listed += [(n, w, 5) for n in range(1, 4) for w in range(4)]
    for n, w, p in listed:
        forms, types, inverses = cosets._weight_table(n, w, p)
        assert cosets._candidate_count(n, w, p) == len(types)
        assert sum(len(ys) for ys in forms.values()) == len(types)
        assert sum(len(xs) for groups in inverses.values() for _, xs in groups) == len(types)
    for n in range(1, 7):
        for w in range(7):
            diagonals = [b for b in product(range(w + 1), repeat=n) if sum(b) == w]
            for p in (2, 3, 5, 7, 101):
                walk = sum(prod(p ** (j * e) for j, e in enumerate(b)) for b in diagonals)
                assert cosets._candidate_count(n, w, p) == walk
    # beyond enumeration: the rank-4 budgets at p = 5
    assert cosets._candidate_count(4, 3, 5) == 2_558_556
    assert cosets._candidate_count(4, 4, 5) == 320_327_931


# Weight tables of at most 2 000 forms, and (4, 2, 5) with 20 306, the
# smallest at p = 5 with types such as (1, 1, 5, 5) that D₁ and D_{n−1}
# leave to _p_local_type
SMALL_TABLES = [
    (n, w, p)
    for n in range(1, 6)
    for p in (2, 3, 5)
    for w in range(6)
    if cosets._candidate_count(n, w, p) <= 2000
] + [(4, 2, 5)]


@st.composite
def _hermite_form(draw):
    """(y, p, w): a Hermite form y of det p^w with (n, w, p) in SMALL_TABLES."""
    n, w, p = draw(st.sampled_from(SMALL_TABLES))
    return _draw_hermite(draw, n, w, p)[0], p, w


@settings(max_examples=200, deadline=None)
@given(_hermite_form())
@example((((1, 0, 1, 1), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 0, 2)), 2, 2))
@example((((1, 1, 1, 1), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), 2, 3))
@example((((1, 0, 0, 4), (0, 1, 2, 0), (0, 0, 5, 0), (0, 0, 0, 5)), 5, 2))
@example((((1, 0, 0, 1, 0), (0, 1, 0, 0, 1), (0, 0, 1, 1, 1), (0, 0, 0, 2, 0), (0, 0, 0, 0, 2)), 2, 2))
def test_weight_table_matches_the_specs(case):
    # the table lists y under its Smith type, and its x = p^w·y⁻¹ under
    # that type and the need vector of x, as the one-form specs build them
    y, p, w = case
    forms, types, inverses = cosets._weight_table(len(y), w, p)
    t = types[y]
    assert t == elementary_divisors(y)
    assert y in forms[t]
    x = scaled_inverse(y, p**w)
    assert x in dict(inverses[t])[need_vector(x, p, w)]


def test_gcds_leave_only_unequal_leading_divisors_open():
    # at n = 4, D₁ and D₃ fix (1, 1, 1, 4) and (2, 2, 2, 2), not (1, 1, 2, 2)
    assert cosets._type_from_gcds(1, 1, 4, 4) == (1, 1, 1, 4)
    assert cosets._type_from_gcds(2, 8, 16, 4) == (2, 2, 2, 2)
    assert cosets._type_from_gcds(1, 2, 4, 4) is None
    assert cosets._type_from_gcds(1, 2, 4, 3) == (1, 2, 2)


def test_central_shift_scales_the_forms_of_its_base():
    # the forms of a + (kⁿ) are p^k times those of a, equal, order included,
    # to the group of the full weight table; (4, 4, 3), with 925 771 forms,
    # is left out
    for n in range(1, 5):
        for w in range(5):
            for p in (2, 3):
                if (n, w, p) == (4, 4, 3):
                    continue
                forms, _, _ = cosets._weight_table(n, w, p)
                for a in enumerate_partitions(n, w):
                    if a[-1]:
                        assert cosets._reps(a, p) == forms[cosets._type(a, p)], (a, p)
    # (1, 1, 1) at p = 5 reads the weight-0 table, not the 20 306 forms of det 5³
    for cached in (cosets._weight_table, cosets._reps):
        cached.cache_clear()
    assert coset_decomposition(Partition((1, 1, 1)), 5).reps == (((5, 0, 0), (0, 5, 0), (0, 0, 5)),)
    info = cosets._weight_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_budget_guard():
    with pytest.raises(CosetBudgetError):
        coset_decomposition(Partition((6, 0, 0, 0)), 101, budget=10**4)


def test_enumeration_shared_across_budgets():
    a = Partition((2, 1, 0))
    small = coset_decomposition(a, 3, budget=10**6)
    assert coset_decomposition(a, 3, budget=10**7).reps is small.reps
    # the cached enumeration does not bypass a budget it exceeds
    with pytest.raises(CosetBudgetError):
        coset_decomposition(a, 3, budget=10)


# -- multiplication by fixed-target counting ----------------------------------------


def test_oracle_square_of_first_generator():
    for p in (2, 3, 5):
        out = oracle_multiply(Partition((1, 0)), Partition((1, 0)), p)
        assert out == {Partition((2, 0)): 1, Partition((1, 1)): p + 1}
        # degree bookkeeping: (p+1)^2 = (p^2+p) + (p+1)*1
        assert (p + 1) ** 2 == coset_decomposition(Partition((2, 0)), p).degree + (
            p + 1
        ) * coset_decomposition(Partition((1, 1)), p).degree


def test_oracle_central_factor():
    out = oracle_multiply(Partition((1, 0)), Partition((1, 1)), 3)
    assert out == {Partition((2, 1)): 1}


def test_oracle_rank_three():
    for p in (2, 3):
        out = oracle_multiply(Partition((1, 0, 0)), Partition((1, 1, 0)), p)
        assert out == {
            Partition((2, 1, 0)): 1,
            Partition((1, 1, 1)): 1 + p + p * p,
        }


def test_oracle_degree_consistency():
    from heckelab.satake import degree_via_satake

    for a, b, p in (
        ((2, 0), (1, 0), 3),
        ((1, 1, 0), (1, 0, 0), 2),
        ((2, 0, 0), (1, 1, 0), 3),
    ):
        a, b = Partition(a), Partition(b)
        out = oracle_multiply(a, b, p)
        lhs = sum(alpha * degree_via_satake(c, p) for c, alpha in out.items())
        assert lhs == degree_via_satake(a, p) * degree_via_satake(b, p)


# -- the all-pairs tally: the spec the fixed-target oracle is checked against ---


def _mul_upper(x, y, n):
    """Product of two upper-triangular matrices (result upper triangular)."""
    return tuple(
        tuple(
            sum(x[i][k] * y[k][j] for k in range(i, j + 1)) if j >= i else 0
            for j in range(n)
        )
        for i in range(n)
    )


def oracle_multiply_all_pairs(a, b, p):
    """Structure constants of T_a·T_b by tallying every pairwise product.

    Every product of a left-coset representative of a with one of b is put
    into Hermite form and tallied; grouping the tallies by Smith form gives
    one class per double coset, and the tally, checked to be constant across
    the left cosets of each class, is the multiplicity of that class.
    """
    a, b = Partition(a), Partition(b)
    n = a.n
    ca = coset_decomposition(a, p)
    cb = coset_decomposition(b, p)
    tally = {}
    for x in ca.reps:
        for y in cb.reps:
            h = hermite_reduce_upper(_mul_upper(x, y, n))
            tally[h] = tally.get(h, 0) + 1
    by_class = {}
    for h, count in tally.items():
        by_class.setdefault(elementary_divisors(h), []).append(count)
    out = {}
    for divs, counts in by_class.items():
        if len(set(counts)) != 1:
            raise ArithmeticError(f"tally not constant on class {divs}: {counts}")
        exps = []
        for d in divs:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if d != 1:
                raise ArithmeticError(f"elementary divisors {divs} not powers of {p}")
            exps.append(e)
        out[Partition(exps)] = counts[0]
    return out


@pytest.mark.parametrize(
    "n, p, max_weight", [(2, 2, 3), (2, 3, 3), (2, 5, 3), (3, 2, 2), (3, 3, 2)]
)
def test_oracle_matches_all_pairs_tally(n, p, max_weight):
    parts = [a for w in range(max_weight + 1) for a in enumerate_partitions(n, w)]
    for a in parts:
        for b in parts:
            assert oracle_multiply(a, b, p) == oracle_multiply_all_pairs(a, b, p), (a, b)


def test_scaled_inverse_is_adjugate():
    for b, p in ((Partition((2, 1, 0)), 3), (Partition((3, 1, 0, 0)), 2)):
        d = p**b.weight
        scalar = tuple(tuple(d * (i == j) for j in range(b.n)) for i in range(b.n))
        for y in coset_decomposition(b, p).reps:
            assert _mul_upper(y, scaled_inverse(y, d), b.n) == scalar


def test_oracle_rejects_unequal_diagonal_counts(monkeypatch):
    # miscount at the reversed diagonal only, e.g. diag(1, 4) for the class
    # (2, 0) in T_(1,0)^2 at p = 2, whose count at diag(4, 1) is 1
    tally = cosets._tally
    type_of_a = (1, 2)  # elementary divisors of diag(2^1, 2^0)

    def miscount_reversed(b, exps, p):
        counts = dict(tally(b, exps, p))
        if list(exps) != sorted(exps, reverse=True):
            counts[type_of_a] = counts.get(type_of_a, 0) + 1
        return counts

    monkeypatch.setattr(cosets, "_tally", miscount_reversed)
    with pytest.raises(ArithmeticError):
        oracle_multiply(Partition((1, 0)), Partition((1, 0)), 2)


def test_oracle_builds_each_tally_once(monkeypatch):
    # the n = 3, p = 3 grid of weight <= 3 reads 392 counts from 193 distinct
    # (right factor, target) tallies and builds the weight tables 0..3 once;
    # at n = 3, D₁ and D₂ fix every type, so neither Smith routine runs
    smith, local = [], []
    monkeypatch.setattr(cosets, "elementary_divisors", lambda m: smith.append(m))
    monkeypatch.setattr(cosets, "_p_local_type", lambda *args: local.append(args))
    for cached in (cosets._weight_table, cosets._reps, cosets._tally):
        cached.cache_clear()
    parts = [a for w in range(4) for a in enumerate_partitions(3, w)]
    for a in parts:
        for b in parts:
            oracle_multiply(a, b, 3)
    info = cosets._tally.cache_info()
    assert (info.misses, info.hits) == (193, 199)
    assert cosets._weight_table.cache_info().misses == 4
    assert smith == [] and local == []


def test_central_right_factor_reads_its_base_table():
    # b = (1, 1, 1) = (0, 0, 0) + (1³): cold, the tally reads the weight-0
    # table and the target's weight-1 table, not the 20 306 forms of det 5³
    for cached in (cosets._weight_table, cosets._reps, cosets._tally):
        cached.cache_clear()
    assert oracle_multiply(Partition((1, 0, 0)), Partition((1, 1, 1)), 5) == {Partition((2, 1, 1)): 1}
    assert cosets._weight_table.cache_info().misses == 2
    for a, b, p in (((1, 0, 0), (1, 1, 1), 5), ((2, 1, 0), (2, 1, 1), 2), ((1, 1, 0), (2, 2, 1), 2)):
        assert oracle_multiply(a, b, p) == oracle_multiply_all_pairs(a, b, p), (a, b, p)


def _integral_after_scaling(x, c, p, w):
    """Spec for the need vector: p^{c_i}·x_ij divisible by p^w for every entry."""
    d = p**w
    return all(p**ci * v % d == 0 for ci, row in zip(c, x) for v in row)


@st.composite
def _upper_and_exponents(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    w = draw(st.integers(0, 5))
    # units times p-powers, so that valuations up to and beyond w all occur
    entry = st.builds(lambda u, k: u * p**k, st.integers(-7, 7), st.integers(0, 6))
    x = tuple(
        tuple(draw(entry) if j >= i else 0 for j in range(n)) for i in range(n)
    )
    # c_i > w always passes, so exponents stay in [0, w] where the rule bites
    c = tuple(draw(st.integers(0, w)) for _ in range(n))
    return x, c, p, w


@settings(max_examples=400)
@given(_upper_and_exponents())
def test_need_vector_decides_integrality(case):
    x, c, p, w = case
    need = need_vector(x, p, w)
    assert all(ci >= k for ci, k in zip(c, need)) == _integral_after_scaling(x, c, p, w)


def test_oracle_budget_holds_after_cache():
    # a cached right factor does not bypass either budget check:
    # (2,1,0) at p = 3 enumerates 1 210 candidates and needs 2 184 tests
    a = Partition((2, 1, 0))
    assert oracle_multiply(a, a, 3, budget=10**6)
    for budget in (2000, 1000):
        with pytest.raises(CosetBudgetError):
            oracle_multiply(a, a, 3, budget=budget)


def test_oracle_decomposes_both_factors_every_call(monkeypatch):
    calls = []
    decompose = cosets.coset_decomposition

    def counted(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(cosets, "coset_decomposition", counted)
    a, b = Partition((2, 0, 0)), Partition((1, 1, 0))
    first = oracle_multiply(a, b, 3)
    assert len(calls) == 2
    # the second product hits the per-(b, p) cache of scaled inverses
    assert oracle_multiply(a, b, 3) == first
    assert len(calls) == 4


def test_oracle_rejects_mixed_ranks():
    # under python -O an assert let this return a mixed-rank tally
    with pytest.raises(ValueError):
        oracle_multiply((1, 0), (1, 0, 0), 2)


def test_rank_zero_rejected():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        coset_decomposition(Partition(()), 3)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        oracle_multiply((), (), 3)


def test_oracle_budget():
    with pytest.raises(CosetBudgetError):
        oracle_multiply(Partition((3, 0, 0)), Partition((3, 0, 0)), 5, budget=10**5)
