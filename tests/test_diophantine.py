from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heckelab.cosets import determinantal_divisors_bruteforce, matrix_det
from heckelab.diophantine import (
    MIN_DISC,
    QuadPoly2,
    QuadraticForm,
    _extend_minors,
    _floor_root,
    _int_nth_root,
    _lanes_in_window,
    _laplace_plan,
    _minor_gcd,
    _pack_lanes,
    brute_force_S_delta,
    corollary_count_experiment,
    corollary_count_ladder,
    deviation_at_most,
    enumerate_S_delta,
    fit_exponent,
    lembp_count,
    quadratic_shell_points,
    scaling_experiment,
)
from heckelab.linalg import solve

DELTA = Fraction(1, 10**6)
I2 = QuadraticForm.identity(2)
I3 = QuadraticForm.identity(3)
I4 = QuadraticForm.identity(4)


def sum_two_squares_count(m: int) -> int:
    """r_2(m) via the divisor character (independent arithmetic oracle)."""
    if m == 0:
        return 1
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            if d % 4 == 1:
                total += 1
            elif d % 4 == 3:
                total -= 1
    return 4 * total


def all_hadamard_witnesses():
    """All 4x4 matrices with entries +-1, H^T H = 4I, and determinant +16."""
    out = []
    for signs in product((-1, 1), repeat=16):
        h = tuple(tuple(signs[4 * i + j] for j in range(4)) for i in range(4))
        cols = list(zip(*h))
        if all(
            sum(a * b for a, b in zip(cols[i], cols[j])) == (4 if i == j else 0)
            for i in range(4)
            for j in range(i, 4)
        ) and matrix_det(h) == 16:
            out.append(h)
    return sorted(out)


@st.composite
def rational_spd_forms(draw, max_n=3):
    """Diagonally dominant symmetric forms with small rational entries, so
    the completed squares have non-integer coefficients."""
    n = draw(st.integers(1, max_n))
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = q[j][i] = draw(small)
    for i in range(n):
        slack = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)))
        q[i][i] = sum(abs(x) for x in q[i]) + slack
    return QuadraticForm(q)


def columns_proportional_mod(gamma, l: int) -> bool:
    """Each pair of columns differs mod l by a unit multiple (entries coprime to l)."""
    n = len(gamma)
    cols = list(zip(*gamma))
    for i in range(n):
        for j in range(i + 1, n):
            found = False
            for a in range(1, l):
                if gcd(a, l) != 1:
                    continue
                if all((cols[j][t] - a * cols[i][t]) % l == 0 for t in range(n)):
                    found = True
                    break
            if not found:
                return False
    return True


def shell_in_windows_spec(q, lo, hi, windows):
    """The unconstrained shell filtered by every window: the specification
    of quadratic_shell_points(..., windows=windows)."""
    return [
        y
        for y in quadratic_shell_points(q, lo, hi)
        if all(g_lo <= sum(a * b for a, b in zip(v, y)) <= g_hi for v, g_lo, g_hi in windows)
    ]


def root_bracket_spec(value, n, prec_bits):
    """Rational bracket of value^(1/n), value >= 1, of width at most 2^-prec_bits,
    by bisection from [0, 2^(bits/n + 1)]; zero-width when a midpoint is the root."""
    lo, hi = Fraction(0), Fraction(2 ** (value.bit_length() // n + 1))
    while hi - lo > Fraction(1, 2**prec_bits):
        mid = (lo + hi) / 2
        if mid**n == value:
            return mid, mid
        lo, hi = (mid, hi) if mid**n < value else (lo, mid)
    return lo, hi


def deviation_bracket_spec(gamma, Q, prec_bits):
    """The deviation bracket entry by entry in Fraction arithmetic."""
    n = Q.n
    det = matrix_det(gamma)
    if det <= 0:
        raise ValueError("determinant must be positive")
    r_lo, r_hi = root_bracket_spec(det * det, n, prec_bits)
    cols = list(zip(*gamma))
    gram = [[Q.apply(cols[i], cols[j]) for j in range(n)] for i in range(n)]
    dev_lo = Fraction(0)
    dev_hi = Fraction(0)
    for i in range(n):
        for j in range(n):
            m = gram[i][j]
            qij = Q.entries[i][j]
            # interval of (m - r*q)/r = m/r - q over r in [r_lo, r_hi]
            cands = [m / r_lo - qij, m / r_hi - qij]
            elo, ehi = min(cands), max(cands)
            alo = Fraction(0) if elo <= 0 <= ehi else min(abs(elo), abs(ehi))
            ahi = max(abs(elo), abs(ehi))
            dev_lo = max(dev_lo, alo)
            dev_hi = max(dev_hi, ahi)
    return dev_lo, dev_hi


def deviation_at_most_spec(gamma, Q, delta, prec_bits=60, max_bits=4096):
    """deviation <= delta by bracketing det^(2/n) and doubling the precision
    until the deviation bracket lies on one side of delta."""
    delta = Fraction(delta)
    bits = prec_bits
    while bits <= max_bits:
        lo, hi = deviation_bracket_spec(gamma, Q, bits)
        if hi <= delta:
            return True
        if lo > delta:
            return False
        bits *= 2
    raise RuntimeError("deviation test undecided at the maximum precision")


def at_most_times_root(a, c, v, n):
    """a <= c * v^(1/n) for integer a, rational c and integer v >= 0, by n-th powers."""
    if c >= 0:
        return a <= 0 or a**n <= c**n * v
    return a <= 0 and (-a) ** n >= (-c) ** n * v


def in_gram_window(g, s, scale, delta, det, n):
    """(s - scale*delta) r <= g <= (s + scale*delta) r at r = det^(2/n), by n-th powers."""
    width = scale * Fraction(delta)
    return (
        at_most_times_root(-g, width - s, det * det, n)
        and at_most_times_root(g, s + width, det * det, n)
    )


# -- quadratic forms ---------------------------------------------------------------


def test_form_validation():
    with pytest.raises(ValueError):
        QuadraticForm(((1, 2), (3, 1)))
    with pytest.raises(ValueError):
        QuadraticForm(((1, 2), (2, 1)))  # indefinite
    with pytest.raises(ValueError):
        QuadraticForm(())  # rank 0: the shell would index an empty basis


def test_form_rows_must_have_length_n():
    # the CLI reads forms from files, so a ragged row is outside input
    with pytest.raises(ValueError):
        QuadraticForm(((1, 0, 5), (0, 1)))


def positive_definite(q) -> bool:
    """Sylvester's criterion for the rational symmetric q: every leading
    principal minor of q, cleared of its denominators, is positive."""
    scale = lcm(*(Fraction(x).denominator for row in q for x in row))
    m = [[int(x * scale) for x in row] for row in q]
    return all(matrix_det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1))


def eigen_bounds(q):
    """Exact rational bounds 0 < lo <= lambda_min, lambda_max <= hi of a form.

    lo = 1/trace(Q^-1) and hi = trace(Q): a trace of positive eigenvalues
    bounds the largest of them, and the largest eigenvalue of Q^-1 is
    1/lambda_min.
    """
    n = q.n
    _, inv = solve(q.entries, [[int(i == j) for j in range(n)] for i in range(n)])
    return 1 / sum(inv[i][i] for i in range(n)), sum(q.entries[i][i] for i in range(n))


def test_eigen_bounds_certified():
    q = QuadraticForm.random_spd(3, seed=2)
    lo, hi = eigen_bounds(q)
    assert 0 < lo <= hi
    # certified: Q - lo*I and hi*I - Q positive definite by Sylvester
    import numpy as np

    w = np.linalg.eigvalsh([[float(x) for x in row] for row in q.entries])
    assert float(lo) <= w[0] + 1e-9 and w[-1] <= float(hi) + 1e-9


# lambda_min about 1e-7 and 1e-8
TINY_LAMBDA_MIN_FORMS = [
    ((Fraction(1, 10**7), 0), (0, 1)),
    ((1, -(10**4)), (-(10**4), 10**8 + 1)),
]


@pytest.mark.parametrize("entries", TINY_LAMBDA_MIN_FORMS)
def test_eigen_bounds_tiny_lambda_min(entries):
    q = QuadraticForm(entries)
    lo, _ = eigen_bounds(q)
    assert 0 < lo
    shifted = [[q.entries[i][j] - (lo if i == j else 0) for j in range(q.n)] for i in range(q.n)]
    assert positive_definite(shifted)


# an entry beyond float range: float(10**400) overflows
HUGE_ENTRY_FORM = ((10**400, 0), (0, 1))


def test_eigen_bounds_beyond_float_range():
    q = QuadraticForm(HUGE_ENTRY_FORM)
    lo, hi = eigen_bounds(q)
    for shifted in (
        [[q.entries[i][j] - (lo if i == j else 0) for j in range(2)] for i in range(2)],
        [[(hi if i == j else 0) - q.entries[i][j] for j in range(2)] for i in range(2)],
    ):
        assert positive_definite(shifted)
    assert len(quadratic_shell_points(q, 0, 5)) == 5
    rep = corollary_count_experiment(q, 0, 1, DELTA, [], [1], collect_witnesses=True)
    assert [w[0] for w in rep.witnesses] == [(0, -1), (0, 1)]
    sd = enumerate_S_delta(q, 1, 1, DELTA)
    assert sd.witnesses == [((-1, 0), (0, -1)), ((1, 0), (0, 1))]


def test_random_spd_deterministic():
    assert QuadraticForm.random_spd(4, seed=9) == QuadraticForm.random_spd(4, seed=9)


# -- binary quadratic counting --------------------------------------------------------


def test_lembp_origin_only():
    assert lembp_count(QuadPoly2(1, 0, 1), Fraction(1, 2)).count == 1


def test_lembp_circle():
    rep = lembp_count(QuadPoly2(1, 0, 1, 0, 0, -25), Fraction(1, 2))
    assert rep.count == 12 == sum_two_squares_count(25)


def test_lembp_hexagonal_units():
    assert lembp_count(QuadPoly2(1, 1, 1, 0, 0, -1), Fraction(1, 2)).count == 6


def swapped(P: QuadPoly2) -> QuadPoly2:
    """P with x and y exchanged."""
    return QuadPoly2(P.c, P.b, P.a, P.e, P.d, P.f)


def test_lembp_swap_symmetry():
    p = QuadPoly2(2, 1, 3, Fraction(1, 2), -1, -20)
    assert lembp_count(p, Fraction(3, 4)).count == lembp_count(swapped(p), Fraction(3, 4)).count


def lembp_scan_spec(P, delta):
    """Witnesses of |P| < delta from a scan of the square [-R, R]^2, with R
    from the trace bound lo <= lambda_min on the quadratic part:
    lo (x^2 + y^2) <= P - dx - ey - f < delta + (|d| + |e|) R + |f|."""
    lo, _ = eigen_bounds(QuadraticForm(((P.a, P.b / 2), (P.b / 2, P.c))))
    lin = abs(P.d) + abs(P.e)
    radius = (lin + Fraction(isqrt(ceil(lin**2 + 4 * lo * (abs(P.f) + delta))) + 1)) / (2 * lo)
    R = floor(radius) + 1
    # |P| < delta, tested on L*P and L*delta with L clearing every denominator
    L = lcm(delta.denominator, *(getattr(P, k).denominator for k in "abcdef"))
    a, b, c, d, e, f = (int(getattr(P, k) * L) for k in "abcdef")
    bound = int(delta * L)
    return [
        ((x, y),)
        for x in range(-R, R + 1)
        for y in range(-R, R + 1)
        if abs(a * x * x + b * x * y + c * y * y + d * x + e * y + f) < bound
    ]


@given(
    st.integers(1, 4), st.integers(-3, 3), st.integers(1, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-40, 10), st.integers(1, 3)),
    st.sampled_from((Fraction(1, 2), Fraction(3, 4), Fraction(4))),
)
# x^2 < 25 + 1/16 puts (4x)^2 one below the bound 401 at x = +-5
@example(1, 0, 1, Fraction(0), Fraction(0), Fraction(-25), Fraction(1, 16))
@settings(max_examples=40, deadline=None)
def test_lembp_ranges_keep_every_witness(a, b, c, d, e, f, delta):
    P = QuadPoly2(a, b, c, d, e, f)
    assume(P.discriminant <= -MIN_DISC)
    rep = lembp_count(P, delta, collect_witnesses=True)
    assert rep.witnesses == lembp_scan_spec(P, delta)
    assert rep.count == len(rep.witnesses)


def test_lembp_counts_a_large_circle_and_a_skewed_ellipse():
    # only the annulus 10^6 - 1/2 < x^2 + y^2 < 10^6 + 1/2 is searched, not its disk
    assert lembp_count(QuadPoly2(1, 0, 1, 0, 0, -10**6), Fraction(1, 2)).count == (
        sum_two_squares_count(10**6)
    )
    # discriminant -399/10000: the ellipse's axes differ by a factor of about 20
    skewed = QuadPoly2(1, Fraction(199, 100), 1, 0, 0, -400)
    rep = lembp_count(skewed, Fraction(1, 2), collect_witnesses=True)
    assert rep.count == 54
    assert rep.witnesses == lembp_scan_spec(skewed, Fraction(1, 2))


def test_lembp_rejects_indefinite():
    with pytest.raises(ValueError):
        lembp_count(QuadPoly2(1, 3, 1), 1)


# -- shell enumeration -------------------------------------------------------------------


def test_shell_matches_arithmetic_oracle():
    for m in (1, 4, 25, 49, 65):
        pts = quadratic_shell_points(I2, m, m)
        assert len(pts) == sum_two_squares_count(m)


def test_shell_exactness_on_boundary():
    pts = quadratic_shell_points(I2, 24, 25)
    assert len(pts) == sum_two_squares_count(25)  # 24 has no representations
    pts = quadratic_shell_points(I2, 24, 26)
    assert len(pts) == sum_two_squares_count(25) + sum_two_squares_count(26)


def test_shell_respects_form():
    q = QuadraticForm(((2, 1), (1, 2)))
    pts = quadratic_shell_points(q, 2, 2)
    assert set(pts) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


@given(st.integers(0, 120))
@settings(max_examples=25, deadline=None)
def test_shell_brute_force_equivalence(m):
    q = QuadraticForm(((1, 0, 0), (0, 2, 1), (0, 1, 3)))
    pts = set(quadratic_shell_points(q, m, m + 1))
    box = 12
    brute = {
        y
        for y in product(range(-box, box + 1), repeat=3)
        if m <= (y[0] ** 2 + 2 * y[1] ** 2 + 2 * y[1] * y[2] + 3 * y[2] ** 2) <= m + 1
    }
    assert pts == brute


def test_shell_exact_beyond_float_precision():
    # a float square root misses this point by thousands
    r = 10**20 + 12345
    assert quadratic_shell_points(QuadraticForm.identity(1), r * r, r * r) == [(-r,), (r,)]


@given(
    rational_spd_forms(),
    st.fractions(min_value=-2, max_value=8, max_denominator=5),
    st.fractions(min_value=0, max_value=4, max_denominator=5),
)
@example(  # scale 6, d = 1, 6, 63, 708: W = 44604 and w = 7434, 118, 1
    QuadraticForm(
        ((1, Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), 2, 0), (Fraction(1, 3), 0, 2))
    ),
    Fraction(3),
    Fraction(2),
)
@settings(max_examples=60, deadline=None)
def test_shell_rational_form_brute_force(q, lo, width):
    hi = lo + width
    pts = quadratic_shell_points(q, lo, hi)
    # |y_i|^2 <= y^T Q y / lambda_min, with lambda_min bounded below by a
    # float estimate that is certified exactly (Q - lam*I positive definite)
    import numpy as np

    w = np.linalg.eigvalsh([[float(x) for x in row] for row in q.entries])
    lam = Fraction(float(w[0])).limit_denominator(10**6) * Fraction(15, 16)
    shifted = [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(q.entries)]
    assert positive_definite(shifted)
    box = isqrt(floor(max(hi, 0) / lam)) + 1
    brute = [
        y
        for y in product(range(-box, box + 1), repeat=q.n)
        if lo <= q.apply(y, y) <= hi
    ]
    assert pts == brute


# det 1 and lambda_min about 2^-60: shell points have coordinates near 2^30
LARGE_FORMS = [QuadraticForm(((2**60 + 1, 2**30), (2**30, 1))), QuadraticForm(HUGE_ENTRY_FORM)]


@given(
    st.integers(0, 3),
    st.fractions(min_value=-2, max_value=6, max_denominator=5),
    st.fractions(min_value=0, max_value=6, max_denominator=5),
    st.sampled_from([1, 2**60 + 3]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_shell_windows_match_filtered_shell(kind, lo, width, big, data):
    q = data.draw(st.sampled_from(LARGE_FORMS) if kind == 0 else rational_spd_forms())
    n, hi = q.n, lo + width
    pts = quadratic_shell_points(q, lo, hi)
    y0 = data.draw(st.sampled_from(pts)) if pts else (0,) * n
    windows = []
    for _ in range(data.draw(st.integers(1, 3))):
        if windows and data.draw(st.booleans()):
            # an integer combination of the earlier rows: a dependent condition
            coefs = [data.draw(st.integers(-2, 2)) for _ in windows]
            v = [sum(c * w[0][i] for c, w in zip(coefs, windows)) for i in range(n)]
        else:
            v = [big * data.draw(st.integers(-4, 4)) for _ in range(n)]
        centre = sum(a * b for a, b in zip(v, y0))
        # a width below 0 leaves the window empty: an inconsistent condition
        g_lo = centre - big * data.draw(st.integers(-1, 3))
        g_hi = centre + big * data.draw(st.integers(-1, 3))
        windows.append((v, g_lo, g_hi))
    got = quadratic_shell_points(q, lo, hi, windows=windows)
    assert got == shell_in_windows_spec(q, lo, hi, windows)


@pytest.mark.parametrize("windows,expected", [
    ([((1, 0, 0), 1, 1), ((2, 0, 0), 2, 2)], 9),  # y_0 = 1, twice
    ([((1, 0, 0), 1, 1), ((2, 0, 0), 3, 3)], 0),  # y_0 = 1 and y_0 = 3/2
    ([((0, 0, 0), 1, 2)], 0),  # 0 outside its window
    ([((0, 0, 0), -1, 0), ((1, 1, 1), -1, 1)], 19),
], ids=["dependent", "inconsistent", "zero-row-empty", "zero-row-kept"])
def test_shell_windows_dependent_and_inconsistent(windows, expected):
    got = quadratic_shell_points(I3, 0, 3, windows=windows)
    assert got == shell_in_windows_spec(I3, 0, 3, windows)
    assert len(got) == expected


# -- corollary-style counts ---------------------------------------------------------------


def test_corollary_circle_count():
    rep = corollary_count_experiment(I2, 0, 5, DELTA, [], [25])
    assert rep.count == 12


def test_corollary_plane_circle_stays_small():
    for X in (10, 20, 40):
        rep = corollary_count_experiment(
            I3, 1, X, Fraction(1, X**5), [(1, 0, 0)], [X * X, 0]
        )
        assert rep.count <= 48


def planted_targets(q, xs, ystar):
    return [q.apply(ystar, ystar)] + [q.apply(x, ystar) for x in xs]


RATIONAL_Q = QuadraticForm((
    (Fraction(3, 2), Fraction(1, 3), 0),
    (Fraction(1, 3), 1, Fraction(1, 5)),
    (0, Fraction(1, 5), Fraction(5, 4)),
))
SPD_4 = QuadraticForm.random_spd(3, seed=4)


@pytest.mark.parametrize(
    "q,X,delta,xs,targets,box,expected",
    [
        (SPD_4, 8, Fraction(1, 8**4), [(1, 2, -1)],
         planted_targets(SPD_4, [(1, 2, -1)], (2, -3, 1)), 40, None),
        # scale 60: each integer window is a rational window times 60
        (RATIONAL_Q, 6, Fraction(1, 12), [(1, -1, 2)],
         planted_targets(RATIONAL_Q, [(1, -1, 2)], (2, -1, 1)), 6, 25),
        # linearly dependent conditions: y_0 = 1 twice, then |y|^2 = 14
        (I4, 6, Fraction(1, 216), [(1, 0, 0, 0), (2, 0, 0, 0)], [14, 1, 2], 4, 24),
    ],
    ids=["random-spd", "rational-scale-60", "dependent-conditions"],
)
def test_corollary_counts_match_direct_filter(q, X, delta, xs, targets, box, expected):
    rep = corollary_count_experiment(q, len(xs), X, delta, xs, targets, collect_witnesses=True)
    err = Fraction(X) ** 2 * delta
    brute = [
        y
        for y in product(range(-box, box + 1), repeat=q.n)
        if abs(q.apply(y, y) - targets[0]) <= err
        and all(abs(q.apply(x, y) - t) <= err for x, t in zip(xs, targets[1:]))
    ]
    assert rep.count == len(brute)
    assert {w[0] for w in rep.witnesses} == set(brute)
    if expected is not None:
        assert rep.count == expected


def test_corollary_rejects_bad_shapes():
    with pytest.raises(ValueError):
        corollary_count_experiment(I2, 1, 5, DELTA, [(1, 0)], [25, 0])  # k > n - 2
    with pytest.raises(ValueError):
        corollary_count_experiment(I3, 1, 5, DELTA, [(1, 0, 0)], [25])  # no linear target


def test_ladder_rejects_a_form_of_another_rank():
    # a 2x2 form would be zipped against 3-vectors, silently dropping a coordinate
    with pytest.raises(ValueError, match="rank 2, not n = 3"):
        corollary_count_ladder(3, 0, [4], seed=0, Q=I2)


def test_ladder_exponent_fit():
    assert fit_exponent([10, 20, 40], [100, 400, 1600]) == pytest.approx(2.0)
    assert fit_exponent([10], [5]) is None
    # fewer than two distinct sizes determine no line
    assert fit_exponent([2, 2], [384, 384]) is None
    assert fit_exponent([10, 10], [216, 252]) is None
    assert fit_exponent([10, 10, 20], [216, 252, 0]) is None
    rep = corollary_count_ladder(3, 0, [6, 12, 24], seed=3)
    assert rep.exponent_fit is not None
    assert rep.count == sum(row["count"] for row in rep.notes["ladder"])


# -- deviations ---------------------------------------------------------------------------


JUST_BELOW = Fraction(1, 10**9)


def test_matrix_deviation_examples():
    # scaled isometries have deviation 0; diag(2, 1) has r = 2 and G / r =
    # diag(2, 1/2), so deviation 1
    h = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
    for gamma, q, dev in ((((3, 0), (0, 3)), I2, 0), (h, I4, 0), (((2, 0), (0, 1)), I2, 1)):
        assert deviation_at_most(gamma, q, dev)
        assert not deviation_at_most(gamma, q, dev - JUST_BELOW)
    with pytest.raises(ValueError):
        deviation_at_most(((0, 1), (1, 0)), I2, 1)  # negative determinant


def test_deviation_rejects_wrong_shape():
    # unchecked, rows of the wrong length are zipped short and can pass
    identity4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    with pytest.raises(ValueError, match="3 by 3"):
        deviation_at_most(identity4, I3, 0)
    with pytest.raises(ValueError):
        deviation_at_most(((1, 0, 0), (0, 1, 0)), I3, 0)


def test_deviation_gate_exact_and_irrational():
    assert deviation_at_most(((3, 0), (0, 3)), I2, DELTA)
    assert not deviation_at_most(((2, 0), (0, 1)), I2, Fraction(1, 2))
    # det 2 in rank 2: root is rational (2), but rank-3 det 2 is irrational
    gamma = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    assert not deviation_at_most(gamma, I3, Fraction(1, 10))
    assert deviation_at_most(gamma, I3, Fraction(2))


def test_deviation_gate_beyond_float_range():
    # det^2 = 10^320 overflows a float; the root 10^80 is exact
    gamma = tuple(tuple(10**40 * int(i == j) for j in range(4)) for i in range(4))
    assert deviation_at_most(gamma, I4, 0)


def test_int_nth_root_near_large_power():
    assert _int_nth_root(10**400 + 1, 4) == 10**100
    assert _int_nth_root(10**400 - 1, 4) == 10**100 - 1


@given(st.integers(0, 2**2000 - 1), st.integers(2, 6))
def test_int_nth_root_is_floor(v, n):
    r = _int_nth_root(v, n)
    assert r**n <= v < (r + 1) ** n


def test_deviation_scale_invariance():
    # det 5 and G = ((5, 5), (5, 10)), so G / r = ((1, 1), (1, 2)): deviation 1
    gamma = ((2, 1), (1, 3))
    doubled = tuple(tuple(2 * x for x in row) for row in gamma)
    # integer rotation of the form leaves the deviation unchanged
    rot = ((0, -1), (1, 0))
    rotated = tuple(
        tuple(sum(rot[i][k] * gamma[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    for g in (gamma, doubled, rotated):
        assert deviation_at_most(g, I2, 1)
        assert not deviation_at_most(g, I2, 1 - JUST_BELOW)


@given(rational_spd_forms(max_n=4), st.integers(0, 10**40), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_deviation_at_most_matches_spec(q, c, wide, data):
    # c I is a scaled isometry of every form; E moves gamma off it by entries
    # of size up to 4 or up to 10^40
    n = q.n
    e = st.integers(-(10**40), 10**40) if wide else st.integers(-4, 4)
    gamma = [[c * (i == j) + data.draw(e) for j in range(n)] for i in range(n)]
    assume(matrix_det(gamma) != 0)
    if matrix_det(gamma) < 0:
        gamma[0] = [-x for x in gamma[0]]
    gamma = tuple(map(tuple, gamma))
    lo, hi = deviation_bracket_spec(gamma, q, 60)
    delta = data.draw(st.sampled_from([0, lo, hi, (lo + hi) / 2, 2 * hi]))
    delta += data.draw(st.sampled_from([-JUST_BELOW, 0, JUST_BELOW]))
    assert deviation_at_most(gamma, q, delta) == deviation_at_most_spec(gamma, q, delta)


@given(rational_spd_forms(max_n=4), st.integers(1, 10**6), st.data())
@settings(max_examples=60, deadline=None)
def test_deviation_at_most_at_a_rational_deviation(q, t, data):
    # gamma = L U with L unit lower and U upper triangular with diagonal t:
    # det^2 = t^(2n) is a perfect n-th power, so r = t^2 and the deviation
    # is rational
    n = q.n
    entries = st.integers(-(10**6), 10**6)
    lower = [[1 if i == j else data.draw(entries) if i > j else 0 for j in range(n)]
             for i in range(n)]
    upper = [[t if i == j else data.draw(entries) if i < j else 0 for j in range(n)]
             for i in range(n)]
    gamma = tuple(
        tuple(sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    dev, dev_hi = deviation_bracket_spec(gamma, q, 60)
    assert dev == dev_hi
    for delta, expected in ((dev, True), (dev - JUST_BELOW, False), (dev + JUST_BELOW, True)):
        assert deviation_at_most(gamma, q, delta) == expected
        assert deviation_at_most_spec(gamma, q, delta) == expected


@given(
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**12),
    st.integers(0, 2**200),
    st.integers(1, 6),
)
@example(Fraction(-3, 2), 4, 2)  # -3/2 * 2 = -3 exactly
@example(Fraction(-7, 3), 0, 3)
def test_floor_root_is_floor(c, v, n):
    f = _floor_root(c, v, n)
    assert at_most_times_root(f, c, v, n)
    assert not at_most_times_root(f + 1, c, v, n)


# -- the matrix enumerator ------------------------------------------------------------------


@given(st.integers(1, 4), st.sampled_from([1, 2, 3]), st.data())
@settings(max_examples=80, deadline=None)
def test_carried_minors_match_determinant_and_divisors(n, l, data):
    # the columns after the first are multiples of l, so l divides every
    # 2-by-2 minor, as the search's pools guarantee
    cols = [
        tuple(data.draw(st.integers(-5, 5)) * (l if j else 1) for _ in range(n))
        for j in range(n)
    ]
    plan = _laplace_plan(n)
    minors, g2 = [1], 0
    for j, col in enumerate(cols):
        g2 = _minor_gcd(g2, cols[:j], col, list(combinations(range(n), 2)), l)
        minors = _extend_minors(minors, col, plan[j])
        subsets = list(combinations(range(n), j + 1))
        assert len(minors) == len(subsets)
        for rows, minor in zip(subsets, minors):
            assert minor == matrix_det([[cols[c][r] for c in range(j + 1)] for r in rows])
    gamma = tuple(zip(*cols))
    assert minors == [matrix_det(gamma)]
    if n >= 2 and matrix_det(gamma):
        assert g2 == determinantal_divisors_bruteforce(gamma)[1]


@given(st.sampled_from([(8, 5, 76), (16, 100, 12766)]), st.data())
@settings(max_examples=80, deadline=None)
def test_lanes_in_window_matches_direct_test(shape, data):
    # 2 R^2 + L + 1 < 2^(width-1): every |v - lo| and |v - hi - 1| fits a
    # lane, with no margin to spare
    width, R, L = shape
    coords = st.integers(-R, R)
    points = data.draw(st.lists(st.tuples(coords, coords), max_size=40))
    c = data.draw(st.tuples(coords, coords))
    lo, hi = data.draw(st.integers(-L, L)), data.draw(st.integers(-L, L))
    total = sum(c[r] * _pack_lanes([x[r] for x in points], width) for r in range(2))
    expected = sum(
        1 << t for t, x in enumerate(points) if lo <= c[0] * x[0] + c[1] * x[1] <= hi
    )
    assert _lanes_in_window(total, len(points), width, lo, hi) == expected


@pytest.mark.parametrize("delta,count,nodes,rejections", [
    (1 / root_bracket_spec(4, 3, 60)[1], 72, 306, {"det": 120, "divisors": 0}),
    (1 / root_bracket_spec(4, 3, 120)[0], 456, 4950, {"det": 4176, "divisors": 0}),
], ids=["rejected", "accepted"])
def test_deviation_decides_leaves_the_gram_windows_admit(delta, count, nodes, rejections):
    # r = 2^(2/3) is irrational, and a matrix with an off-diagonal Gram entry
    # G_ij = +-1 has deviation at least 1/r.  delta = 1/r_hi(60 bits) lies
    # just below 1/r, so the windows of the off-diagonal entries are {0};
    # delta = 1/r_lo(120 bits) lies just above it, so they are {-1, 0, 1}
    rep = enumerate_S_delta(I3, 2, 1, delta)
    assert rep.count == count
    assert rep.notes["nodes"] == nodes
    assert rep.notes["leaf_rejections"] == rejections
    assert rep.witnesses == brute_force_S_delta(I3, 2, 1, delta, 1)
    assert all(deviation_at_most_spec(w, I3, delta) for w in rep.witnesses)


def test_orthogonal_group_counts():
    rep = enumerate_S_delta(I2, 1, 1, DELTA)
    assert rep.count == 4  # determinant +1 signed permutations
    rep3 = enumerate_S_delta(I3, 1, 1, DELTA)
    assert rep3.count == 24


# Column pairs (j, k) whose entries Q_jj, Q_kk, Q_jk differ must not share
# pool filters.  The pairs of Q3_MIXED differ in every pair of entries; two
# pairs of Q3_EQUAL_DIAGONAL differ only in Q_jk; two pairs of
# Q3_EQUAL_OFF_DIAGONAL differ only in Q_jj, and two others only in Q_kk.
Q3_MIXED = QuadraticForm(((2, 1, 0), (1, 3, 1), (0, 1, 2)))
Q3_EQUAL_DIAGONAL = QuadraticForm(((2, 1, 1), (1, 2, 0), (1, 0, 2)))
Q3_EQUAL_OFF_DIAGONAL = QuadraticForm(((2, 1, 1), (1, 3, 1), (1, 1, 4)))


def test_small_cases_match_brute_force():
    # box bounds every entry of a witness.  For the Q3 forms: a column y
    # meets y^T Q y <= (Q_kk + delta) m^(2/3), and y_i^2 <= y^T Q y (Q^-1)_ii;
    # Q3_MIXED: y^T Q y < 10.1 and (Q^-1)_ii <= 5/8, so |y_i| <= 2;
    # Q3_EQUAL_DIAGONAL: y^T Q y <= 5/2 and (Q^-1)_ii <= 1, so |y_i| <= 1;
    # Q3_EQUAL_OFF_DIAGONAL: y^T Q y <= 5 and (Q^-1)_ii <= 11/17, so |y_i| <= 1
    for q, m, l, delta, box in (
        (I2, 1, 1, DELTA, 2),
        (I2, 4, 4, DELTA, 3),
        (I2, 9, 9, DELTA, 4),
        (I3, 1, 1, DELTA, 2),
        (QuadraticForm(((2, 0), (0, 2))), 4, 4, DELTA, 3),
        (Q3_MIXED, 4, 2, Fraction(1), 2),
        (Q3_EQUAL_DIAGONAL, 1, 1, Fraction(1, 2), 1),
        (Q3_EQUAL_OFF_DIAGONAL, 1, 1, Fraction(1), 1),
    ):
        rep = enumerate_S_delta(q, m, l, delta)
        assert rep.witnesses == brute_force_S_delta(q, m, l, delta, box), (q, m, l)


@pytest.mark.parametrize("q,m,l,delta,prefixes,count,rejections", [
    (I3, 2, 1, Fraction(2, 5), 306, 72, {"det": 120, "divisors": 0}),
    (I3, 4, 2, Fraction(2, 5), None, 96, {"det": 96, "divisors": 0}),
    (Q3_MIXED, 4, 2, Fraction(1), 196, 40, {"det": 48, "divisors": 0}),
    (Q3_EQUAL_DIAGONAL, 1, 1, Fraction(1, 2), 108, 24, {"det": 24, "divisors": 0}),
    (Q3_EQUAL_OFF_DIAGONAL, 1, 1, Fraction(1), 100, 26, {"det": 38, "divisors": 0}),
], ids=["I3-m2-l1", "I3-m4-l2", "Q3mixed-m4-l2", "Q3eqdiag-m1-l1", "Q3eqoff-m1-l1"])
def test_nodes_count_exact_prefixes(q, m, l, delta, prefixes, count, rejections):
    """nodes is the number of column prefixes (c_0, ..., c_j) of shell points
    meeting every pairwise Gram window and minor congruence."""
    n = q.n

    def fits_window(x, y, s):
        return in_gram_window(q.scaled_apply(x, y), s, q.scale, delta, m, n)

    def fits(cols):
        for i, j in combinations(range(len(cols)), 2):
            if not fits_window(cols[i], cols[j], q.scaled[i][j]):
                return False
            if any(
                (cols[i][a] * cols[j][b] - cols[i][b] * cols[j][a]) % l
                for a, b in combinations(range(n), 2)
            ):
                return False
        return True

    # r = m^(2/n) <= m bounds each diagonal window by (Q_kk + delta) m
    shells = [
        [
            y for y in quadratic_shell_points(q, 0, (q.entries[k][k] + delta) * m)
            if fits_window(y, y, q.scaled[k][k])
        ]
        for k in range(n)
    ]
    brute = sum(
        fits(cols) for j in range(1, n + 1) for cols in product(*shells[:j])
    )
    rep = enumerate_S_delta(q, m, l, delta, collect_witnesses=False)
    assert rep.notes["nodes"] == brute
    if prefixes is not None:
        assert brute == prefixes
    assert rep.count == count
    assert rep.notes["leaf_rejections"] == rejections


def test_S_delta_on_ill_conditioned_equivalent_form():
    # Q = U^T U with U = ((1, -10^4), (0, 1)), so gamma -> U gamma U^-1 maps
    # Q's matrices onto I_2's; lambda_min(Q) is about 1e-8
    q = QuadraticForm(TINY_LAMBDA_MIN_FORMS[1])
    rep, rep_i2 = enumerate_S_delta(q, 5, 5, DELTA), enumerate_S_delta(I2, 5, 5, DELTA)
    u, u_inv = ((1, -(10**4)), (0, 1)), ((1, 10**4), (0, 1))

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    assert rep.count == rep_i2.count == 8
    assert sorted(mul(mul(u, g), u_inv) for g in rep.witnesses) == rep_i2.witnesses


def test_rank_one_has_no_second_divisor():
    # a 1-by-1 matrix has no 2-by-2 minors, so D_2 = l is undefined
    with pytest.raises(ValueError):
        enumerate_S_delta(QuadraticForm.identity(1), 1, 1, DELTA)


def test_brute_force_rank_one_has_no_second_divisor():
    # the reference search read D_2 from a 1-entry tuple and raised IndexError
    with pytest.raises(ValueError, match="rank at least 2"):
        brute_force_S_delta(QuadraticForm.identity(1), 1, 1, Fraction(1, 2), 2)


@pytest.mark.parametrize("m,l", [(0, 1), (1, 0)], ids=["m0", "l0"])
def test_S_delta_rejects_nonpositive_m_and_l(m, l):
    with pytest.raises(ValueError):
        enumerate_S_delta(I2, m, l, DELTA)


def test_rank_two_second_divisor_forces_det():
    # at rank 2 the second determinantal divisor equals the determinant, so
    # any target l < m is unsatisfiable
    assert enumerate_S_delta(I2, 9, 3, DELTA).count == 0


@pytest.fixture(scope="module")
def hadamard_report():
    return enumerate_S_delta(I4, 16, 2, DELTA)


@pytest.fixture(scope="module")
def s81_report():
    return enumerate_S_delta(I4, 81, 3, DELTA)


def test_hadamard_witnesses(hadamard_report):
    hadamards = all_hadamard_witnesses()
    assert len(hadamards) == 384
    assert hadamard_report.witnesses == hadamards  # nothing else attains deviation 0
    assert hadamard_report.count == 384


def test_witness_revalidation_independent(s81_report):
    rep = s81_report
    assert rep.count > 0
    sample = rep.witnesses[:: max(1, len(rep.witnesses) // 40)]
    for w in sample:
        assert matrix_det(w) == 81
        divs = determinantal_divisors_bruteforce(w)
        assert divs[0] == 1 and divs[1] == 3
        assert deviation_at_most_spec(w, I4, DELTA)
        for j1, j2 in combinations(range(4), 2):
            for a in range(4):
                for b in range(4):
                    assert (w[a][j1] * w[b][j2] - w[b][j1] * w[a][j2]) % 3 == 0


def test_column_proportionality_mod_l(s81_report):
    for w in s81_report.witnesses[:: max(1, len(s81_report.witnesses) // 25)]:
        if all(x % 3 for row in w for x in row):
            assert columns_proportional_mod(w, 3)


def test_delta_robustness(hadamard_report):
    b = enumerate_S_delta(I4, 16, 2, DELTA / 10, collect_witnesses=False).count
    assert hadamard_report.count == b == 384


def test_budget_flagging(s81_report):
    # a stopped search reports the node that crossed the budget and the
    # leaves it decided before it
    rep = enumerate_S_delta(I4, 81, 3, DELTA, collect_witnesses=False, node_budget=50)
    assert not rep.complete
    assert rep.count == 11
    assert rep.notes["nodes"] == 51
    assert rep.notes["leaf_rejections"] == {"det": 15, "divisors": 4}
    # the search visits pools in shell order, so a cut keeps a fixed prefix
    rep = enumerate_S_delta(I4, 81, 3, DELTA, node_budget=5000)
    assert not rep.complete
    assert rep.count == len(rep.witnesses) == 1446
    assert rep.notes["nodes"] == 5001
    assert rep.notes["leaf_rejections"] == {"det": 1522, "divisors": 76}
    assert set(rep.witnesses) <= set(s81_report.witnesses)
    # the reverse order cuts off the negated witnesses, with the same counts
    # by the symmetry of I4; the ends of the sorted list tell them apart
    assert rep.witnesses[0] == ((-3, 0, 0, 0), (0, -2, -2, -1), (0, -2, 1, 2), (0, 1, -2, 2))
    assert rep.witnesses[-1] == ((0, 3, 0, 0), (-1, 0, 2, 2), (2, 0, 2, -1), (2, 0, -1, 2))


def test_report_serialization_roundtrip():
    import json

    rep = enumerate_S_delta(I2, 1, 1, DELTA)
    payload = json.loads(rep.to_json())
    assert payload["count"] == 4
    assert payload["schema_version"] == 1
    assert len(payload["witnesses"]) == 4
    assert all(len(w) == 4 for w in payload["witnesses"])
    assert "elapsed_s" not in payload


def test_scaling_experiment_requires_rank_four():
    with pytest.raises(ValueError):
        scaling_experiment(I3, 1, [2])


def test_scaling_experiment_requires_prime_ladder():
    with pytest.raises(ValueError, match="p must be a prime"):
        scaling_experiment(QuadraticForm.identity(4), 1, [4, 6])


def test_scaling_experiment_single_rung():
    rep = scaling_experiment(QuadraticForm.identity(4), 1, [2])
    assert rep.exponent_fit is None
    assert rep.notes["ladder"][0]["count"] == 384
    assert rep.notes["ladder"][0]["leaf_rejections"] == {"det": 576, "divisors": 192}
