"""Counting integer points and integer matrices under quadratic constraints.

Every step is exact and no float enters a count.  Quadratic shells are
enumerated and the linear and Gram-window conditions are tested in integer
arithmetic, on the integer matrix scale*Q that every QuadraticForm
carries; the enumeration bounds every coordinate exactly by itself, so no
solution can be misclassified by rounding and no second search box is
needed.  The deviation from a scaled isometry involves the (generally
irrational) root r = det^(2/n), but each condition |G_ij / r - Q_ij| <=
delta says that the integer scale*G_ij lies in a window whose ends are
floors of rational multiples of the n-th root of det^2; _gram_window
computes them exactly by integer n-th roots, so the test needs no
approximation of r.

Shell points under linear conditions (integer windows g_lo <= v . y <= g_hi)
are generated, not filtered: the enumeration runs on a unimodular basis in
which each independent window bounds one outer coordinate.

The binary count |P(x, y)| < delta runs on the same enumerator: P is
homogenized into a positive-definite ternary form, and the window z = 1
picks its shell points over the plane of P.

The matrix search builds matrices column by column.  Each column k starts
from a pool of points of its quadratic shell; fixing a column filters every
later pool by the Gram window against it and by the congruences forcing
all 2-by-2 minors with it to vanish modulo the divisor target, so every
leaf already meets the deviation bound.  A pool is an integer bitmask over
its column's shell.  Whether a shell point passes this filter against a
fixed point depends only on the two points and three entries of the form,
so each point is tested at most once against each fixed point, and
filtering a pool is one integer AND with the points found to pass.  The
Gram window of a fixed point is decided for a whole shell at once: the
shell's coordinates are packed as the digits of a few big ints, so its
Gram entries with the point are one integer combination of them.  The
minors and gcds of the fixed columns are carried down the search, so a
full matrix is decided without re-deriving them: its determinant is one
dot product and its divisors two gcds.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, fsum, gcd, isqrt, lcm, log
from operator import mul

from .linalg import column_echelon, condition_at_most, gram_schmidt, lll, matrix_det, require_prime
from .seeded import Generator

Matrix = tuple[tuple[int, ...], ...]


# -- quadratic forms ----------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric positive-definite matrix with exact rational entries.

    scale is the lcm of the entry denominators (1 for an integer form) and
    scaled the integer matrix scale*Q; both are derived from entries.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        q = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", q)
        n = len(q)
        if not n or any(len(row) != n for row in q):
            raise ValueError("form must be square, of rank at least 1")
        for i in range(n):
            for j in range(n):
                if q[i][j] != q[j][i]:
                    raise ValueError("form must be symmetric")
        # scale*Q is the integer matrix behind the integer-exact kernels
        scale = lcm(*(x.denominator for row in q for x in row))
        scaled = tuple(tuple(int(x * scale) for x in row) for row in q)
        if gram_schmidt(scaled) is None:
            raise ValueError("form must be positive definite")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", scaled)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "QuadraticForm":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def random_spd(cls, n: int, seed: int) -> "QuadraticForm":
        """Seed-deterministic integer SPD form with condition number at most 16:
        the first q = b^T b + s I, from numpy's default_rng(seed) draws of b in
        [-2, 3) and s in [1, 4), that passes the exact condition_at_most(q, 16),
        which eliminates an n^2-by-n^2 integer matrix (fine for n <= 6)."""
        if n < 1:
            raise ValueError("form must be square, of rank at least 1")
        rng = Generator(seed)
        while True:
            b = rng.integers(-2, 3, n * n)  # row-major, so column i is b[i::n]
            s = rng.integers(1, 4)
            cols = [b[i::n] for i in range(n)]
            q = [[sum(map(mul, u, v)) + s * (i == j) for j, v in enumerate(cols)]
                 for i, u in enumerate(cols)]
            if condition_at_most(q, 16):
                return cls(q)

    def apply(self, x, y) -> Fraction:
        """Exact value of x^T Q y."""
        return Fraction(self.scaled_apply(x, y), self.scale)

    def scaled_apply(self, x, y) -> int:
        """x^T (scale*Q) y, an integer for integer x and y."""
        return sum(
            xi * sum(a * yj for a, yj in zip(row, y))
            for xi, row in zip(x, self.scaled)
            if xi
        )

    def digest(self) -> str:
        payload = ";".join(
            ",".join(str(x) for x in row) for row in self.entries
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# -- reports -------------------------------------------------------------------


@dataclass
class CountReport:
    """Outcome of a counting experiment."""

    parameters: dict
    count: int
    witnesses: list[Matrix] | None = None
    elapsed: float = 0.0
    exponent_fit: float | None = None
    complete: bool = True
    notes: dict = field(default_factory=dict)

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "schema_version": 1,
            "parameters": self.parameters,
            "count": self.count,
            "complete": self.complete,
            "exponent_fit": self.exponent_fit,
            "notes": self.notes,
        }
        if self.witnesses is not None:
            payload["witnesses"] = [
                [int(x) for row in w for x in row] for w in self.witnesses
            ]
        if include_timing:
            payload["elapsed_s"] = round(self.elapsed, 3)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- binary quadratic counting ---------------------------------------------------


@dataclass(frozen=True)
class QuadPoly2:
    """a x^2 + b xy + c y^2 + d x + e y + f with rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction = Fraction(0)
    e: Fraction = Fraction(0)
    f: Fraction = Fraction(0)

    def __post_init__(self):
        for name in "abcdef":
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def __call__(self, x, y) -> Fraction:
        return (
            self.a * x * x + self.b * x * y + self.c * y * y
            + self.d * x + self.e * y + self.f
        )

    @property
    def discriminant(self) -> Fraction:
        return self.b**2 - 4 * self.a * self.c


# lembp_count refuses a quadratic part with |discriminant| below this floor
MIN_DISC = Fraction(1, 100)


def lembp_count(P: QuadPoly2, delta, collect_witnesses: bool = False) -> CountReport:
    """Exact count of the integer pairs with |P(x, y)| < delta; witnesses sorted.

    P is homogenized and counted on the shell enumerator.  With q the
    quadratic part, D = 4ac - b^2 and (x0, y0) = ((be - 2cd)/D, (bd - 2ae)/D)
    the critical point of P, let F = q(x0, y0) + 1 and M(x, y, z) = q(x, y)
    + dxz + eyz + Fz^2, which is q((x, y) - z(x0, y0)) + z^2 and so
    positive definite.  Then P(x, y) = M(x, y, 1) - F + f, so the pairs are
    the points of M's shell F - f - delta < M < F - f + delta with z = 1.
    The values of M lie in Z / M.scale, so the strict bounds are the closed
    ones one step of 1 / M.scale inside.
    """
    t0 = time.perf_counter()
    delta = Fraction(delta)
    if P.a <= 0 or P.discriminant >= 0:
        raise ValueError("quadratic part must be positive definite")
    if abs(P.discriminant) < MIN_DISC:
        raise ValueError("discriminant below configured floor")
    a, b, c, d, e, f = P.a, P.b, P.c, P.d, P.e, P.f
    D = -P.discriminant
    x0, y0 = (b * e - 2 * c * d) / D, (b * d - 2 * a * e) / D
    F = a * x0 * x0 + b * x0 * y0 + c * y0 * y0 + 1
    M = QuadraticForm(((a, b / 2, d / 2), (b / 2, c, e / 2), (d / 2, e / 2, F)))
    s = M.scale
    lo = Fraction(floor((F - f - delta) * s) + 1, s)
    hi = Fraction(ceil((F - f + delta) * s) - 1, s)
    pairs = [
        ((x, y),)
        for x, y, _ in quadratic_shell_points(M, lo, hi, windows=[((0, 0, 1), 1, 1)])
    ]
    return CountReport(
        parameters={
            "kind": "binary_quadratic",
            "coefficients": [str(getattr(P, k)) for k in "abcdef"],
            "delta": str(delta),
        },
        count=len(pairs),
        witnesses=pairs if collect_witnesses else None,
        elapsed=time.perf_counter() - t0,
    )


# -- quadratic shell enumeration ---------------------------------------------------


def quadratic_shell_points(
    Q: QuadraticForm,
    lo,
    hi,
    *,
    windows=(),
) -> list[tuple[int, ...]]:
    """All integer vectors with lo <= y^T Q y <= hi, sorted (and with
    g_lo <= v . y <= g_hi for every (v, g_lo, g_hi) in windows, v an
    integer vector).

    Recursive completed-square enumeration (Fincke–Pohst) in integers only.
    With y = U z for the basis U below and (d, lam) = gram_schmidt(U^T
    (scale*Q) U), W * scale * y^T Q y = sum_i w_i t_i^2, with W the lcm of
    the d_i d_(i+1), integers w_i = W / (d_i d_(i+1)) and t_i = d_(i+1) z_i
    + sum_{k>i} lam_ki z_k, so each coordinate's range comes from an integer
    square root and no point is missed or admitted by rounding.  These
    ranges are the whole search: no coordinate box is needed or applied.

    The enumeration runs on a unimodular basis U, y = U z, with z
    enumerated on U^T Q U.  Windows are generated, not filtered: with the
    rows v stacked into V and V U = H from column_echelon (the r pivots in
    the last r columns), each of z's r outer coordinates is cut to the
    values its pivot row's window allows given the coordinates already
    fixed.  A row without a pivot (dependent on the earlier rows) is
    checked as a filter on the points found, so dependent and inconsistent
    conditions need no special case.  The other n - r columns of U (all
    of them without windows) are LLL-reduced under Q, so that a skewed
    form or kernel basis does not blow up the ranges of the outer levels;
    for an already reduced form, such as I_n, U stays the identity.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < 0:
        return []
    n = Q.n
    if any(len(v) != n for v, _, _ in windows):
        raise ValueError("every window vector needs one entry per coordinate")
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    U, H, pivot = column_echelon([v for v, _, _ in windows]) if windows else (identity, [], [])
    # the columns left of the pivots span V's kernel: any basis of it keeps
    # H, and an LLL-reduced one keeps the ranges of the levels tight
    r = sum(p is not None for p in pivot)
    cols = [list(col) for col in zip(*U)]
    cols[: n - r] = lll(cols[: n - r], Q.scaled_apply)
    U = [list(row) for row in zip(*cols)]
    SU = [[sum(map(mul, row, col)) for col in cols] for row in Q.scaled]
    d, lam = gram_schmidt([[sum(map(mul, c, sc)) for sc in zip(*SU)] for c in cols])
    # win[i]: the window on coordinate i from its pivot row
    win: list[tuple | None] = [None] * n
    dependent = []
    for h, p, window in zip(H, pivot, windows):
        if p is None:
            dependent.append(window)
        else:
            rest = [(c, h[c]) for c in range(p + 1, n) if h[c]]
            win[p] = (h[p], rest, window[1], window[2])
    e = d[1:]
    W = lcm(*(a * b for a, b in zip(d, e)))
    w = [W // (a * b) for a, b in zip(d, e)]
    top = W * Q.scale * hi.numerator // hi.denominator
    need = -(-W * Q.scale * lo.numerator // lo.denominator)
    out: list[tuple[int, ...]] = []
    z = [0] * n

    def zs(i: int, t_lo: int, t_hi: int, c: int) -> range:
        """The z_i with t_lo <= e_i*z_i + c <= t_hi, within win[i]."""
        z_lo, z_hi = -((c - t_lo) // e[i]), (t_hi - c) // e[i]
        if win[i] is not None:
            h, rest, g_lo, g_hi = win[i]
            off = sum(a * z[j] for j, a in rest)
            z_lo, z_hi = max(z_lo, -((off - g_lo) // h)), min(z_hi, (g_hi - off) // h)
        return range(z_lo, z_hi + 1)

    def rec(i: int, s: int):
        # s = sum_{j > i} w_j t_j^2 <= top
        c = sum(lam[k][i] * z[k] for k in range(i + 1, n))
        r = isqrt((top - s) // w[i])
        if i:
            for val in zs(i, -r, r, c):
                z[i] = val
                t = e[i] * val + c
                rec(i - 1, s + w[i] * t * t)
            return
        # the last coordinate also needs w_0 t_0^2 >= need - s
        gap = need - s
        inner = isqrt((gap - 1) // w[0]) + 1 if gap > 0 else 0
        if inner > r:
            return
        rest = tuple(z[1:])
        for t_lo, t_hi in [(-r, r)] if inner == 0 else [(-r, -inner), (inner, r)]:
            out.extend((val,) + rest for val in zs(0, t_lo, t_hi, c))

    rec(n - 1, 0)
    out = [tuple(sum(map(mul, row, pt)) for row in U) for pt in out]
    if dependent:
        out = [
            y for y in out
            if all(g_lo <= sum(map(mul, v, y)) <= g_hi for v, g_lo, g_hi in dependent)
        ]
    return sorted(out)


# -- corollary-style counting -------------------------------------------------------


def corollary_count_experiment(
    Q: QuadraticForm,
    k: int,
    X: int,
    delta,
    xs: list[tuple[int, ...]],
    q: list,
    collect_witnesses: bool = False,
) -> CountReport:
    """Exact count of y with |y^T Q y - q_0| <= X^2 delta and
    |x_j^T Q y - q_j| <= X^2 delta.

    Each linear condition is an integer window on x_j^T (scale*Q) y, and
    quadratic_shell_points generates the shell points inside all of them
    exactly; the conditions need not be independent.
    """
    t0 = time.perf_counter()
    n = Q.n
    if not (0 <= k <= n - 2 and len(xs) == k and len(q) == k + 1):
        raise ValueError("need 0 <= k <= n - 2, k vectors xs and k + 1 targets q")
    delta = Fraction(delta)
    err = Fraction(X) ** 2 * delta
    q = [Fraction(v) for v in q]
    windows = [
        (
            [sum(map(mul, row, x)) for row in Q.scaled],
            ceil((v - err) * Q.scale),
            floor((v + err) * Q.scale),
        )
        for x, v in zip(xs, q[1:])
    ]
    hits = quadratic_shell_points(Q, q[0] - err, q[0] + err, windows=windows)
    return CountReport(
        parameters={
            "kind": "quadratic_linear_count",
            "n": n,
            "k": k,
            "X": X,
            "delta": str(delta),
            "q": [str(v) for v in q],
            "xs": [list(x) for x in xs],
            "Q": Q.digest(),
        },
        count=len(hits),
        witnesses=[(y,) for y in hits] if collect_witnesses else None,
        elapsed=time.perf_counter() - t0,
    )


def fit_exponent(sizes, counts) -> float | None:
    """Least-squares slope of y = log(count) against x = log(size),
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, over the positive
    counts; None if degenerate, when their sizes take fewer than two
    distinct values.  y is shifted by the first log(count), which leaves
    the slope alone and makes it exactly 0 on constant counts."""
    pairs = [(s, c) for s, c in zip(sizes, counts) if c > 0]
    if len({s for s, _ in pairs}) < 2:
        return None
    xs = [log(s) for s, _ in pairs]
    ys = [log(c) - log(pairs[0][1]) for _, c in pairs]
    mx, my = fsum(xs) / len(xs), fsum(ys) / len(ys)
    return fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / fsum((x - mx) ** 2 for x in xs)


def corollary_count_ladder(
    n: int,
    k: int,
    Xs: list[int],
    seed: int,
    delta=None,
    Q: QuadraticForm | None = None,
    repeats: int = 4,
) -> CountReport:
    """Run the count over an X-ladder with seeded targets and fit the exponent.

    For each X several target points are planted (so every count is positive)
    and the counts summed, smoothing out the arithmetic fluctuation of single
    representation numbers; the constraint values q are read off random
    integer vectors of size about X.
    """
    if not 0 <= k <= n - 2:
        raise ValueError("need 0 <= k <= n - 2")
    if any(X < 1 for X in Xs):
        raise ValueError("every ladder size X must be at least 1")
    t0 = time.perf_counter()
    Q = QuadraticForm.random_spd(n, seed) if Q is None else Q
    if Q.n != n:
        raise ValueError(f"Q has rank {Q.n}, not n = {n}")
    rng = Generator(seed + 1)
    counts = []
    ladder = []
    for X in Xs:
        dlt = Fraction(1, X**4) if delta is None else Fraction(delta)
        rung = 0
        for _ in range(repeats):
            while True:
                ystar = tuple(rng.integers(-X // 2, X // 2 + 1, n))
                xs = [tuple(rng.integers(-X // 2, X // 2 + 1, n)) for _ in range(k)]
                gram = [[sum(a * b for a, b in zip(x, z)) for z in xs] for x in xs]
                if k == 0 or matrix_det(gram) != 0:
                    if any(ystar):
                        break
            q = [Q.apply(ystar, ystar)] + [Q.apply(x, ystar) for x in xs]
            rep = corollary_count_experiment(Q, k, X, dlt, xs, q)
            rung += rep.count
        counts.append(rung)
        ladder.append({"X": X, "count": rung})
    return CountReport(
        parameters={
            "kind": "count_ladder",
            "n": n,
            "k": k,
            "Xs": list(Xs),
            "seed": seed,
            "Q": Q.digest(),
        },
        count=sum(counts),
        exponent_fit=fit_exponent(Xs, counts),
        elapsed=time.perf_counter() - t0,
        notes={"ladder": ladder},
    )


# -- deviation from a scaled isometry ------------------------------------------------


def _int_nth_root(value: int, n: int) -> int:
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return 0
    # Newton's method from above: 2^ceil(bits/n) exceeds the root, and each
    # step decreases until the floor of the root is reached
    r = 1 << -(-value.bit_length() // n)
    while True:
        s = ((n - 1) * r + value // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _floor_root(c: Fraction, v: int, n: int) -> int:
    """floor(c * v^(1/n)), exactly, for rational c of either sign and v >= 0."""
    p, q = c.numerator, c.denominator
    w = abs(p) ** n * v
    root = _int_nth_root(w, n)  # floor(|p| v^(1/n))
    if p >= 0:
        return root // q
    # floor(-x / q) = floor(-ceil(x) / q) for real x >= 0
    return -(root + (root**n != w)) // q


def _gram_window(s_ij: int, scale: int, delta: Fraction, det: int, n: int) -> tuple[int, int]:
    """[lo, hi], the integers g with |g / r - s_ij| <= scale*delta at r = det^(2/n).

    With g = scale*G_ij and s_ij = scale*Q_ij this is the deviation bound
    |G_ij / r - Q_ij| <= delta on one Gram entry.  The ends
    lo = ceil((s_ij - scale*delta) r) and hi = floor((s_ij + scale*delta) r)
    are exact floors of rational multiples of the n-th root of det^2; the
    window is empty (lo > hi) when delta < 0.
    """
    if det <= 0:
        raise ValueError("determinant must be positive")
    v, width = det * det, scale * delta
    return -_floor_root(width - s_ij, v, n), _floor_root(s_ij + width, v, n)


def _gram_windows(Q: QuadraticForm, delta: Fraction, det: int) -> dict[int, tuple[int, int]]:
    """The _gram_window of every distinct entry of scale*Q, keyed by that entry."""
    return {s: _gram_window(s, Q.scale, delta, det, Q.n) for row in Q.scaled for s in row}


def deviation_at_most(gamma: Matrix, Q: QuadraticForm, delta) -> bool:
    """Exact test of max_ij |G_ij / r - Q_ij| <= delta, the deviation of gamma
    from a scaled isometry of Q, where G = gamma^T Q gamma and r = det(gamma)^(2/n).

    Every scaled Gram entry scale*G_ij is an integer, so the test is that each
    lies in its _gram_window; no root is approximated.  Raises ValueError
    unless gamma is Q.n by Q.n, and when det(gamma) <= 0.
    """
    if len(gamma) != Q.n or any(len(row) != Q.n for row in gamma):
        raise ValueError(f"gamma must be {Q.n} by {Q.n}")
    return _gram_in_windows(gamma, Q, _gram_windows(Q, Fraction(delta), matrix_det(gamma)))


def _gram_in_windows(gamma: Matrix, Q: QuadraticForm, windows) -> bool:
    """Whether every scaled Gram entry scale * c_i^T Q c_j (i <= j) of the
    columns c of gamma lies in windows[scale*Q_ij]."""
    cols = list(zip(*gamma))
    n = Q.n
    for i in range(n):
        for j in range(i, n):
            lo, hi = windows[Q.scaled[i][j]]
            if not lo <= Q.scaled_apply(cols[i], cols[j]) <= hi:
                return False
    return True


# -- the matrix enumerator -----------------------------------------------------------


def _laplace_plan(n: int) -> list[list[tuple[tuple[int, int, int], ...]]]:
    """plan[j] lists, for each (j+1)-subset of the n rows in combinations
    order, its Laplace expansion along a new last column: one term
    (row r, index of the j-minor on the other rows, sign) per row r."""
    plan = []
    for j in range(n):
        index = {rows: t for t, rows in enumerate(combinations(range(n), j))}
        plan.append([
            tuple(
                (r, index[rows[:t] + rows[t + 1:]], -1 if (t + j) % 2 else 1)
                for t, r in enumerate(rows)
            )
            for rows in combinations(range(n), j + 1)
        ])
    return plan


def _extend_minors(minors: list[int], col, terms) -> list[int]:
    """The (j+1)-minors of the matrix (fixed | col), in combinations order of
    their rows, from the j-minors of fixed and terms = _laplace_plan(n)[j]."""
    out = []
    for expansion in terms:
        acc = 0
        for r, t, sign in expansion:
            c = col[r]
            if c:
                acc += sign * c * minors[t]
        out.append(acc)
    return out


def _minor_gcd(g: int, fixed, x, pairs, stop: int) -> int:
    """gcd of g and the 2-by-2 minors (rows a, b in pairs) of each fixed column with x.

    It returns early once the gcd equals stop, which is exact only when
    stop divides g and every such minor (stop = 1 always may).
    """
    for f in fixed:
        for a, b in pairs:
            if g == stop:
                return g
            g = gcd(g, f[a] * x[b] - f[b] * x[a])
    return g


# -- lanes: many small integers as the digits of one int -----------------------------
#
# An int sum_t v_t 2^(width t) holds the values v_t in lanes of width bits.
# An integer combination of such ints holds the same combination of their
# values lane by lane, so one linear form is evaluated on a whole shell of
# points by a few big-int operations.

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=64)
def _lane_ones(size: int, width: int) -> int:
    """sum_t 2^(width t) over t < size: a 1 in each lane (width a multiple of 8)."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * size, "little")


def _pack_lanes(values, width: int) -> int:
    """sum_t values[t] 2^(width t), for |values[t]| < 2^(width-1)."""
    half = 1 << (width - 1)
    digits = b"".join((v + half).to_bytes(width // 8, "little") for v in values)
    return int.from_bytes(digits, "little") - half * _lane_ones(len(values), width)


def _lanes_in_window(total: int, size: int, width: int, lo: int, hi: int) -> int:
    """The bitmask of the t < size with lo <= v_t <= hi, for total =
    sum_t v_t 2^(width t) with |v_t - lo| and |v_t - hi - 1| below
    2^(width-1)."""
    if not size:
        return 0
    half = 1 << (width - 1)
    ones = _lane_ones(size, width)
    # lane t holds v_t - lo + half, resp. v_t - hi - 1 + half, which lie in
    # [0, 2^width), so no lane borrows; its top bit says v_t >= lo, resp. v_t > hi
    from_lo = total + (half - lo) * ones
    past_hi = total + (half - hi - 1) * ones
    tops = (from_lo & ~past_hi) >> (width - 1) & ones
    flags = tops.to_bytes(size * width // 8, "little")[:: width // 8]
    return int(flags.translate(_BIT_DIGITS)[::-1], 2)


def enumerate_S_delta(
    Q: QuadraticForm,
    m: int,
    l: int,
    delta,
    collect_witnesses: bool = True,
    node_budget: int = 50_000_000,
) -> CountReport:
    """All integer matrices with determinant m, entry gcd 1, second
    determinantal divisor l, and deviation at most delta from a scaled
    isometry of Q.

    Column-by-column search over per-column pools of quadratic-shell
    points.  The deviation bound is the condition that every scaled Gram
    entry scale * c_i^T Q c_j lies in its exact integer _gram_window at
    det = m: column k's pool starts from the shell points whose own entry
    lies in its window, and fixing a column keeps, in each later column's
    pool, the points whose entry with it lies in its window and that make
    all 2-by-2 minors with it vanish modulo l.  notes["nodes"] counts the
    column prefixes meeting every such condition, and node_budget bounds
    that count.

    Each pool is an integer bitmask over its column's shell, and its set
    bits are visited in ascending order, which is shell order.  Whether a
    point of column k's shell fits point i of column j's shell depends only
    on the two points and scale*Q_jj, scale*Q_kk and scale*Q_jk, so the
    results are kept as bitmasks shared by the column pairs with equal
    entries (all of them for I_n), and filtering a pool is pool & fit.  On
    first use, the Gram window is decided for the whole shell by lane
    arithmetic (_lanes_in_window); the minor congruences are tested for a
    point inside the window when it first shows up in a pool i filters.

    A leaf (a full matrix) therefore meets the deviation bound once its
    determinant is m, and it is decided from state carried down the search:
    the minors of the fixed columns, extended by one Laplace step per
    column, and from those of the first n - 2 columns and column n - 2 the
    cofactors along the last column, give the determinant as one n-term dot
    product; D_1 is the gcd of the entries and D_2 the gcd of the 2-by-2
    minors, neither computed further once it reaches 1, resp. l.
    notes["leaf_rejections"] counts the leaves failing on the determinant
    and on the divisors, in that order of testing.
    """
    t0 = time.perf_counter()
    n = Q.n
    if n < 2:
        raise ValueError("the second determinantal divisor needs rank at least 2")
    if m < 1 or l < 1:
        raise ValueError("m and l must be positive")
    delta = Fraction(delta)
    windows = _gram_windows(Q, delta, m)
    diagonal = {Q.scaled[j][j] for j in range(n)}
    shells = {
        s: quadratic_shell_points(
            Q, Fraction(windows[s][0], Q.scale), Fraction(windows[s][1], Q.scale)
        )
        for s in diagonal
    }
    shell_of = [shells[Q.scaled[k][k]] for k in range(n)]
    pairs = list(combinations(range(n), 2))
    plan = _laplace_plan(n)
    # lanes wide enough for the Gram entry c^T (scale Q) x of any two shell
    # points less any window end; lanes[k][r] packs coordinate r of column
    # k's shell
    reach = max((abs(v) for shell in shell_of for x in shell for v in x), default=0)
    bound = (
        n * n * max(abs(v) for row in Q.scaled for v in row) * reach * reach
        + max(abs(v) for w in windows.values() for v in w) + 1
    )
    width = 8 * (bound.bit_length() // 8 + 1)
    packed = {
        s: [_pack_lanes([x[r] for x in shell], width) for r in range(n)]
        for s, shell in shells.items()
    }
    lanes = [packed[Q.scaled[k][k]] for k in range(n)]
    # tests[j][k][i] = [untested, fit] holds, as bitmasks over column k's
    # shell, the points inside the Gram window of point i of column j's
    # shell whose minors with it are not yet tested, and the points found
    # to fit it.  Fitting depends on the two points and the entries
    # scale*Q_jj, scale*Q_kk and scale*Q_jk only, so column pairs with
    # equal entries share one table.  The window is decided for the whole
    # shell at once, on first use, and a point's minors the first time it
    # shows up in a pool that point i filters.
    tables: dict[tuple[int, int, int], list] = {}
    tests = [
        {
            k: tables.setdefault(
                (Q.scaled[j][j], Q.scaled[k][k], Q.scaled[j][k]), [None] * len(shell_of[j])
            )
            for k in range(j + 1, n)
        }
        for j in range(n)
    ]

    def minors_vanish(col, shell, fresh: int) -> int:
        # the bits t of fresh with every 2-by-2 minor of (col, shell[t]) 0 mod l
        bits = 0
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            x = shell[low.bit_length() - 1]
            if all((col[a] * x[b] - col[b] * x[a]) % l == 0 for a, b in pairs):
                bits |= low
        return bits

    # cof_plan[r] expands the cofactor of row r along the last column in
    # the (n-2)-minors of the first n - 2 columns and the entries of column
    # n - 2: two Laplace steps, their signs multiplied
    cof_plan = [
        [(r2, t2, sign * sign2) for r2, t2, sign2 in plan[n - 2][t]]
        for _, t, sign in plan[n - 1][0]
    ]
    nodes = 0
    complete = True
    witnesses: list[Matrix] = []
    count = 0
    rejections = {"det": 0, "divisors": 0}

    def leaves(fixed, pool, cof, g1, g2):
        # the last column x completes the matrix: det = <cof, x> by Laplace
        # expansion along it
        nonlocal nodes, count, complete
        shell = shell_of[n - 1]
        while pool:
            low = pool & -pool
            pool ^= low
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            x = shell[low.bit_length() - 1]
            if sum(map(mul, cof, x)) != m:
                rejections["det"] += 1
                continue
            # the pools make every 2-by-2 minor 0 mod l, so D_2 is a multiple
            # of l: it is l once g2 is, and _minor_gcd may stop at l
            if (g1 != 1 and gcd(g1, *x) != 1) or (
                g2 != l and _minor_gcd(g2, fixed, x, pairs, l) != l
            ):
                rejections["divisors"] += 1
                continue
            count += 1
            if collect_witnesses:
                witnesses.append(tuple(zip(*fixed, x)))

    def search(fixed, pools, minors, g1, g2):
        # pools[k - j] is the bitmask over column k's shell of the points
        # that fit every fixed column, where j = len(fixed) <= n - 2; minors
        # lists the minors of the fixed columns on the j-subsets of rows, in
        # combinations order; g1 and g2 are the gcds of their entries and of
        # their 2-by-2 minors
        nonlocal nodes, complete
        j = len(fixed)
        shell, row = shell_of[j], tests[j]
        pool = pools[0]
        while pool:
            low = pool & -pool
            pool ^= low
            i = low.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            col = shell[i]
            img = None
            later = []
            for k, pool_k in enumerate(pools[1:], j + 1):
                if pool_k:
                    known = row[k][i]
                    if known is None:
                        if img is None:
                            img = [sum(map(mul, r, col)) for r in Q.scaled]
                        total = sum(c * p for c, p in zip(img, lanes[k]) if c)
                        window = _lanes_in_window(
                            total, len(shell_of[k]), width, *windows[Q.scaled[j][k]]
                        )
                        # mod l = 1 every minor vanishes: the window decides
                        known = row[k][i] = [window, 0] if l > 1 else [0, window]
                    fresh = pool_k & known[0]
                    if fresh:
                        known[0] ^= fresh
                        known[1] |= minors_vanish(col, shell_of[k], fresh)
                    pool_k &= known[1]
                if k == j + 1 and not pool_k:
                    break  # the child would visit no node
                later.append(pool_k)
            else:  # no break: column j + 1 has candidates
                g1_col = g1 if g1 == 1 else gcd(g1, *col)
                g2_col = g2 if g2 == l else _minor_gcd(g2, fixed, col, pairs, l)
                if j == n - 2:
                    cof = _extend_minors(minors, col, cof_plan)
                    leaves(fixed + [col], later[0], cof, g1_col, g2_col)
                else:
                    search(
                        fixed + [col], later, _extend_minors(minors, col, plan[j]),
                        g1_col, g2_col,
                    )
                if not complete:
                    return

    search([], [(1 << len(shell)) - 1 for shell in shell_of], [1], 0, 0)
    witnesses.sort()
    return CountReport(
        parameters={
            "kind": "matrix_similitude_count",
            "n": n,
            "m": m,
            "l": l,
            "delta": str(delta),
            "Q": Q.digest(),
        },
        count=count,
        witnesses=witnesses if collect_witnesses else None,
        elapsed=time.perf_counter() - t0,
        complete=complete,
        notes={"nodes": nodes, "leaf_rejections": rejections},
    )


def brute_force_S_delta(Q: QuadraticForm, m: int, l: int, delta, box: int) -> list[Matrix]:
    """Unpruned reference search over the full entry box (small cases only).

    Every matrix of the box is tested directly: its determinant, its
    determinantal divisors from their definition (D_1 = 1 as the gcd of the
    entries, D_2 = l as the gcd of every 2-by-2 minor), then its Gram
    entries against the windows of (Q, delta, m), which are built once.
    The determinant is the Laplace expansion along the last row, whose
    cofactors are computed once per choice of the first n - 1 rows.
    """
    n = Q.n
    if n < 2:
        raise ValueError("the second determinantal divisor needs rank at least 2")
    windows = _gram_windows(Q, Fraction(delta), m)
    rows = list(product(range(-box, box + 1), repeat=n))
    out = []
    for prefix in product(rows, repeat=n - 1):
        cof = [
            (-1) ** (n - 1 + j) * matrix_det([row[:j] + row[j + 1 :] for row in prefix])
            for j in range(n)
        ]
        for last in rows:
            if sum(map(mul, cof, last)) != m:
                continue
            gamma = prefix + (last,)
            if gcd(*(x for row in gamma for x in row)) != 1:
                continue
            d2 = gcd(*(
                r[i] * s[j] - r[j] * s[i]
                for r, s in combinations(gamma, 2)
                for i, j in combinations(range(n), 2)
            ))
            if d2 != l:
                continue
            if _gram_in_windows(gamma, Q, windows):
                out.append(gamma)
    return sorted(out)


def scaling_experiment(
    Q: QuadraticForm,
    nu: int,
    primes: list[int],
    delta=Fraction(1, 10**6),
    node_budget: int = 50_000_000,
) -> CountReport:
    """Counts over the ladder m = p^{4 nu}, l = p^{nu} with a fitted exponent.

    The benchmark to beat is slope 3 (growth of the full coset count); the
    per-nu target is 3 - 1/(2 nu).
    """
    t0 = time.perf_counter()
    if Q.n != 4:
        raise ValueError("the scaling ladder is a rank-4 experiment")
    if nu < 1:
        raise ValueError("the similitude exponent nu must be at least 1")
    for p in primes:
        require_prime(p)
    ladder = []
    counts = []
    sizes = []
    complete = True
    for p in primes:
        rep = enumerate_S_delta(
            Q, p ** (4 * nu), p**nu, delta,
            collect_witnesses=False, node_budget=node_budget,
        )
        complete = complete and rep.complete
        ladder.append({
            "p": p, "l": p**nu, "count": rep.count, "complete": rep.complete,
            "leaf_rejections": rep.notes["leaf_rejections"],
        })
        counts.append(rep.count)
        sizes.append(p**nu)
    slope = fit_exponent(sizes, counts)
    return CountReport(
        parameters={
            "kind": "similitude_scaling",
            "nu": nu,
            "primes": list(primes),
            "delta": str(Fraction(delta)),
            "Q": Q.digest(),
        },
        count=sum(counts),
        exponent_fit=slope,
        elapsed=time.perf_counter() - t0,
        complete=complete,
        notes={
            "ladder": ladder,
            "benchmark_slope": 3,
            "target_slope": 3 - 1 / (2 * nu),
        },
    )
