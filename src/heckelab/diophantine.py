"""Counting integer points and integer matrices under quadratic constraints.

The enumeration workhorses are exact.  Quadratic shells are enumerated,
the linear and Gram-window conditions are tested and the deviation from a
scaled isometry is bracketed in integer arithmetic, on the integer matrix
scale*Q that every QuadraticForm carries.  Floats only propose the
candidate eigenvalue bounds in eigen_bounds, which are certified exactly,
so no solution can be misclassified by rounding.  When a membership
predicate involves the (generally irrational) n-th root of a determinant,
the root is bracketed by rationals and refined until the predicate is
decidable; if it never becomes decidable the run aborts rather than guess.

The matrix search builds matrices column by column.  Each column k starts
from a pool of points of its quadratic shell; fixing a column filters every
later pool by the inner-product window against it and by the congruences
forcing all 2-by-2 minors with it to vanish modulo the divisor target.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, isqrt, lcm

import numpy as np

from .cosets import determinantal_divisors, elementary_divisors
from .linalg import ldl, matrix_det, solve

Matrix = tuple[tuple[int, ...], ...]


class PrecisionError(RuntimeError):
    """A membership test stayed undecidable at the maximum refinement depth."""


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
        if any(len(row) != n for row in q):
            raise ValueError("form must be square")
        for i in range(n):
            for j in range(n):
                if q[i][j] != q[j][i]:
                    raise ValueError("form must be symmetric")
        if ldl(q) is None:
            raise ValueError("form must be positive definite")
        # scale*Q is the integer matrix behind the integer-exact kernels
        scale = lcm(*(x.denominator for row in q for x in row))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(
            self, "scaled", tuple(tuple(int(x * scale) for x in row) for row in q)
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "QuadraticForm":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def random_spd(cls, n: int, seed: int, max_condition: float = 16.0) -> "QuadraticForm":
        """Seed-deterministic integer SPD form with bounded condition number."""
        rng = np.random.default_rng(seed)
        while True:
            b = rng.integers(-2, 3, size=(n, n))
            q = b.T @ b + np.eye(n, dtype=int) * int(rng.integers(1, 4))
            w = np.linalg.eigvalsh(q.astype(float))
            if w[0] > 0 and w[-1] / w[0] <= max_condition:
                return cls(tuple(tuple(Fraction(int(x)) for x in row) for row in q))

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

    def eigen_bounds(self) -> tuple[Fraction, Fraction]:
        """Certified rational bounds 0 < lo <= lambda_min, lambda_max <= hi.

        Candidates come from floating-point eigenvalues; the certificates
        are exact Sylvester checks on Q - lo*I and hi*I - Q.  A lower
        candidate that rounds to 0 or below is replaced by the exact bound
        1/trace(Q^-1) <= lambda_min.
        """
        qf = np.array([[float(x) for x in row] for row in self.entries])
        w = np.linalg.eigvalsh(qf)
        lo = Fraction(float(w[0])).limit_denominator(10**6) * Fraction(15, 16)
        hi = Fraction(float(w[-1])).limit_denominator(10**6) * Fraction(17, 16) + 1
        n = self.n
        if lo <= 0:
            _, inv = solve(self.entries, [[int(i == j) for j in range(n)] for i in range(n)])
            lo = 1 / sum(inv[i][i] for i in range(n))
        while True:
            shifted = [
                [self.entries[i][j] - (lo if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            if ldl(shifted) is not None:
                break
            lo /= 2
        while True:
            shifted = [
                [(hi if i == j else 0) - self.entries[i][j] for j in range(n)]
                for i in range(n)
            ]
            if ldl(shifted) is not None:
                break
            hi *= 2
        return lo, hi

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

    def swapped(self) -> "QuadPoly2":
        return QuadPoly2(self.c, self.b, self.a, self.e, self.d, self.f)


def _sqrt_upper(x: Fraction) -> Fraction:
    """Rational upper bound for sqrt(x), x >= 0."""
    if x <= 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    return Fraction(isqrt(num * den) + 1, den)


def lembp_count(
    P: QuadPoly2,
    delta,
    box: int | None = None,
    min_disc: Fraction = Fraction(1, 100),
    collect_witnesses: bool = False,
) -> CountReport:
    """Exact count of integer pairs with |P(x, y)| < delta.

    The positive-definite quadratic part confines solutions; the search box
    is certified from a rational lower bound on its smallest eigenvalue.
    """
    t0 = time.time()
    delta = Fraction(delta)
    if P.a <= 0 or P.discriminant >= 0:
        raise ValueError("quadratic part must be positive definite")
    if abs(P.discriminant) < min_disc:
        raise ValueError("discriminant below configured floor")
    gram = QuadraticForm(((P.a, P.b / 2), (P.b / 2, P.c)))
    lam, _ = gram.eigen_bounds()
    # lam*(x^2+y^2) <= quad(x,y) = P - dx - ey - f < delta + (|d|+|e|)*R + |f|
    lin = abs(P.d) + abs(P.e)
    disc = lin**2 + 4 * lam * (abs(P.f) + delta)
    radius = (lin + _sqrt_upper(disc)) / (2 * lam)
    bound = int(radius) + 1 if box is None else box
    count = 0
    witnesses = [] if collect_witnesses else None
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if abs(P(x, y)) < delta:
                count += 1
                if collect_witnesses:
                    witnesses.append(((x, y),))
    return CountReport(
        parameters={
            "kind": "binary_quadratic",
            "coefficients": [str(getattr(P, k)) for k in "abcdef"],
            "delta": str(delta),
            "box": bound,
        },
        count=count,
        witnesses=witnesses,
        elapsed=time.time() - t0,
    )


# -- affine elimination from linear conditions -------------------------------------


@dataclass
class ConstraintDecomposition:
    """Affine description of the coordinates pinned by linear conditions.

    selected holds the k coordinate indices of the chosen maximal minor; for
    any y satisfying the conditions within E, the selected block equals
    A * y_free + b up to F in every coordinate.
    """

    selected: tuple[int, ...]
    free: tuple[int, ...]
    A: list[list[Fraction]]
    b: list[Fraction]
    F: Fraction


def constr_decompose(xs, q, E) -> ConstraintDecomposition:
    """Eliminate k coordinates using the conditions x_i . y = q_i + O(E).

    Picks the k-by-k minor of the stacked row matrix with the largest
    absolute determinant (first subset in lexicographic column order on
    ties) and solves for those coordinates; F bounds the leakage of the
    per-condition error E through the inverse minor (row-sum norm).
    """
    xs = [tuple(Fraction(v) for v in x) for x in xs]
    q = [Fraction(v) for v in q]
    E = Fraction(E)
    k = len(xs)
    n = len(xs[0]) if xs else 0
    if len(q) != k or not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n conditions and one target for each")
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    best_det = Fraction(0)
    best_cols: tuple[int, ...] | None = None
    for cols in combinations(range(n), k):
        d, inv = solve([[xs[i][c] for c in cols] for i in range(k)], identity)
        if abs(d) > best_det:
            best_det, best_cols, m1_inv = abs(d), cols, inv
    if best_cols is None:
        raise ValueError("rows are linearly dependent")
    free = tuple(c for c in range(n) if c not in best_cols)
    m2 = [[xs[i][c] for c in free] for i in range(k)]
    # y_sel = M1^{-1} q - M1^{-1} M2 y_free + O(||M1^{-1}|| E)
    A = [
        [-sum(m1_inv[r][i] * m2[i][c] for i in range(k)) for c in range(n - k)]
        for r in range(k)
    ]
    b = [sum(m1_inv[r][i] * q[i] for i in range(k)) for r in range(k)]
    norm = max(sum(abs(x) for x in row) for row in m1_inv)
    return ConstraintDecomposition(
        selected=best_cols, free=free, A=A, b=b, F=norm * E
    )


# -- quadratic shell enumeration ---------------------------------------------------


def quadratic_shell_points(
    Q: QuadraticForm,
    lo,
    hi,
    coord_bound: int | None = None,
) -> list[tuple[int, ...]]:
    """All integer vectors with lo <= y^T Q y <= hi (and every |y_i| <=
    coord_bound when given).

    Recursive completed-square enumeration (Fincke–Pohst) in integers only.
    With Q = u^T diag(d) u, e_i the lcm of the denominators in row i of u
    and t_i = e_i (u y)_i, W * y^T Q y = sum_i w_i t_i^2 with integers
    w_i = W d_i / e_i^2, so each coordinate's range comes from an integer
    square root and no point is missed or admitted by rounding.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < 0:
        return []
    n = Q.n
    d, u = ldl(Q.entries)
    e = [lcm(*(x.denominator for x in row)) for row in u]
    ue = [[int(x * ei) for x in row] for row, ei in zip(u, e)]
    W = lcm(*((di / ei**2).denominator for di, ei in zip(d, e)))
    w = [int(W * di / ei**2) for di, ei in zip(d, e)]
    top, need = floor(W * hi), ceil(W * lo)
    out: list[tuple[int, ...]] = []
    y = [0] * n

    def ys(t_lo: int, t_hi: int, c: int, ei: int) -> range:
        """The y_i with t_lo <= ei*y_i + c <= t_hi, within coord_bound."""
        y_lo, y_hi = -((c - t_lo) // ei), (t_hi - c) // ei
        if coord_bound is not None:
            y_lo, y_hi = max(y_lo, -coord_bound), min(y_hi, coord_bound)
        return range(y_lo, y_hi + 1)

    def rec(i: int, s: int):
        # s = sum_{j > i} w_j t_j^2 <= top
        c = sum(ue[i][j] * y[j] for j in range(i + 1, n))
        r = isqrt((top - s) // w[i])
        if i:
            for val in ys(-r, r, c, e[i]):
                y[i] = val
                t = e[i] * val + c
                rec(i - 1, s + w[i] * t * t)
            return
        # the last coordinate also needs w_0 t_0^2 >= need - s
        gap = need - s
        inner = isqrt((gap - 1) // w[0]) + 1 if gap > 0 else 0
        if inner > r:
            return
        rest = tuple(y[1:])
        for t_lo, t_hi in [(-r, r)] if inner == 0 else [(-r, -inner), (inner, r)]:
            out.extend((val,) + rest for val in ys(t_lo, t_hi, c, e[0]))

    rec(n - 1, 0)
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

    The whole quadratic shell is enumerated exactly, and a shell point is
    kept when every linear condition holds as an integer window on
    x_j^T (scale*Q) y; the conditions need not be independent.
    """
    t0 = time.time()
    n = Q.n
    if not (0 <= k <= n - 2 and len(xs) == k and len(q) == k + 1):
        raise ValueError("need 0 <= k <= n - 2, k vectors xs and k + 1 targets q")
    delta = Fraction(delta)
    err = Fraction(X) ** 2 * delta
    q = [Fraction(v) for v in q]
    lam_lo, _ = Q.eigen_bounds()
    box = int(_sqrt_upper((q[0] + err) / lam_lo)) + 1

    # the linear conditions as integer windows on x_j^T (scale*Q) y
    imgs = [[sum(a * c for a, c in zip(row, x)) for row in Q.scaled] for x in xs]
    windows = [(ceil((v - err) * Q.scale), floor((v + err) * Q.scale)) for v in q[1:]]
    hits = [
        y
        for y in quadratic_shell_points(Q, q[0] - err, q[0] + err, box)
        if all(
            g_lo <= sum(a * b for a, b in zip(img, y)) <= g_hi
            for img, (g_lo, g_hi) in zip(imgs, windows)
        )
    ]
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
            "box": box,
        },
        count=len(hits),
        witnesses=[(y,) for y in hits] if collect_witnesses else None,
        elapsed=time.time() - t0,
    )


def fit_exponent(sizes, counts) -> float | None:
    """Least-squares slope of log(count) against log(size); None if degenerate."""
    pairs = [(s, c) for s, c in zip(sizes, counts) if c > 0]
    if len(pairs) < 2:
        return None
    xs = np.log([float(s) for s, _ in pairs])
    ys = np.log([float(c) for _, c in pairs])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


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
    t0 = time.time()
    Q = QuadraticForm.random_spd(n, seed) if Q is None else Q
    rng = np.random.default_rng(seed + 1)
    counts = []
    ladder = []
    for X in Xs:
        dlt = Fraction(1, X**4) if delta is None else Fraction(delta)
        rung = 0
        for _ in range(repeats):
            while True:
                ystar = tuple(int(v) for v in rng.integers(-X // 2, X // 2 + 1, size=n))
                xs = [
                    tuple(int(v) for v in rng.integers(-X // 2, X // 2 + 1, size=n))
                    for _ in range(k)
                ]
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
        elapsed=time.time() - t0,
        notes={"ladder": ladder},
    )


# -- deviation from a scaled isometry ------------------------------------------------


def _root_bracket(value: int, n: int, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of value^(1/n) with width 2^-prec_bits."""
    lo_i = _int_nth_root(value, n)
    if lo_i**n == value:
        return Fraction(lo_i), Fraction(lo_i)
    lo, hi = Fraction(lo_i), Fraction(lo_i + 1)
    width = Fraction(1, 2**prec_bits)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid**n <= value:
            lo = mid
        else:
            hi = mid
    return lo, hi


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


def det_power_bracket(det: int, n: int, prec_bits: int = 40) -> tuple[Fraction, Fraction]:
    """Bracket of det^(2/n); exact (zero-width) when det^2 is a perfect n-th power."""
    if det <= 0:
        raise ValueError("determinant must be positive")
    return _root_bracket(det * det, n, prec_bits)


def matrix_deviation(gamma: Matrix, Q: QuadraticForm, prec_bits: int = 60) -> float:
    """Max-entry distance of gamma^T Q gamma from det^{2/n} Q, normalized.

    Returns a float midpoint; use deviation_at_most for exact gating.
    """
    lo, hi = _deviation_bracket(gamma, Q, prec_bits)
    return float((lo + hi) / 2)


def _deviation_bracket(
    gamma: Matrix, Q: QuadraticForm, prec_bits: int
) -> tuple[Fraction, Fraction]:
    """Bracket of the deviation max_ij |(gamma^T Q gamma)_ij / r - Q_ij| at
    r = det^(2/n), from the rational bracket [r_lo, r_hi] of r.

    Integer arithmetic throughout: with S = scale*Q and G = gamma^T S gamma,
    the (i, j) entry at r = a/b is (G_ij b - a S_ij) / (a scale).  The
    values at r_lo and at r_hi share the denominator (a_lo scale)(a_hi scale)
    for every entry, so only the two results become Fractions.
    """
    n = Q.n
    det = matrix_det(gamma)
    if det <= 0:
        raise ValueError("determinant must be positive")
    r_lo, r_hi = det_power_bracket(det, n, prec_bits)
    (a1, b1), (a2, b2) = r_lo.as_integer_ratio(), r_hi.as_integer_ratio()
    d1, d2 = a1 * Q.scale, a2 * Q.scale
    cols = list(zip(*gamma))
    dev_lo = dev_hi = 0
    for i in range(n):
        for j in range(i, n):
            g, sij = Q.scaled_apply(cols[i], cols[j]), Q.scaled[i][j]
            # the entry's values at r_lo and at r_hi, times d1*d2; it is
            # monotone in r, so its range misses 0 only when they share a sign
            v1, v2 = (g * b1 - a1 * sij) * d2, (g * b2 - a2 * sij) * d1
            if v1 * v2 > 0:
                dev_lo = max(dev_lo, min(abs(v1), abs(v2)))
            dev_hi = max(dev_hi, abs(v1), abs(v2))
    return Fraction(dev_lo, d1 * d2), Fraction(dev_hi, d1 * d2)


def deviation_at_most(
    gamma: Matrix, Q: QuadraticForm, delta, prec_bits: int = 60, max_bits: int = 4096
) -> bool:
    """Exact membership test for matrix deviation <= delta.

    Refines the determinant-root bracket until the comparison is decidable;
    aborts if the test is still ambiguous at max_bits (boundary case).
    """
    delta = Fraction(delta)
    bits = prec_bits
    while bits <= max_bits:
        lo, hi = _deviation_bracket(gamma, Q, bits)
        if hi <= delta:
            return True
        if lo > delta:
            return False
        if lo == hi:
            return lo <= delta
        bits *= 2
    raise PrecisionError("deviation test undecidable at maximum precision")


# -- the matrix enumerator -----------------------------------------------------------


def enumerate_S_delta(
    Q: QuadraticForm,
    m: int,
    l: int,
    delta,
    collect_witnesses: bool = True,
    node_budget: int = 50_000_000,
    prec_bits: int = 60,
) -> CountReport:
    """All integer matrices with determinant m, entry gcd 1, second
    determinantal divisor l, and deviation at most delta from a scaled
    isometry of Q.

    Column-by-column search over per-column pools of quadratic-shell
    points: fixing a column keeps, in each later column's pool, the points
    that meet its integer inner-product window and make all 2-by-2 minors
    with it vanish modulo l.  notes["nodes"] counts the column prefixes
    meeting every such condition, and node_budget bounds that count.
    Emitted matrices are re-validated independently (determinant, Smith
    form, deviation, congruences).
    """
    t0 = time.time()
    n = Q.n
    delta = Fraction(delta)
    r_lo, r_hi = det_power_bracket(m, n, prec_bits)
    lam_lo, _ = Q.eigen_bounds()

    def window(qij) -> tuple[Fraction, Fraction]:
        lo_c = [r_lo * (qij - delta), r_hi * (qij - delta)]
        hi_c = [r_lo * (qij + delta), r_hi * (qij + delta)]
        return min(lo_c), max(hi_c)

    shells: dict[Fraction, list[tuple[int, ...]]] = {}
    box = int(_sqrt_upper(max(window(Q.entries[j][j])[1] for j in range(n)) / lam_lo)) + 1
    for j in range(n):
        qjj = Q.entries[j][j]
        if qjj not in shells:
            w_lo, w_hi = window(qjj)
            shells[qjj] = quadratic_shell_points(Q, w_lo, w_hi, box)

    # the windows on the integer Gram entries scale * x_i^T Q x_j
    pairs = list(combinations(range(n), 2))
    scaled_windows = {}
    for i, j in pairs:
        w_lo, w_hi = window(Q.entries[i][j])
        scaled_windows[i, j] = (ceil(w_lo * Q.scale), floor(w_hi * Q.scale))

    nodes = 0
    complete = True
    witnesses: list[Matrix] = []
    count = 0

    def validate(gamma_cols: list[tuple[int, ...]]) -> bool:
        gamma = tuple(zip(*gamma_cols))
        if matrix_det(gamma) != m:
            return False
        divs = determinantal_divisors(gamma)
        if divs[0] != 1 or divs[1] != l:
            return False
        if not deviation_at_most(gamma, Q, delta, prec_bits):
            return False
        # congruence re-check over every index quadruple
        for j1 in range(n):
            for j2 in range(j1 + 1, n):
                for a in range(n):
                    for b in range(n):
                        if (gamma[a][j1] * gamma[b][j2] - gamma[b][j1] * gamma[a][j2]) % l:
                            return False
        return True

    def search(fixed: list[tuple[int, ...]], pools: list[list[tuple[int, ...]]]):
        # pools[k - j] holds the points of column k's shell that fit every
        # fixed column, where j = len(fixed)
        nonlocal nodes, count, complete
        j = len(fixed)
        for col in pools[0]:
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            cols = fixed + [col]
            if j == n - 1:
                if validate(cols):
                    count += 1
                    if collect_witnesses:
                        witnesses.append(tuple(zip(*cols)))
                continue
            img = [sum(a * c for a, c in zip(row, col)) for row in Q.scaled]
            later = []
            for k, pool in enumerate(pools[1:], j + 1):
                g_lo, g_hi = scaled_windows[j, k]
                later.append([
                    x for x in pool
                    if g_lo <= sum(a * b for a, b in zip(img, x)) <= g_hi
                    and all((col[a] * x[b] - col[b] * x[a]) % l == 0 for a, b in pairs)
                ])
            search(cols, later)
            if not complete:
                return

    search([], [shells[Q.entries[k][k]] for k in range(n)])
    witnesses.sort()
    return CountReport(
        parameters={
            "kind": "matrix_similitude_count",
            "n": n,
            "m": m,
            "l": l,
            "delta": str(delta),
            "Q": Q.digest(),
            "box": box,
            "precision_bits": prec_bits,
        },
        count=count,
        witnesses=witnesses if collect_witnesses else None,
        elapsed=time.time() - t0,
        complete=complete,
        notes={"nodes": nodes},
    )


def brute_force_S_delta(Q: QuadraticForm, m: int, l: int, delta, box: int) -> list[Matrix]:
    """Unpruned reference search over the full entry box (small cases only)."""
    n = Q.n
    delta = Fraction(delta)
    out = []
    for flat in product(range(-box, box + 1), repeat=n * n):
        gamma = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        if matrix_det(gamma) != m:
            continue
        divs = determinantal_divisors(gamma)
        if divs[0] != 1 or divs[1] != l:
            continue
        if deviation_at_most(gamma, Q, delta):
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
    t0 = time.time()
    if Q.n != 4:
        raise ValueError("the scaling ladder is a rank-4 experiment")
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
        ladder.append({"p": p, "l": p**nu, "count": rep.count, "complete": rep.complete})
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
        elapsed=time.time() - t0,
        complete=complete,
        notes={
            "ladder": ladder,
            "benchmark_slope": 3,
            "target_slope": 3 - 1 / (2 * nu),
        },
    )


def columns_proportional_mod(gamma: Matrix, l: int) -> bool:
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
