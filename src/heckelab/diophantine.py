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

The matrix search builds matrices column by column, in one loop over the
pool of the next column.  Each column k starts from a pool of points of its
quadratic shell; fixing a column filters every later pool by the Gram
window against it and by the congruences forcing all 2-by-2 minors with it
to vanish modulo the divisor target, so every leaf, a point of the last
column's pool, already meets the deviation bound.  A pool is an integer
bitmask over its column's shell.  Whether a shell point passes this filter
against a fixed point depends only on the two points and three entries of
the form, so each fixed point's filter is computed once, as the bitmask of
the points that pass, and filtering a pool is one integer AND.  The
congruences say that the point lies in one of the residue classes set by
the fixed point (_minor_classes), so the filter reads those classes off
an index of the shell by residue and decides the Gram window on them only,
each by one dot product.  The minors and gcds of the fixed columns are
carried down the search, so a full matrix is decided without re-deriving
them: its determinant is one dot product and its divisors two gcds.

One loop walks the first column's shell in shell order and searches only
the first point of each orbit under the signed permutations k with
k^T Q k = Q, which are found by filtering all 2^n n! signed permutations.
gamma -> k gamma keeps every condition but the determinant, which it
multiplies by det k, so the subtree at k x is the image of the subtree at
x; its node count, leaf rejections and witnesses are read off that one
subtree, sorted by determinant m and -m.  A point whose subtree would cross
the node budget is searched on its own, so a cut is the full search's.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, floor, fsum, gcd, isqrt, lcm, log, prod
from operator import itemgetter, mul

from .linalg import column_echelon, condition_at_most, gram_schmidt, lll, matrix_det, require_prime
from .seeded import Generator

Matrix = tuple[tuple[int, ...], ...]

NODE_BUDGET = 50_000_000  # the default bound on the nodes of one S_delta search


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
    Q: QuadraticForm | None = None,
    repeats: int = 4,
) -> CountReport:
    """Run the count over an X-ladder with seeded targets and fit the exponent.

    For each X several target points are planted (so every count is positive)
    and the counts summed, smoothing out the arithmetic fluctuation of single
    representation numbers; the constraint values q are read off random
    integer vectors of size about X.  Every rung counts with delta = 1/X^4.
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
        dlt = Fraction(1, X**4)
        rung = 0
        for _ in range(repeats):
            while True:
                ystar = tuple(rng.integers(-X // 2, X // 2 + 1, n))
                xs = [tuple(rng.integers(-X // 2, X // 2 + 1, n)) for _ in range(k)]
                gram = [[sum(a * b for a, b in zip(x, z)) for z in xs] for x in xs]
                if k == 0 or matrix_det(gram) != 0:
                    if any(ystar):
                        break
            q = [Fraction(Q.scaled_apply(x, ystar), Q.scale) for x in [ystar, *xs]]
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


def _signed_automorphisms(S: Matrix) -> list[tuple[tuple[int, ...], int]]:
    """The signed permutations k with k^T S k = S, with their determinants.

    Each k is given as the index tuple g with (k x)_i = (x + (-x))[g_i]:
    g_i = p(i) where row i of k is s_i e_p(i), with s_i = 1, and n + p(i)
    where s_i = -1.  Then k^T S k = S reads S[p(i)][p(j)] = s_i s_j S[i][j],
    and det k = sign(p) prod s_i.  Every permutation p keeping the diagonal
    is tried with every sign vector s.
    """
    n = len(S)
    pairs = list(combinations(range(n), 2))
    out = []
    for p in permutations(range(n)):
        if any(S[a][a] != S[i][i] for i, a in enumerate(p)):
            continue
        sign = -1 if sum(p[i] > p[j] for i, j in pairs) % 2 else 1
        for s in product((1, -1), repeat=n):
            if all(S[p[i]][p[j]] == s[i] * s[j] * S[i][j] for i, j in pairs):
                g = tuple(a if si == 1 else n + a for a, si in zip(p, s))
                out.append((g, sign * prod(s)))
    return out


def _minor_classes(c, l: int) -> tuple[int, list[tuple[int, ...]]]:
    """(L, classes): the residue vectors mod L of the x with every 2-by-2
    minor of (c, x) 0 mod l, listed as classes[lam] = lam * (c/g) mod L for
    lam < L, where g = gcd(l, c_1, ..., c_n) and L = l/g.

    Let p^e exactly divide l and p^v divide g.  If v < e, c/p^v has a
    coordinate a prime to p, so the minors with row a force x = x_a c_a^-1
    c/p^v mod p^(e-v), and every such x makes every minor a multiple of
    p^e; if v = e, every x passes.  CRT joins the prime powers.  c/g is
    primitive mod L, so the classes are distinct.
    """
    g = gcd(l, *c)
    L = l // g
    step = [v // g for v in c]
    return L, [tuple([lam * v % L for v in step]) for lam in range(L)]


def enumerate_S_delta(
    Q: QuadraticForm,
    m: int,
    l: int,
    delta,
    collect_witnesses: bool = True,
    node_budget: int = NODE_BUDGET,
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
    point of column k's shell fits point c of column j's shell depends only
    on the two points and scale*Q_jj, scale*Q_kk and scale*Q_jk, so the
    bitmask of the points that fit c is computed once, on first use, and
    kept in a table shared by the column pairs with equal entries (all of
    them for I_n); filtering a pool is pool & fit.  The minors vanish mod l
    on the residue classes mod L of _minor_classes(c, l), which an index of
    the shell by residue mod L lists, and each point listed is kept when
    its Gram entry, one dot product with scale*Q*c, lies in its window.

    One loop visits the pool of every column: a node at depth j < n - 1
    filters the later pools and descends, and a node at depth n - 1 is a
    leaf, a full matrix, which therefore meets the deviation bound once its
    determinant is m.  It is decided from state carried down the search:
    the minors of the fixed columns, extended by one Laplace step per
    column, and from those of the first n - 2 columns and column n - 2 the
    cofactors along the last column, give the determinant as one n-term dot
    product; D_1 is the gcd of the entries and D_2 the gcd of the 2-by-2
    minors, neither computed further once it reaches 1, resp. l.
    notes["leaf_rejections"] counts the leaves failing on the determinant
    and on the divisors, in that order of testing.

    One loop walks column 0's shell in shell order, under the group G of
    signed permutations k with k^T (scale Q) k = scale Q (_signed_automorphisms).
    k maps the shells, the Gram entries, the 2-by-2 minors up to sign (so
    their congruences mod l and D_2) and D_1 onto themselves, and multiplies
    the determinant by det k, so the subtree at y = k_y x is k_y times the
    subtree at x.  Only the first point x of each orbit is searched, its
    leaves sorted by determinant m, -m or other, each with its divisor
    status; each later y of the orbit books that subtree through k_y: its
    nodes, the rejections of a leaf gamma with det(k_y gamma) = det(k_y)
    det(gamma), and (with witnesses) the matrices k_y gamma of the leaves
    with det(gamma) = det(k_y) m.  So nodes, leaf_rejections and the
    witnesses are those of the full search.  A point whose subtree would
    take nodes past node_budget is searched on its own instead, so a cut
    stops at the full search's shell-order prefix.
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
    # tests[j][k][i] is the bitmask over column k's shell of the points that
    # fit point i of column j's shell: their Gram entry with it lies in its
    # window and their 2-by-2 minors with it vanish mod l.  Fitting depends
    # on the two points and the entries scale*Q_jj, scale*Q_kk and
    # scale*Q_jk only, so column pairs with equal entries share one table.
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
    # by_class[s, L] maps each residue vector mod L to the indices of the
    # points of shell s in it, built the first time L occurs
    by_class: dict[tuple[int, int], dict] = {}

    def fit(k: int, img, L: int, classes, lo: int, hi: int) -> int:
        # the points x of column k's shell in one of the classes mod L whose
        # Gram entry img . x lies in [lo, hi]
        s = Q.scaled[k][k]
        shell = shells[s]
        index = by_class.get((s, L))
        if index is None:
            index = by_class[s, L] = {}
            for t, x in enumerate(shell):
                index.setdefault(tuple([v % L for v in x]), []).append(t)
        bits = 0
        for key in classes:
            for t in index.get(key, ()):
                if lo <= sum(map(mul, img, shell[t])) <= hi:
                    bits |= 1 << t
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
    # tally[d] = [passed, failed, found] for the leaves of determinant d that
    # an automorphism may map to determinant m: how many meet the divisor
    # targets, how many fail them, and (with witnesses) the matrices that
    # meet them; other counts the leaves of every other determinant
    tally: dict[int, list] = {}
    other = 0

    def search(fixed, pools, minors, g1, g2):
        # pools[k - j] is the bitmask over column k's shell of the points
        # that fit every fixed column, where j = len(fixed); minors lists
        # the minors of the fixed columns on the j-subsets of rows, in
        # combinations order, and at j = n - 1, where each point completes
        # a leaf, the cofactors along the last column; g1 and g2 are the
        # gcds of their entries and of their 2-by-2 minors
        nonlocal nodes, complete, other
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
            if j == n - 1:
                # det = <cof, col> by Laplace expansion along the last column
                rec = tally.get(sum(map(mul, minors, col)))
                if rec is None:
                    other += 1
                    continue
            img = None
            later = []
            for k, pool_k in enumerate(pools[1:], j + 1):
                if pool_k:
                    known = row[k][i]
                    if known is None:
                        if img is None:
                            img = [sum(map(mul, r, col)) for r in Q.scaled]
                            L, classes = _minor_classes(col, l)
                        known = row[k][i] = fit(k, img, L, classes, *windows[Q.scaled[j][k]])
                    pool_k &= known
                if k == j + 1 and not pool_k:
                    break  # the child would visit no node
                later.append(pool_k)
            else:  # no break: column j + 1 has candidates, or col ends a leaf
                # the pools make every 2-by-2 minor 0 mod l, so D_2 is a
                # multiple of l: it is l once g2 is, and _minor_gcd may stop at l
                g1_col = g1 if g1 == 1 else gcd(g1, *col)
                g2_col = g2 if g2 == l else _minor_gcd(g2, fixed, col, pairs, l)
                if j < n - 1:
                    search(
                        fixed + [col], later,
                        _extend_minors(minors, col, cof_plan if j == n - 2 else plan[j]),
                        g1_col, g2_col,
                    )
                    if not complete:
                        return
                elif g1_col != 1 or g2_col != l:
                    rec[1] += 1
                else:
                    rec[0] += 1
                    if collect_witnesses:
                        rec[2].append(tuple(zip(*fixed, col)))

    # the identity comes first, so a point searched itself books through it
    moves = [(itemgetter(*g), d) for g, d in _signed_automorphisms(Q.scaled)]
    full = [(1 << len(shell)) - 1 for shell in shell_of]
    count, rejections, witnesses = 0, {"det": 0, "divisors": 0}, []
    # booked[y] = (move, d, subtree) for a point y = k x not yet walked, where
    # x is the first point of y's orbit in shell order and k has det d;
    # subtree holds x's node count, leaf count and, by determinant, (passed,
    # failed, signed rows), and goes with the orbit's last point
    booked: dict[tuple[int, ...], tuple] = {}
    for i, x in enumerate(shell_of[0]):
        move, d, subtree = booked.pop(x, (None, None, None))
        if subtree is None or nodes + subtree[0] > node_budget:
            # search x itself: the first point of its orbit, or the point
            # whose subtree crosses node_budget, so the cut is the full search's
            signed_x = x + tuple(-v for v in x)
            orbit: dict[tuple[int, ...], tuple] = {}
            for move, d in moves:
                orbit.setdefault(move(signed_x), (move, d))
            tally = {d * m: [0, 0, []] for _, d in orbit.values()}
            other, before = 0, nodes
            search([], [1 << i] + full[1:], [1], 0, 0)
            # each leaf's rows and their negations, for a move to pick k gamma from
            subtree = (nodes - before, other + sum(p + f for p, f, _ in tally.values()), {
                det: (p, f, [w + tuple(tuple(-v for v in row) for row in w) for w in found])
                for det, (p, f, found) in tally.items()
            })
            del orbit[x]
            for y, (move, d) in orbit.items():
                booked.setdefault(y, (move, d, subtree))
            move, d = moves[0]
        else:
            nodes += subtree[0]
        passed, failed, rows = subtree[2][d * m]
        count += passed
        rejections["det"] += subtree[1] - passed - failed
        rejections["divisors"] += failed
        witnesses.extend(map(move, rows))
        if not complete:
            break
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
    """Unpruned reference search over the entry box (small cases only).

    The matrices are built from the box's columns whose diagonal Gram entry
    lies in its window, and each is tested directly: its determinant, its
    determinantal divisors from their definition (D_1 = 1 as the gcd of the
    entries, D_2 = l as the gcd of every 2-by-2 minor), then its Gram
    entries against the windows of (Q, delta, m), which are built once.
    The determinant is the Laplace expansion along the last column, whose
    cofactors are computed once per choice of the first n - 1 columns.
    """
    n = Q.n
    if n < 2:
        raise ValueError("the second determinantal divisor needs rank at least 2")
    windows = _gram_windows(Q, Fraction(delta), m)
    columns = list(product(range(-box, box + 1), repeat=n))
    diagonal = [windows[Q.scaled[j][j]] for j in range(n)]
    pools = [[c for c in columns if lo <= Q.scaled_apply(c, c) <= hi] for lo, hi in diagonal]
    out = []
    for prefix in product(*pools[:-1]):
        cof = [
            (-1) ** (n - 1 + i) * matrix_det([col[:i] + col[i + 1 :] for col in prefix])
            for i in range(n)
        ]
        for last in pools[-1]:
            if sum(map(mul, cof, last)) != m:
                continue
            gamma = tuple(zip(*prefix, last))
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
    node_budget: int = NODE_BUDGET,
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
