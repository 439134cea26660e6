"""Ground-truth coset computations for double-coset operators.

Left cosets of the double coset of diag(p^{a_1}, ..., p^{a_n}) are
represented by integer matrices in Hermite form: upper triangular, positive
diagonal, and each above-diagonal entry reduced modulo the diagonal entry
of its column.  One cached pass per weight w types each Hermite form of
determinant p^w once (its elementary divisors) and keeps the forms of each
type, a complete, duplicate-free list for every a of weight w, and the type
of each form.  The forms are the [w + n − 1, n − 1]_p sublattices of index
p^w in Zⁿ, a count the budget reads in closed form.  At determinant ±p^w
every divisor is a power of p, so types are found modulo p^{w+1}, by
pivoting on entries of least p-adic valuation, with no Euclidean loop.
Each normal form has one routine here: hermite_reduce_upper for Hermite
forms, and elementary_divisors, which reads the Smith form of any small
nonsingular matrix from its definition, the gcds of its minors.

The structure constants of a product of two operators are counted for one
fixed target per class: the coefficient of the class c in T_a·T_b is the
number of coset representatives y of b with diag(p^c)·y⁻¹ in the double
coset of a.  Each count is repeated at the reversed diagonal, another left
coset of the same class, and the two must agree.

Those counts depend on a only through its type, so they are read from a
tally kept per (b, target, p): the integral diag(p^c)·y⁻¹ counted by the
type of their Hermite form, shared by every left factor a.  The tally
reads b's scaled inverses x = p^{|b|}·y⁻¹, built once per (b, p) and
grouped by their need vector, need_i = max(0, |b| − min_j v_p(x_ij)) over
the nonzero entries of row i.  diag(p^c)·y⁻¹ is integral exactly when
c ≥ need componentwise, so one vector comparison decides integrality for a
whole group, and only the groups that pass are Hermite-reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from .linalg import matrix_det, require_prime
from .partitions import Partition, enumerate_partitions

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_BUDGET = 10**6


class CosetBudgetError(RuntimeError):
    """Raised when an enumeration would exceed the configured size budget."""


# -- integer normal forms ----------------------------------------------------


def hermite_reduce_upper(m: Matrix) -> Matrix:
    """Hermite form of an already upper-triangular matrix with positive diagonal."""
    a = [list(row) for row in m]
    n = len(a)
    for j in range(n):
        d = a[j][j]
        for i in range(j):
            q = a[i][j] // d
            if q:
                for k in range(j, n):
                    a[i][k] -= q * a[j][k]
    return tuple(tuple(row) for row in a)


def determinantal_divisors_bruteforce(m: Matrix) -> tuple[int, ...]:
    """Determinantal divisors D_1, ..., D_n: the gcd of all j-by-j minors, for each j."""
    n = len(m)
    out = []
    for size in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                sub = tuple(tuple(m[r][c] for c in cols) for r in rows)
                g = gcd(g, matrix_det(sub))
        if g == 0:
            raise ValueError("singular matrix")
        out.append(g)
    return tuple(out)


def elementary_divisors(m: Matrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, each entry dividing the next.

    Read from the definition: the k-th divisor is D_k / D_(k−1), the
    quotient of the gcds of the k-by-k and (k−1)-by-(k−1) minors.  That
    evaluates C(2n, n) − 1 minors (251 at n = 5), so it serves small n
    only; raises ValueError on a singular matrix.
    """
    dets = (1, *determinantal_divisors_bruteforce(m))
    return tuple(b // a for a, b in zip(dets, dets[1:]))


def _p_local_type(m: Matrix, p: int, w: int) -> tuple[int, ...]:
    """Elementary divisors of a square integer matrix of determinant ±p^w.

    Each divisor is a power of p dividing p^w, so the Smith form over the
    integers localised at p, modulo q = p^{w+1}, gives them all.  Each step
    pivots on an entry g·u of least valuation (g = p^v, u a unit at p), sets
    row r to u·(row r) − (m_rc / g)·(pivot row), which clears the pivot
    column and is invertible at p, and drops the pivot's row and column,
    leaving the divisor g.  The last divisor is p^w over the others.
    """
    q = p ** (w + 1)
    rows = [list(row) for row in m]
    divisors = []
    rest = p**w
    while len(rows) > 1:
        flat = [x for row in rows for x in row]
        g = gcd(q, *flat)
        k = 0
        while not flat[k] // g % p:
            k += 1
        r0, c0 = divmod(k, len(rows))
        pivot = rows.pop(r0)
        u = pivot[c0] // g
        for r, row in enumerate(rows):
            f = row[c0] // g
            rows[r] = [(u * x - f * y) % q for x, y in zip(row, pivot)]
            del rows[r][c0]
        divisors.append(g)
        rest //= g
    return (*divisors, rest)


# -- coset enumeration ---------------------------------------------------------


@dataclass(frozen=True)
class CosetList:
    a: Partition
    p: int
    reps: tuple[Matrix, ...]

    @property
    def degree(self) -> int:
        return len(self.reps)


def _candidate_count(n: int, weight: int, p: int) -> int:
    """Number of Hermite forms of det p^weight, the sublattices of index p^weight in Zⁿ.

    That is the Gaussian binomial [weight + n − 1, n − 1]_p (Grunewald, Segal
    and Smith, Invent. Math. 93, 1988), as are its partial products here.
    """
    count = 1
    for i in range(1, n):
        count = count * (p ** (weight + i) - 1) // (p**i - 1)
    return count


@lru_cache(maxsize=None)
def _decompose_weight(n: int, weight: int, p: int):
    """(groups, types): the Hermite forms of det p^weight by type, and each one's type.

    Diagonals p^b in lexicographic order of b; offsets column by column.
    """
    cells = [(i, j) for j in range(n) for i in range(j)]
    groups: dict[tuple[int, ...], list[Matrix]] = {}
    types: dict[Matrix, tuple[int, ...]] = {}
    for b in product(range(weight + 1), repeat=n):
        if sum(b) != weight:
            continue
        diag = [p**e for e in b]
        for offs in product(*(range(diag[j]) for _, j in cells)):
            mat = [[0] * n for _ in range(n)]
            for j, d in enumerate(diag):
                mat[j][j] = d
            for (i, j), v in zip(cells, offs):
                mat[i][j] = v
            m = tuple(map(tuple, mat))
            t = types[m] = _p_local_type(m, p, weight)
            groups.setdefault(t, []).append(m)
    return {t: tuple(ms) for t, ms in groups.items()}, types


def _type(a: Partition, p: int) -> tuple[int, ...]:
    """Elementary divisors of diag(p^a), the type shared by a's double coset."""
    return tuple(p**e for e in sorted(a))


def _reps(a: Partition, p: int) -> tuple[Matrix, ...]:
    """The Hermite forms of a's cosets, read from the cached enumeration."""
    groups, _ = _decompose_weight(a.n, a.weight, p)
    return groups.get(_type(a, p), ())


def coset_decomposition(a: Partition, p: int, budget: int | None = None) -> CosetList:
    """Complete list of Hermite-form left-coset representatives for a at p."""
    a = Partition(a)
    if a.n < 1:
        raise ValueError("rank must be >= 1")
    require_prime(p)
    budget = DEFAULT_BUDGET if budget is None else budget
    predicted = _candidate_count(a.n, a.weight, p)
    if predicted > budget:
        raise CosetBudgetError(
            f"coset enumeration needs {predicted} candidates (budget {budget})"
        )
    return CosetList(a=a, p=p, reps=_reps(a, p))


# -- multiplication by fixed-target counting -----------------------------------


def _scaled_inverse(y: Matrix, d: int) -> Matrix:
    """d·y⁻¹ for an upper-triangular y with positive diagonal and det(y) = d.

    This is the adjugate of y, an integer upper-triangular matrix, found by
    back-substitution in y·x = d·I; every division is exact.
    """
    n = len(y)
    x = [[0] * n for _ in range(n)]
    for j in range(n):
        x[j][j] = d // y[j][j]
        for i in range(j - 1, -1, -1):
            s = sum(y[i][k] * x[k][j] for k in range(i + 1, j + 1))
            x[i][j] = -s // y[i][i]
    return tuple(tuple(row) for row in x)


def _need_vector(x: Matrix, p: int, w: int) -> tuple[int, ...]:
    """Least c with diag(p^c)·x divisible by p^w: max(0, w − min_j v_p(x_ij)) per row.

    The minimum runs over the nonzero entries of the row; a zero row needs
    nothing.
    """
    need = []
    for row in x:
        low = w  # min(w, least valuation seen so far)
        for v in row:
            if v:
                e = 0
                while e < low and v % p == 0:
                    v //= p
                    e += 1
                low = e
        need.append(w - low)
    return tuple(need)


@lru_cache(maxsize=None)
def _inverses_by_need(b: Partition, p: int):
    """p^{|b|}·y⁻¹ for every coset representative y of b, grouped by need vector.

    Built once per (b, p) from the cached enumeration, without a second
    call to coset_decomposition; returns (need, inverses) pairs.
    """
    d = p**b.weight
    groups: dict[tuple[int, ...], list[Matrix]] = {}
    for y in _reps(b, p):
        x = _scaled_inverse(y, d)
        groups.setdefault(_need_vector(x, p, b.weight), []).append(x)
    return tuple((need, tuple(xs)) for need, xs in groups.items())


@lru_cache(maxsize=None)
def _tally(b: Partition, exps: tuple[int, ...], p: int) -> dict[tuple[int, ...], int]:
    """The integral γ·y⁻¹, γ = diag(p^exps), over b's coset reps y, counted by type.

    Each inverse x = p^{|b|}·y⁻¹ of _inverses_by_need gives an integral γ·y⁻¹
    exactly when exps ≥ its need componentwise, one comparison per group.
    An integral γ·y⁻¹ is upper triangular with positive diagonal, so its
    Hermite form is one of the cached forms of its determinant, typed when
    it was listed; the entry at a's type is the count for a.  The tally is
    shared by every left factor and read-only.
    """
    d = p**b.weight
    _, types = _decompose_weight(b.n, sum(exps) - b.weight, p)
    scale = [p**e for e in exps]
    tally: dict[tuple[int, ...], int] = {}
    for need, inverses in _inverses_by_need(b, p):
        if all(e >= k for e, k in zip(exps, need)):
            for x in inverses:
                g = tuple(tuple(s * v // d for v in row) for s, row in zip(scale, x))
                t = types[hermite_reduce_upper(g)]
                tally[t] = tally.get(t, 0) + 1
    return tally


def oracle_multiply(
    a: Partition, b: Partition, p: int, budget: int | None = None
) -> dict[Partition, int]:
    """Structure constants of the product of two double-coset operators.

    The coefficient of the class c in T_a·T_b is the number of left cosets
    K·y of b with γ·y⁻¹ in K·D_a·K, for any one γ in K·D_c·K (Shimura,
    Introduction to the Arithmetic Theory of Automorphic Functions, §3.1).
    It is counted for every c of weight |a| + |b| at γ = diag(p^c), and
    again at the reversed diagonal, which lies in another left coset of the
    same class whenever the parts of c are not all equal; the two counts
    must agree.  Classes with coefficient 0 are left out.

    Both counts are read at a's type from the tally of (b, target, p),
    which is built once and shared by every left factor; b's scaled
    inverses are likewise built once per (b, p).  Both coset decompositions
    and the budget check still run on every call.
    """
    a, b = Partition(a), Partition(b)
    if a.n != b.n:
        raise ValueError("both operators must have the same rank n")
    budget = DEFAULT_BUDGET if budget is None else budget
    coset_decomposition(a, p, budget)
    cb = coset_decomposition(b, p, budget)
    targets = enumerate_partitions(a.n, a.weight + b.weight)
    tests = 2 * len(targets) * cb.degree
    if tests > budget:
        raise CosetBudgetError(f"{tests} integrality tests exceed budget {budget}")
    key = _type(a, p)
    out: dict[Partition, int] = {}
    for c in targets:
        count = _tally(b, c, p).get(key, 0)
        if c[0] != c[-1]:
            again = _tally(b, c[::-1], p).get(key, 0)
            if again != count:
                raise ArithmeticError(
                    f"class {tuple(c)} counted {count} at diag(p^c) "
                    f"but {again} at the reversed diagonal"
                )
        if count:
            out[c] = count
    return out
