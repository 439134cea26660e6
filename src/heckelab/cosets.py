"""Ground-truth coset computations for double-coset operators.

Left cosets of the double coset of diag(p^{a_1}, ..., p^{a_n}) are
represented by integer matrices in Hermite form: upper triangular, positive
diagonal, and each above-diagonal entry reduced modulo the diagonal entry
of its column.  One cached pass per weight w lists the Hermite forms y of
determinant p^w, the [w + n − 1, n − 1]_p sublattices of index p^w in Zⁿ
(a count the budget reads in closed form), column by column, and carries
the columns of x = p^w·y⁻¹ with y's.  x is the adjugate of y, so the type
of y (its elementary divisors) is read off D₁, the gcd of y's entries, and
D_{n−1}, the gcd of x's: they fix it at n ≤ 3, and at any n when
D_{n−1} = D₁^{n−1}.  The other forms are typed by _p_local_type, which
pivots modulo p^{w+1} on entries of least p-adic valuation.  Each normal
form has one routine here: hermite_reduce_upper for Hermite forms, and
elementary_divisors, which reads the Smith form of any small nonsingular
matrix from its definition, the gcds of its minors.

The structure constants of a product of two operators are counted for one
fixed target per class: the coefficient of the class c in T_a·T_b is the
number of coset representatives y of b with diag(p^c)·y⁻¹ in the double
coset of a.  Each count is repeated at the reversed diagonal, another left
coset of the same class, and the two must agree.

Those counts depend on a only through its type, so they are read from a
tally kept per (b, target, p): the integral diag(p^c)·y⁻¹ counted by the
type of their Hermite form, shared by every left factor a.  The tally
reads the x of b's forms from the weight table of |b|, grouped there by
their need vector, need_i = max(0, |b| − min_j v_p(x_ij)) over the nonzero
entries of row i.  diag(p^c)·y⁻¹ is integral exactly when c ≥ need
componentwise, so one vector comparison decides integrality for a whole
group, and only the groups that pass are Hermite-reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from operator import ge, mul

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


def _type_from_gcds(d1: int, dn1: int, d: int, n: int) -> tuple[int, ...] | None:
    """Elementary divisors e_1 | … | e_n of det d from D₁ = e_1 and D_{n−1} = d / e_n.

    They fix the type when n ≤ 3 (e_2 = D_{n−1}/D₁ at n = 3), or when
    D_{n−1} = D₁^{n−1}, which forces e_1 = … = e_{n−1}; else None.
    """
    if n == 1:
        return (d,)
    if n > 3 and dn1 != d1 ** (n - 1):
        return None
    return (*(d1,) * (n - 2), dn1 // d1 ** (n - 2), d // dn1)


@lru_cache(maxsize=None)
def _weight_table(n: int, weight: int, p: int):
    """(forms, types, inverses) for the Hermite forms y of det p^weight, in one pass.

    Diagonals p^b in lexicographic order of b; offsets column by column,
    the last column innermost.  forms[t] lists the forms of type t, types[y]
    is y's type, and inverses[t] groups the x = p^weight·y⁻¹ of the forms of
    type t by need vector, in (need, xs) pairs in order of first appearance.
    x·y = p^weight·I gives x_ij = −Σ_{i≤k<j} x_ik·y_kj / y_jj, each division
    exact, so column j of x is built with column j of y, and
    need_i = weight − v_p(gcd(p^weight, row i of x)).  x is the adjugate of
    y, so the gcd of its entries is D_{n−1}(y): with D₁(y) it gives the type
    where _type_from_gcds can, and _p_local_type gives the rest.
    """
    d = p**weight
    log = {p**k: k for k in range(weight + 1)}
    forms: dict[tuple[int, ...], list[Matrix]] = {}
    types: dict[Matrix, tuple[int, ...]] = {}
    # type -> (gcd(p^weight, row i of x) for each i), which fixes the need -> xs
    by_gcds: dict[tuple[int, ...], dict[tuple[int, ...], list[Matrix]]] = {}
    for b in product(range(weight + 1), repeat=n):
        if sum(b) != weight:
            continue
        grown = [((), (), 0)]  # (columns of y, columns of x, gcd of y's entries)
        for j, e in enumerate(p**i for i in b):
            pad = (0,) * (n - j - 1)
            xjj = d // e
            leads, grown = grown, []
            for ycols, xcols, d1 in leads:
                xrows = list(zip(*xcols))
                for offs in product(range(e), repeat=j):
                    xcol = [-sum(map(mul, xrows[i], offs)) // e for i in range(j)]
                    grown.append((
                        (*ycols, (*offs, e, *pad)),
                        (*xcols, (*xcol, xjj, *pad)),
                        gcd(d1, e, *offs),
                    ))
        for ycols, xcols, d1 in grown:
            y, x = tuple(zip(*ycols)), tuple(zip(*xcols))
            gcds = tuple([gcd(d, *row) for row in x])
            t = _type_from_gcds(d1, gcd(*gcds), d, n) or _p_local_type(y, p, weight)
            types[y] = t
            forms.setdefault(t, []).append(y)
            by_gcds.setdefault(t, {}).setdefault(gcds, []).append(x)
    return (
        {t: tuple(ys) for t, ys in forms.items()},
        types,
        {
            t: tuple((tuple(weight - log[g] for g in gcds), tuple(xs)) for gcds, xs in group.items())
            for t, group in by_gcds.items()
        },
    )


def _type(a: Partition, p: int) -> tuple[int, ...]:
    """Elementary divisors of diag(p^a), the type shared by a's double coset."""
    return tuple(p**e for e in sorted(a))


@lru_cache(maxsize=None)
def _reps(a: Partition, p: int) -> tuple[Matrix, ...]:
    """The Hermite forms of a's cosets, in the order of the weight table.

    Those of a central shift a = a' + (kⁿ) are p^k times those of a', the
    forms with D₁ divisible by p^k, in the same order; so a's own weight
    table is built only when its last part is 0.
    """
    k = a[-1]
    if k:
        s, base = p**k, _reps(Partition(e - k for e in a), p)
        return tuple(tuple(tuple(s * v for v in row) for row in y) for y in base)
    forms, _, _ = _weight_table(a.n, a.weight, p)
    return forms.get(_type(a, p), ())


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


@lru_cache(maxsize=None)
def _tally(b: Partition, exps: tuple[int, ...], p: int) -> dict[tuple[int, ...], int]:
    """The integral γ·y⁻¹, γ = diag(p^exps), over b's coset reps y, counted by type.

    Each x = p^{|b|}·y⁻¹ of b's weight table gives an integral γ·y⁻¹
    exactly when exps ≥ its need componentwise, one comparison per group.
    An integral γ·y⁻¹ is upper triangular with positive diagonal, so its
    Hermite form is one of the forms of its determinant's weight table,
    typed when it was listed; the entry at a's type is the count for a.
    The tally is shared by every left factor and read-only.

    For a central shift b = b' + (kⁿ), y = p^k·y' makes γ·y⁻¹ =
    diag(p^(exps − k))·y'⁻¹, so the inverses are read from the weight table
    of |b'|; every need is then at least k, and none is met if min(exps) < k.
    """
    k = b[-1]
    if k > min(exps):
        return {}
    b, exps = Partition(e - k for e in b), tuple(e - k for e in exps)
    d = p**b.weight
    _, _, inverses = _weight_table(b.n, b.weight, p)
    _, types, _ = _weight_table(b.n, sum(exps) - b.weight, p)
    scale = [p**e for e in exps]
    tally: dict[tuple[int, ...], int] = {}
    for need, xs in inverses.get(_type(b, p), ()):
        if all(map(ge, exps, need)):
            for x in xs:
                g = [[s * v // d for v in row] for s, row in zip(scale, x)]
                t = types[hermite_reduce_upper(g)]
                tally[t] = tally.get(t, 0) + 1
    return tally


@lru_cache(maxsize=None)
def _targets(n: int, weight: int) -> tuple[Partition, ...]:
    """The classes of rank n and the given weight, enumerated once."""
    return tuple(enumerate_partitions(n, weight))


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
    inverses come with the weight table of |b|.  Both coset decompositions
    and the budget check still run on every call.
    """
    a, b = Partition(a), Partition(b)
    if a.n != b.n:
        raise ValueError("both operators must have the same rank n")
    budget = DEFAULT_BUDGET if budget is None else budget
    coset_decomposition(a, p, budget)
    cb = coset_decomposition(b, p, budget)
    targets = _targets(a.n, a.weight + b.weight)
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
