"""Amplifier construction: the exact linear system over weight-n partitions,
the lower-bound detector for normalized eigenvalues, and spectral utilities.

The linear system expresses the product of the central monomial x_1...x_n in
the coordinates given by products of Satake images of the operators
diag(p^j, 1, ..., 1).  Its exact solution y gives the operator identity

    p^n * sum_a y_a * prod_j T_[a_j]  =  p^{n(n+1)/2} * T_(1,...,1),

which is re-verified through the Hecke-algebra multiplication route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import solve
from .partitions import Partition, weight_partitions
from .satake import monomial_coefficients, satake_image, trivial_point
from .sympoly import evaluate, n_weight, scaled_product
from .hecke import HeckeElement, multiply, upper_generator


# -- spectral utilities ------------------------------------------------------


def rho(n: int) -> tuple[Fraction, ...]:
    """Half-sum of positive roots: ((n-1)/2, (n-3)/2, ..., -(n-1)/2)."""
    return tuple(Fraction(n + 1 - 2 * j, 2) for j in range(1, n + 1))


def _majorized_by(v, w, tol: float) -> bool:
    """True iff sorted(v) is majorized by sorted(w) (equal sums assumed)."""
    sv = sorted(v, reverse=True)
    sw = sorted(w, reverse=True)
    acc_v = acc_w = 0.0
    for x, y in zip(sv, sw):
        acc_v += x
        acc_w += y
        if acc_v > acc_w + tol:
            return False
    return True


@dataclass(frozen=True)
class SpectralParams:
    """Archimedean spectral parameters: sum zero, conjugation-closed,
    imaginary parts inside the Weyl-orbit hull of rho."""

    mu: tuple[complex, ...]
    tol: float = 1e-9

    def __post_init__(self):
        mu = tuple(complex(m) for m in self.mu)
        object.__setattr__(self, "mu", mu)
        if abs(sum(mu)) > self.tol:
            raise ValueError("spectral parameters must sum to zero")
        conj = sorted(mu, key=lambda z: (z.real, z.imag))
        conj_bar = sorted((z.conjugate() for z in mu), key=lambda z: (z.real, z.imag))
        if any(abs(x - y) > self.tol for x, y in zip(conj, conj_bar)):
            raise ValueError("spectral parameters must be closed under conjugation")
        imag = [m.imag for m in mu]
        hull = [float(r) for r in rho(len(mu))]
        if not _majorized_by(imag, hull, self.tol):
            raise ValueError("imaginary parts lie outside the spectral hull")

    @property
    def n(self) -> int:
        return len(self.mu)


def laplace_eigenvalue(params: SpectralParams):
    """(n^3 - n)/24 + (mu_1^2 + ... + mu_n^2)/2; exact for exact inputs."""
    n = params.n
    s = sum(m * m for m in params.mu)
    if abs(s.imag) > params.tol:
        raise ValueError("eigenvalue not real; invalid parameter set")
    real = s.real
    if real == int(real):
        return Fraction(n**3 - n, 24) + Fraction(int(real), 2)
    return (n**3 - n) / 24 + real / 2


def spectral_density(lams) -> Fraction | float:
    """Product over pairs j < k of (1 + |lam_j - lam_k|)."""
    out: Fraction | float = Fraction(1)
    vals = list(lams)
    for j in range(len(vals)):
        for k in range(j + 1, len(vals)):
            d = vals[j] - vals[k]
            out = out * (1 + (d if d >= 0 else -d))
    return out


# -- the amplifier linear system ----------------------------------------------


class SingularSystemError(RuntimeError):
    """The coefficient matrix of the amplifier system is singular at this prime."""


@dataclass
class AmplifierSystem:
    """Solved amplifier system at one prime.

    partitions are listed in descending lex order, so the matrix row of the
    all-ones partition is the last one and the right-hand side is the last
    standard basis vector.
    """

    n: int
    p: int
    partitions: list[Partition]
    matrix: list[list[Fraction]]
    y: dict[Partition, Fraction]
    identity_ok: bool

    @property
    def max_abs_y(self) -> Fraction:
        return max(abs(v) for v in self.y.values())

    @property
    def threshold(self) -> Fraction:
        """Lower bound witnessed by at least one normalized eigenvalue."""
        return 1 / (Fraction(len(self.partitions)) * self.max_abs_y)


def amplifier_coefficients(n: int, p: int, verify: bool = True) -> AmplifierSystem:
    """Solve the amplifier system exactly and verify the operator identity.

    The matrix entry at (row a', column a) is the coefficient of the
    monomial orbit a' in the product of scaled images attached to a; the
    right-hand side picks out the orbit of (1, ..., 1).  The products are
    formed in integers on the basis m' (see satake), which scales row a' by
    p^{n(a')}, so that form is solved against p^{n(1^n)} e.
    """
    parts = sorted(weight_partitions(n), reverse=True)
    generators = [satake_image(Partition((j,) + (0,) * (n - 1)), p).integral
                  for j in range(n + 1)]
    columns = []
    for a in parts:
        img = generators[0]
        for part in a:
            if part:
                img = scaled_product(img, generators[part], p)
        columns.append(img)
    rows = [[col.get(aprime, 0) for col in columns] for aprime in parts]
    ones = Partition((1,) * n)
    _, sol = solve(rows, [[p ** n_weight(ones) * (a == ones)] for a in parts])
    if sol is None:
        raise SingularSystemError("singular amplifier matrix")
    y = {a: row[0] for a, row in zip(parts, sol)}
    matrix = [[Fraction(x, p ** n_weight(aprime)) for x in row]
              for aprime, row in zip(parts, rows)]

    identity_ok = True
    if verify:
        total = None
        for a in parts:
            prod = HeckeElement.identity(n, p)
            for part in a:
                if part:
                    prod = multiply(prod, upper_generator(part, n, p))
            contrib = prod.scale(y[a])
            total = contrib if total is None else total + contrib
        lhs = total.scale(Fraction(p) ** n)
        rhs_el = HeckeElement.generator((1,) * n, p).scale(
            Fraction(p) ** (n * (n + 1) // 2)
        )
        identity_ok = lhs == rhs_el
    return AmplifierSystem(
        n=n, p=p, partitions=parts, matrix=matrix, y=y, identity_ok=identity_ok
    )


# -- eigenvalue tables and the detector ----------------------------------------


def _generator_images_at(n: int, p: int, point) -> dict:
    """j -> the image of diag(p^j, 1, ..., 1) evaluated at the point, j = 1..n."""
    return {j: evaluate(monomial_coefficients(satake_image(Partition((j,) + (0,) * (n - 1)), p),
                                              image=True), point)
            for j in range(1, n + 1)}


@dataclass(frozen=True)
class EigenvalueTable:
    """Eigenvalues of the operators diag(p^j, 1, ..., 1) for j = 1..n."""

    n: int
    p: int
    lam: dict[int, complex]
    alpha: tuple[complex, ...] | None = None

    def __post_init__(self):
        if set(self.lam) != set(range(1, self.n + 1)):
            raise ValueError("need one eigenvalue for each j = 1..n")
        if self.alpha is not None and len(self.alpha) != self.n:
            raise ValueError("need n Satake parameters")

    @classmethod
    def from_satake_params(cls, n: int, p: int, alpha, tol: float = 1e-8) -> "EigenvalueTable":
        alpha = tuple(complex(a) for a in alpha)
        prod = 1
        for a in alpha:
            prod *= a
        if abs(prod - 1) > tol:
            raise ValueError("satake parameters must have product 1")
        lam = _generator_images_at(n, p, [p ** ((n + 1) / 2) * a for a in alpha])
        return cls(n=n, p=p, lam=lam, alpha=alpha)

    @classmethod
    def trivial(cls, n: int, p: int) -> "EigenvalueTable":
        """Table of the trivial representation: eigenvalues are coset degrees."""
        lam = {j: complex(v) for j, v in _generator_images_at(n, p, trivial_point(n, p)).items()}
        alpha = tuple(complex(p ** ((n + 1 - 2 * i) / 2)) for i in range(1, n + 1))
        return cls(n=n, p=p, lam=lam, alpha=alpha)


@dataclass
class BigCheckReport:
    n: int
    p: int
    normalized: dict[int, float]
    witness_j: int
    threshold: float
    bound_holds: bool
    contradiction: float  # relative defect in the amplifier identity


def corollary_big_check(table: EigenvalueTable, system: AmplifierSystem) -> BigCheckReport:
    """Find the largest normalized eigenvalue and test it against the threshold.

    For eigenvalue data coming from genuine Satake parameters the bound must
    hold; for adversarial data that fails it, the report carries the exact
    amount by which the amplifier identity is violated, certifying that no
    genuine parameter set produces such a table.
    """
    n, p = table.n, table.p
    if (n, p) != (system.n, system.p):
        raise ValueError("table and amplifier system differ in n or p")
    normalized = {
        j: abs(table.lam[j]) / p ** (j * (n - 1) / 2) for j in range(1, n + 1)
    }
    witness = max(normalized, key=normalized.get)
    threshold = float(system.threshold)
    bound_holds = normalized[witness] >= threshold * (1 - 1e-12)

    lam = dict(table.lam)
    lam[0] = 1.0
    acc = 0j
    for a, ya in system.y.items():
        term = complex(ya)
        for part in a:
            term *= lam[part]
        acc += term
    acc *= p**n
    target = p ** (n * (n + 1) // 2)
    contradiction = abs(acc - target) / target
    return BigCheckReport(
        n=n,
        p=p,
        normalized=normalized,
        witness_j=witness,
        threshold=threshold,
        bound_holds=bound_holds,
        contradiction=contradiction,
    )


# -- the averaged amplifier value ----------------------------------------------


def amplifier_value(
    tables: list[EigenvalueTable],
    reference: list[EigenvalueTable],
    L: float | None = None,
    systems: dict[int, AmplifierSystem] | None = None,
) -> float:
    """Non-negative spectral weight built from eigenvalue tables over primes.

    Signs are read off the reference tables (unit complex numbers, zero when
    the reference eigenvalue vanishes); the value is the sum over j of the
    squared absolute value of the sign-aligned prime average.  When the
    tables are the reference itself and the solved systems are supplied, the
    value is checked against the quadratic lower bound in the prime count.
    """
    if not tables:
        raise ValueError("at least one eigenvalue table is required")
    primes = [t.p for t in tables]
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    if L is not None and not all(L < p <= 2 * L for p in primes):
        raise ValueError("primes must lie in (L, 2L]")
    ref_by_p = {t.p: t for t in reference}
    if set(ref_by_p) != set(primes):
        raise ValueError("reference must cover the same primes")
    n = tables[0].n
    total = 0.0
    for j in range(1, n + 1):
        acc = 0j
        for t in tables:
            ref_lam = ref_by_p[t.p].lam[j]
            sign = abs(ref_lam) / ref_lam if ref_lam else 0.0
            acc += sign * t.lam[j] / t.p ** (j * (n - 1) / 2)
        total += abs(acc) ** 2
    is_reference = all(tables[i] is reference[i] or tables[i] == reference[i]
                       for i in range(len(tables))) if len(tables) == len(reference) else False
    if is_reference and systems is not None:
        thr = min(float(systems[p].threshold) for p in primes)
        floor = thr**2 / n * len(primes) ** 2
        if total < floor * (1 - 1e-9):
            raise ArithmeticError(f"amplifier value {total} below floor {floor}")
    return total
