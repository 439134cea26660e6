"""The Hecke algebra at a prime as exact linear combinations of double cosets.

Products are computed through the Satake map, in integers: multiply the
images R_a (see satake) on the basis m', then peel the product back into
the R_c by leading partitions.  Every R_c has coefficient 1 at m'_c and
support below c, so the peeling is exact and yields the structure
constants, Hall polynomials at p, as ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import Partition
from .sympoly import SymPoly, scaled_product
from .satake import satake_image


@dataclass(frozen=True)
class HeckeElement:
    """Finite rational linear combination of double-coset operators at one prime.

    An integral coefficient is stored as an int, any other as a Fraction, so
    products of generators stay in ints.  Stored partitions have non-negative
    parts.  Powers of the central coset diag(p, ..., p) are carried by the
    partitions themselves: adding (k, ..., k) to a partition multiplies its
    Satake image by p^(-k n(n+1)/2) (x_1...x_n)^k, and reduced() drops them,
    since the central coset acts as the identity operator.
    """

    n: int
    p: int
    terms: dict[Partition, int | Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for a, c in self.terms.items():
            if not isinstance(c, int):
                c = Fraction(c)
                c = c.numerator if c.denominator == 1 else c
            if c:
                a = Partition(a)
                if a.n != self.n:
                    raise ValueError(f"term {tuple(a)} does not have rank {self.n}")
                clean[a] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors --------------------------------------------------

    @classmethod
    def generator(cls, a, p: int) -> "HeckeElement":
        a = Partition(a)
        return cls(n=a.n, p=p, terms={a: 1})

    @classmethod
    def identity(cls, n: int, p: int) -> "HeckeElement":
        return cls(n=n, p=p, terms={Partition((0,) * n): 1})

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("summands differ in rank or prime")
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0) + c
        return HeckeElement(self.n, self.p, out)

    def scale(self, c) -> "HeckeElement":
        c = Fraction(c)
        return HeckeElement(self.n, self.p, {a: coeff * c for a, coeff in self.terms.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and (self.n, self.p) == (other.n, other.p)
            and self.terms == other.terms
        )

    def reduced(self) -> "HeckeElement":
        """Canonical operator form: last part of every partition shifted to 0.

        The shed central powers are dropped (the central coset is the
        identity operator), so two elements are equal as operators iff
        their reduced forms have equal term dicts.
        """
        out: dict[Partition, int | Fraction] = {}
        for a, c in self.terms.items():
            b = Partition(tuple(x - a[-1] for x in a))
            out[b] = out.get(b, 0) + c
        return HeckeElement(self.n, self.p, out)

    def operator_equal(self, other: "HeckeElement") -> bool:
        return self.reduced().terms == other.reduced().terms

    def __repr__(self):
        bits = [f"{c}*T{tuple(a)}" for a, c in sorted(self.terms.items())]
        return f"HeckeElement(p={self.p}: " + (" + ".join(bits) or "0") + ")"


def satake_of_element(e: HeckeElement) -> SymPoly:
    """Satake image: the sum of coefficients times images."""
    total = SymPoly.zero(e.n)
    for a, c in e.terms.items():
        total = total + satake_image(a, e.p).poly.scale(c)
    return total


def _integral_image(e: HeckeElement) -> dict:
    """sum c_a R_a over the terms of e, on the basis m'."""
    out: dict = {}
    for a, c in e.terms.items():
        for k, v in satake_image(a, e.p).integral.items():
            out[k] = out.get(k, 0) + c * v
    return out


def _peel(residual: dict, p: int) -> dict[Partition, int | Fraction]:
    """Write a polynomial on the basis m' as a combination of the images R_c.

    Peels support keys in descending (weight, lex) order off one residual
    dict, subtracting c times each R_c entry by entry; their unit
    coefficients at their own partitions make every pivot exact.  Raises if
    the residual fails to shrink, which would signal a support-condition bug.
    """
    out = {}
    last = None
    while residual:
        key = max(residual, key=lambda k: (sum(k), k))
        if last is not None and (sum(key), key) >= last:
            raise ArithmeticError("basis expansion failed to make progress")
        if key[-1] < 0:
            raise ArithmeticError(f"cannot expand: negative exponent at {key}")
        c = residual[key]
        a = Partition(key)
        out[a] = c
        for k, v in satake_image(a, p).integral.items():
            r = residual.get(k, 0) - c * v
            if r:
                residual[k] = r
            else:
                residual.pop(k, None)
        last = sum(key), key
    return out


def multiply(e: HeckeElement, f: HeckeElement) -> HeckeElement:
    """Exact product of two elements: one product of integral images, then peeled."""
    if (e.n, e.p) != (f.n, f.p):
        raise ValueError("factors differ in rank or prime")
    prod = scaled_product(_integral_image(e), _integral_image(f), e.p)
    return HeckeElement(e.n, e.p, _peel(prod, e.p))


def multiply_generators(a, b, p: int) -> dict[Partition, int]:
    """Structure constants of a product of two double-coset operators.

    These count coset pairs, so they must be non-negative integers; a
    non-integer output aborts with a diagnostic.
    """
    prod = multiply(HeckeElement.generator(a, p), HeckeElement.generator(b, p))
    for c, coeff in prod.terms.items():
        if not isinstance(coeff, int) or coeff < 0:
            raise ArithmeticError(
                f"structure constant {coeff} at {c} is not a non-negative integer"
            )
    return prod.terms


def upper_generator(j: int, n: int, p: int) -> HeckeElement:
    """Operator of diag(p^j, 1, ..., 1)."""
    return HeckeElement.generator(Partition((j,) + (0,) * (n - 1)), p)


def adjoint_generator(j: int, n: int, p: int) -> HeckeElement:
    """Operator of diag(p^j, ..., p^j, 1), the adjoint of upper_generator(j)."""
    return HeckeElement.generator(Partition((j,) * (n - 1) + (0,)), p)


@dataclass
class Lem2Report:
    """Decomposition data of the product of a generator with its adjoint."""

    n: int
    j: int
    p: int
    support_ok: bool  # every term is of the shape (2j-i, j, ..., j, i)
    tail_parts_ok: bool  # parts 1..n-1 of every support partition are >= j
    duality_ok: bool  # normalized coefficients symmetric under a -> dual(a)
    functional_equation_ok: bool  # image invariant under x -> (x_1...x_n)^{2j}/x
    c: dict[int, Fraction]  # i -> c_ij with term coefficient c_ij * p^{(n-1)i}
    product: HeckeElement


def verify_lem2(n: int, j: int, p: int) -> Lem2Report:
    """Decompose the product of diag(p^j,1,...,1) with its adjoint.

    Checks that the support is exactly contained in the one-parameter family
    (2j-i, j, ..., j, i) for 0 <= i <= j and extracts the bounded
    coefficients c_ij from the p-power normalization.
    """
    if n < 2:
        raise ValueError("the adjoint-product decomposition needs rank n >= 2")
    e = upper_generator(j, n, p)
    f = adjoint_generator(j, n, p)
    prod = multiply(e, f)
    family = {Partition((2 * j - i,) + (j,) * (n - 2) + (i,)): i for i in range(j + 1)}
    support_ok = all(a in family for a in prod.terms)
    tail_ok = all(all(a[k] >= j for k in range(n - 1)) for a in prod.terms)

    v12 = j + j * n * (n - 1) // 2  # v(j, 0, ..., 0) + v(j, ..., j, 0)
    alpha = {a: c * Fraction(p) ** (a.v_weight() - v12) for a, c in prod.terms.items()}
    duality_ok = all(alpha.get(Partition(2 * j - x for x in a)) == v for a, v in alpha.items())

    # x -> (x_1...x_n)^{2j}/x maps m'_k to m'_(2j - k), with the same n at weight jn
    image = _integral_image(prod)
    feq_ok = all(image.get(tuple(2 * j - x for x in reversed(k))) == c for k, c in image.items())

    c = {i: prod.terms[a] / Fraction(p) ** ((n - 1) * i)
         for a, i in family.items() if a in prod.terms}
    return Lem2Report(
        n=n,
        j=j,
        p=p,
        support_ok=support_ok,
        tail_parts_ok=tail_ok,
        duality_ok=duality_ok,
        functional_equation_ok=feq_ok,
        c=c,
        product=prod,
    )
