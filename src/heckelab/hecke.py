"""The Hecke algebra at a prime as exact linear combinations of double cosets.

Products are computed through the Satake map: multiply the images, then
expand the product polynomial back in the basis of scaled images by
peeling leading partitions.  Every scaled image has unit coefficient at
its own partition and support below it, so the change of basis is
uni-triangular and the peeling is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import Partition
from .sympoly import SymPoly
from .satake import satake_image, scaled_image


@dataclass(frozen=True)
class HeckeElement:
    """Finite rational linear combination of double-coset operators at one prime.

    Stored partitions have non-negative parts.  Powers of the central coset
    diag(p, ..., p) are carried by the partitions themselves: adding
    (k, ..., k) to a partition multiplies its Satake image by
    p^(-k n(n+1)/2) (x_1...x_n)^k, and reduced() drops them, since the
    central coset acts as the identity operator.
    """

    n: int
    p: int
    terms: dict[Partition, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for a, c in self.terms.items():
            c = Fraction(c)
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
        return cls(n=a.n, p=p, terms={a: Fraction(1)})

    @classmethod
    def identity(cls, n: int, p: int) -> "HeckeElement":
        return cls(n=n, p=p, terms={Partition((0,) * n): Fraction(1)})

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("summands differ in rank or prime")
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, Fraction(0)) + c
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
        out: dict[Partition, Fraction] = {}
        for a, c in self.terms.items():
            b = Partition(tuple(x - a[-1] for x in a))
            out[b] = out.get(b, Fraction(0)) + c
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


def _peel_order(key: tuple[int, ...]) -> tuple:
    return sum(key), key


def _expand_in_scaled_basis(f: SymPoly, p: int) -> dict[Partition, Fraction]:
    """Write a symmetric polynomial as a combination of scaled Satake images.

    Peels support keys in descending (weight, lex) order on one residual
    dict, subtracting c times each scaled image entry by entry; the unit
    leading coefficients of the scaled images make every pivot exact.
    Raises if the residual fails to shrink, which would signal a
    support-condition bug.
    """
    out: dict[Partition, Fraction] = {}
    residual = dict(f.terms)
    last = None
    while residual:
        key = max(residual, key=_peel_order)
        if last is not None and _peel_order(key) >= _peel_order(last):
            raise ArithmeticError("basis expansion failed to make progress")
        if key[-1] < 0:
            raise ArithmeticError(f"cannot expand: negative exponent at {key}")
        c = residual[key]
        a = Partition(key)
        out[a] = c
        for k, v in scaled_image(a, p).terms.items():
            r = residual.get(k, 0) - c * v
            if r:
                residual[k] = r
            else:
                residual.pop(k, None)
        last = key
    return out


def multiply(e: HeckeElement, f: HeckeElement) -> HeckeElement:
    """Exact product of two elements, via Satake images and basis inversion."""
    if (e.n, e.p) != (f.n, f.p):
        raise ValueError("factors differ in rank or prime")
    prod = SymPoly.zero(e.n)
    pe, pf = e.p, f.p
    for a, ca in e.terms.items():
        img_a = satake_image(a, pe).scaled
        for b, cb in f.terms.items():
            img_b = satake_image(b, pf).scaled
            scale = ca * cb * Fraction(1, pe ** (a.v_weight() + b.v_weight()))
            prod = prod + (img_a * img_b).scale(scale)
    coeffs = _expand_in_scaled_basis(prod, e.p)
    terms = {a: c * pe ** a.v_weight() for a, c in coeffs.items()}
    return HeckeElement(e.n, e.p, terms)


def multiply_generators(a, b, p: int) -> dict[Partition, int]:
    """Structure constants of a product of two double-coset operators.

    These count coset pairs, so they must be non-negative integers; a
    non-integer output aborts with a diagnostic.
    """
    prod = multiply(HeckeElement.generator(a, p), HeckeElement.generator(b, p))
    out = {}
    for c, coeff in prod.terms.items():
        if coeff.denominator != 1 or coeff < 0:
            raise ArithmeticError(
                f"structure constant {coeff} at {c} is not a non-negative integer"
            )
        out[c] = coeff.numerator
    return out


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

    v1 = Partition((j,) + (0,) * (n - 1)).v_weight()
    v2 = Partition((j,) * (n - 1) + (0,)).v_weight()
    alpha = {
        a: c * Fraction(p) ** (a.v_weight() - v1 - v2) for a, c in prod.terms.items()
    }
    duality_ok = True
    for a, val in alpha.items():
        dual = Partition(tuple(2 * j - x for x in reversed(a)))
        if alpha.get(dual) != val:
            duality_ok = False

    scaled_prod = satake_of_element(prod).scale(Fraction(p) ** (v1 + v2))
    dense = scaled_prod.expanded()
    feq_ok = all(
        dense.get(tuple(2 * j - x for x in k)) == c for k, c in dense.items()
    )

    c = {}
    for a, coeff in prod.terms.items():
        i = family.get(a)
        if i is not None:
            c[i] = coeff / Fraction(p) ** ((n - 1) * i)
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
