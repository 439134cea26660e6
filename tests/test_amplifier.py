import cmath
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from heckelab import partitions, satake, sympoly
from heckelab.partitions import Partition
from heckelab.hecke import HeckeElement, multiply, upper_generator, verify_lem2
from heckelab.amplifier import (
    AmplifierSystem,
    EigenvalueTable,
    SingularSystemError,
    SpectralParams,
    amplifier_coefficients,
    amplifier_value,
    corollary_big_check,
    laplace_eigenvalue,
    rho,
    spectral_density,
)


# -- spectral utilities ---------------------------------------------------------


def test_laplace_examples():
    assert laplace_eigenvalue(SpectralParams(mu=(0, 0, 0, 0))) == Fraction(5, 2)
    assert laplace_eigenvalue(SpectralParams(mu=(1, 1, -1, -1))) == Fraction(9, 2)
    t = 0.37
    val = laplace_eigenvalue(SpectralParams(mu=(1j * t, -1j * t)))
    assert abs(val - (0.25 - t * t)) < 1e-12


def test_density_examples():
    assert spectral_density((0, 0, 0, 0)) == 1
    assert spectral_density((3, 1, -1, -3)) == 4725
    t = 5
    assert spectral_density((t, -t)) == 1 + 2 * t


def test_spectral_params_validation():
    SpectralParams(mu=(0.5, -0.5))
    # boundary: mu = i * rho is accepted
    SpectralParams(mu=tuple(complex(0, float(r)) for r in rho(4)))
    with pytest.raises(ValueError):
        SpectralParams(mu=(1, 1))  # nonzero sum
    with pytest.raises(ValueError):
        SpectralParams(mu=(1j, 1, -1))  # not conjugation-closed
    with pytest.raises(ValueError):
        SpectralParams(mu=(0.6j, -0.6j))  # outside the hull at rank 2


def test_rho():
    assert rho(4) == (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))


# -- the solved linear system -----------------------------------------------------


def test_rank_one_system():
    system = amplifier_coefficients(1, 7)
    assert system.y == {Partition((1,)): Fraction(1)}
    assert system.identity_ok


def test_rank_two_closed_form():
    for p in (2, 3, 5, 101):
        system = amplifier_coefficients(2, p)
        assert system.y[Partition((1, 1))] == Fraction(p, p + 1)
        assert system.y[Partition((2, 0))] == Fraction(-p, p + 1)
        assert system.identity_ok


def test_rank_two_matrix_layout():
    system = amplifier_coefficients(2, 5, verify=False)
    assert system.partitions == [Partition((2, 0)), Partition((1, 1))]
    assert system.matrix == [
        [Fraction(1), Fraction(1)],
        [Fraction(4, 5), Fraction(2)],
    ]


def test_identity_exact_small_ranks():
    for n, p in ((2, 2), (3, 2), (3, 101), (4, 3)):
        assert amplifier_coefficients(n, p).identity_ok, (n, p)


def test_identity_lhs_reduces_to_identity_operator():
    n, p = 3, 5
    system = amplifier_coefficients(n, p, verify=False)
    total = None
    for a, ya in system.y.items():
        prod = HeckeElement.identity(n, p)
        for part in a:
            if part:
                prod = multiply(prod, upper_generator(part, n, p))
        contrib = prod.scale(ya)
        total = contrib if total is None else total + contrib
    lhs = total.scale(Fraction(p) ** n)
    # as an operator the right side is p^{n(n+1)/2} times the identity
    assert lhs.reduced() == HeckeElement.identity(n, p).scale(
        Fraction(p) ** (n * (n + 1) // 2)
    )


def test_second_prime_reuses_the_prime_free_tables():
    # the monomial structure constants with their p-exponents and the
    # tableau polynomials depend only on the partitions, so a second prime
    # builds no new entry
    tables = (sympoly._monomial_product, partitions._tableau_sum, satake._tableau_polynomials)
    for cache in tables + (satake.satake_image,):
        cache.cache_clear()
    amplifier_coefficients(4, 2)
    misses = [cache.cache_info().misses for cache in tables]
    assert amplifier_coefficients(4, 3).identity_ok
    assert [cache.cache_info().misses for cache in tables] == misses


def test_benchmark_pass_builds_pinned_tables():
    # the amplifier benchmark's systems and adjoint products from cold caches:
    # every tableau table is built once, and a central shift a + (s^n) reads
    # the tableau sums of a instead of building its own
    tables = (partitions._tableau_sum, satake._tableau_polynomials)
    for cache in tables + (satake.satake_image,):
        cache.cache_clear()
    for n, p in ((5, 3), (5, 101), (4, 2), (4, 3), (4, 5), (4, 101)):
        assert amplifier_coefficients(n, p).identity_ok
    for j in range(1, 5):
        assert verify_lem2(4, j, 3).functional_equation_ok
    assert [cache.cache_info().misses for cache in tables] == [367, 46]


def closed_forms(n, p):
    """y as rational functions of p, from the Cramer quotients N_a(p) / det M(p)."""
    q, r, s = p + 1, p * p + 1, p * p + p + 1
    F = Fraction
    if n == 3:
        return {(3, 0, 0): F(p**2, s), (2, 1, 0): F(-p**2 * (2 * p + 1), q * s),
                (1, 1, 1): F(p**3, q * s)}
    return {(4, 0, 0, 0): F(-p**3, q * r),
            (3, 1, 0, 0): F(p**3 * (2 * p * p + p + 1), q * r * s),
            (2, 2, 0, 0): F(p**4, q * q * r),
            (2, 1, 1, 0): F(-p**4 * (3 * p * p + 2 * p + 1), q * q * r * s),
            (1, 1, 1, 1): F(p**6, q * q * r * s)}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_closed_forms_of_y(n, p):
    system = amplifier_coefficients(n, p, verify=False)
    assert {tuple(a): v for a, v in system.y.items()} == closed_forms(n, p)


def test_boundedness_across_prime_ladder():
    for n in (2, 3, 4):
        maxima = [
            float(amplifier_coefficients(n, p, verify=False).max_abs_y)
            for p in (101, 1009, 10007)
        ]
        spread = max(maxima) / min(maxima)
        assert spread < 1.10, (n, maxima)


# -- eigenvalue tables and the detector ---------------------------------------------


def test_trivial_table_witnesses_bound():
    system = amplifier_coefficients(2, 101, verify=False)
    table = EigenvalueTable.trivial(2, 101)
    rep = corollary_big_check(table, system)
    assert rep.normalized[1] > 1  # already above any threshold at j = 1
    assert rep.bound_holds
    assert rep.contradiction < 1e-9


def test_eigenvalue_table_validation():
    with pytest.raises(ValueError):
        EigenvalueTable(2, 5, {1: 1.0})  # no eigenvalue for j = 2
    with pytest.raises(ValueError):
        EigenvalueTable(2, 5, {1: 1.0, 2: 1.0}, alpha=(1, 1, 1))


def test_big_check_rejects_mismatched_system():
    system = amplifier_coefficients(2, 5, verify=False)
    with pytest.raises(ValueError):
        corollary_big_check(EigenvalueTable.trivial(2, 7), system)


def test_random_torus_points_satisfy_bound():
    rng = random.Random(5)
    for n in (2, 3, 4):
        system = amplifier_coefficients(n, 101, verify=False)
        for _ in range(350):
            phis = [rng.uniform(0, 2 * cmath.pi) for _ in range(n - 1)]
            alpha = [cmath.exp(1j * t) for t in phis]
            last = 1.0 + 0j
            for a in alpha:
                last /= a
            alpha.append(last)
            table = EigenvalueTable.from_satake_params(n, 101, alpha)
            rep = corollary_big_check(table, system)
            assert rep.bound_holds, (n, alpha)
            assert rep.contradiction < 1e-8


def test_adversarial_zero_table():
    system = amplifier_coefficients(3, 7, verify=False)
    table = EigenvalueTable(3, 7, {j: 0j for j in (1, 2, 3)})
    rep = corollary_big_check(table, system)
    assert not rep.bound_holds
    assert abs(rep.contradiction - 1.0) < 1e-12  # identity misses by the full target


def test_satake_param_product_validated():
    with pytest.raises(ValueError):
        EigenvalueTable.from_satake_params(2, 7, (2.0, 1.0))


def test_trivial_table_matches_param_route():
    triv = EigenvalueTable.trivial(3, 7)
    via_params = EigenvalueTable.from_satake_params(3, 7, triv.alpha)
    for j in (1, 2, 3):
        assert via_params.lam[j] == pytest.approx(triv.lam[j], rel=1e-9)
    # eigenvalues of the trivial representation are the coset degrees
    from heckelab.partitions import Partition
    from heckelab.satake import degree_via_satake

    assert triv.lam[1].real == pytest.approx(
        degree_via_satake(Partition((1, 0, 0)), 7)
    )


# -- the averaged amplifier value -----------------------------------------------------


def _tables(n, primes):
    return [EigenvalueTable.trivial(n, p) for p in primes]


def test_single_prime_value_positive():
    tabs = _tables(2, [101])
    systems = {101: amplifier_coefficients(2, 101, verify=False)}
    val = amplifier_value(tabs, tabs, L=100, systems=systems)
    direct = sum(
        (abs(tabs[0].lam[j]) / 101 ** (j * 1 / 2)) ** 2 for j in (1, 2)
    )
    assert val == pytest.approx(direct)
    assert val > float(systems[101].threshold) ** 2 / 2


def test_value_below_floor_raises():
    # a threshold no genuine system reaches puts the floor above the value
    tabs = _tables(2, [101])
    systems = {101: SimpleNamespace(threshold=10**6)}
    with pytest.raises(ArithmeticError):
        amplifier_value(tabs, tabs, systems=systems)


def test_zero_reference_gives_zero():
    tabs = _tables(2, [101])
    zero = [EigenvalueTable(2, 101, {1: 0j, 2: 0j})]
    assert amplifier_value(tabs, zero) == 0.0


def test_duplicate_primes_rejected():
    tabs = _tables(2, [101]) * 2
    with pytest.raises(ValueError):
        amplifier_value(tabs, tabs)


def test_empty_table_list_rejected():
    with pytest.raises(ValueError, match="table"):
        amplifier_value([], [])


def test_prime_window_enforced():
    tabs = _tables(2, [101, 211])
    with pytest.raises(ValueError):
        amplifier_value(tabs, tabs, L=100)


def test_positive_rescale_leaves_signs():
    # multiplying the reference by a positive real changes no sign, so the value
    # computed from fixed tables is unchanged
    primes = [101, 103]
    tabs = _tables(2, primes)
    ref_scaled = [
        EigenvalueTable(2, p, {j: 2.5 * t.lam[j] for j in (1, 2)})
        for p, t in zip(primes, tabs)
    ]
    v1 = amplifier_value(tabs, tabs)
    v2 = amplifier_value(tabs, ref_scaled)
    assert v1 == pytest.approx(v2)


def test_adversarial_cancellation():
    # reference signs fixed by table one; table two arranged to cancel
    p1, p2 = 101, 103
    t1 = EigenvalueTable.trivial(2, p1)
    lam2 = {j: -t1.lam[j] * (p2 / p1) ** (j / 2) for j in (1, 2)}
    t2 = EigenvalueTable(2, p2, lam2)
    tabs = [t1, t2]
    ref = [t1, EigenvalueTable.trivial(2, p2)]
    val = amplifier_value(tabs, ref)
    singles = sum(
        sum((abs(t.lam[j]) / t.p ** (j / 2)) ** 2 for j in (1, 2)) for t in tabs
    )
    assert val < 4 * singles
    # near-total cancellation by construction
    assert val < 1e-3 * singles
