"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: exact equality for the
algebraic identities, stated factors for the stability checks, and strict
slope inequalities for the counting trends.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from heckelab.partitions import Partition, enumerate_partitions, verify_cholesky
from heckelab.satake import degree_via_satake, schur_limit_defect
from heckelab.cosets import (
    CosetBudgetError,
    coset_decomposition,
    determinantal_divisors_bruteforce,
    matrix_det,
    oracle_multiply,
)
from heckelab.hecke import multiply_generators, verify_lem2
from heckelab.amplifier import (
    SpectralParams,
    amplifier_coefficients,
    laplace_eigenvalue,
    rho,
    spectral_density,
)
from heckelab.diophantine import (
    QuadPoly2,
    QuadraticForm,
    corollary_count_ladder,
    deviation_at_most,
    enumerate_S_delta,
    lembp_count,
    scaling_experiment,
)

BUDGET = 10**6
DELTA = Fraction(1, 10**6)


def report(num: int, text: str):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_cross_oracle_multiplication():
    t0 = time.time()
    checked = skipped = 0
    # n = 4 is the paper's rank; p = 5 is left out there, where weight 3
    # alone has 2 558 556 coset candidates
    for n, primes in ((2, (2, 3, 5)), (3, (2, 3, 5)), (4, (2, 3))):
        parts = [a for w in range(0, 4) for a in enumerate_partitions(n, w)]
        for p in primes:
            for a in parts:
                for b in parts:
                    try:
                        oracle = oracle_multiply(a, b, p, budget=BUDGET)
                    except CosetBudgetError:
                        skipped += 1
                        continue
                    satake_route = multiply_generators(a, b, p)
                    assert satake_route == dict(oracle), (n, p, a, b)
                    assert all(
                        isinstance(v, int) and v >= 0 for v in satake_route.values()
                    )
                    checked += 1
    elapsed = time.time() - t0
    assert skipped == 0, f"{skipped} pairs over budget"
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    report(1, f"{checked} generator products match the coset oracle exactly "
              f"({skipped} pairs over budget), {elapsed:.0f}s")


def test_criterion_2_gram_factorization():
    t0 = time.time()
    for n in range(1, 7):
        rep = verify_cholesky(n)
        assert rep.product_matches and rep.det_is_one and rep.success, n
    elapsed = time.time() - t0
    assert elapsed < 60
    report(2, f"D = A^T A entrywise with det D = 1 for n <= 6, {elapsed:.1f}s")


def test_criterion_3_amplifier_identity():
    t0 = time.time()
    for n in (2, 3, 4):
        for p in (2, 3, 5, 101):
            system = amplifier_coefficients(n, p)
            assert system.identity_ok, (n, p)
    for p in (2, 3, 5, 101):
        system = amplifier_coefficients(2, p, verify=False)
        assert system.y[Partition((1, 1))] == Fraction(p, p + 1)
        assert system.y[Partition((2, 0))] == Fraction(-p, p + 1)
    for n in (2, 3, 4):
        maxima = [
            float(amplifier_coefficients(n, p, verify=False).max_abs_y)
            for p in (101, 1009, 10007)
        ]
        assert max(maxima) / min(maxima) < 1.10, (n, maxima)
    elapsed = time.time() - t0
    assert elapsed < 600
    report(3, "operator identity exact for n in {2,3,4}, p in {2,3,5,101}; "
              f"coefficients bounded within 10% up to p = 10007, {elapsed:.0f}s")


def test_criterion_4_adjoint_product_support():
    t0 = time.time()
    n = 4
    ladder_c: dict[tuple[int, int], list[Fraction]] = {}
    for j in (1, 2, 3, 4):
        for p in (2, 3, 5):
            rep = verify_lem2(n, j, p)
            if p in (2, 3):
                assert rep.support_ok and rep.tail_parts_ok, (j, p)
                assert rep.duality_ok and rep.functional_equation_ok, (j, p)
            for i, c in rep.c.items():
                ladder_c.setdefault((j, i), []).append(c)
    for (j, i), vals in ladder_c.items():
        nonzero = [abs(v) for v in vals if v]
        assert len(nonzero) == len(vals), (j, i, vals)
        assert max(nonzero) <= 2 * min(nonzero), (j, i, vals)
    elapsed = time.time() - t0
    report(4, "support confined to (2j-i, j, j, i) with coefficients stable "
              f"within factor 2 over p in {{2,3,5}}, {elapsed:.0f}s")


def test_criterion_5_degree_consistency():
    t0 = time.time()
    for n in (2, 3):
        for total in range(0, 4):
            for a in enumerate_partitions(n, total):
                for p in (2, 3, 5):
                    assert degree_via_satake(a, p) == coset_decomposition(a, p).degree
    assert degree_via_satake(Partition((1, 0)), 3) == 4
    elapsed = time.time() - t0
    report(5, f"image at the trivial point equals the coset degree exactly, {elapsed:.0f}s")


def test_criterion_6_schur_limit():
    t0 = time.time()
    for n in (2, 3, 4):
        for total in range(0, 7):
            for a in enumerate_partitions(n, total):
                d1 = schur_limit_defect(a, 101) * 101
                d2 = schur_limit_defect(a, 1009) * 1009
                if d1 == 0 or d2 == 0:
                    assert d1 == d2 == 0, a
                else:
                    assert max(d1, d2) <= 2 * min(d1, d2), (a, d1, d2)
    elapsed = time.time() - t0
    report(6, "scaled defect p * |image - schur| stable within factor 2 "
              f"between p = 101 and p = 1009, {elapsed:.0f}s")


@pytest.mark.parametrize("m,l", [(16, 2), (81, 3)])
def test_criterion_7_counting_structure(m, l):
    t0 = time.time()
    q = QuadraticForm.identity(4)
    rep = enumerate_S_delta(q, m, l, DELTA)
    assert rep.complete and rep.count == len(rep.witnesses) > 0
    # deterministic work count next to the wall-clock gate below
    assert rep.notes["nodes"] == {(16, 2): 1896, (81, 3): 10712}[m, l]
    assert rep.notes["leaf_rejections"] == {
        (16, 2): {"det": 576, "divisors": 192},
        (81, 3): {"det": 3264, "divisors": 192},
    }[m, l]
    for w in rep.witnesses:
        assert matrix_det(w) == m
        divs = determinantal_divisors_bruteforce(w)
        assert divs[0] == 1 and divs[1] == l
        assert deviation_at_most(w, q, DELTA)
        for j1, j2 in combinations(range(4), 2):
            for a in range(4):
                for b in range(4):
                    assert (w[a][j1] * w[b][j2] - w[b][j1] * w[a][j2]) % l == 0
    if (m, l) == (16, 2):
        sign_mats = [w for w in rep.witnesses if all(abs(x) == 1 for r in w for x in r)]
        assert len(sign_mats) == 384
        for h in sign_mats:
            cols = list(zip(*h))
            assert all(
                sum(a * b for a, b in zip(cols[i], cols[j])) == (4 if i == j else 0)
                for i in range(4)
                for j in range(i, 4)
            )
    smaller = enumerate_S_delta(q, m, l, DELTA / 10, collect_witnesses=False)
    assert smaller.count == rep.count
    elapsed = time.time() - t0
    assert elapsed < 600
    report(7, f"(m,l)=({m},{l}): {rep.count} witnesses revalidated independently; "
              f"count invariant under delta/10, {elapsed:.0f}s")


def test_criterion_8_exponent_trends():
    t0 = time.time()
    for n, k in ((3, 0), (3, 1), (4, 0), (4, 1), (4, 2)):
        rep = corollary_count_ladder(n, k, [10, 20, 30, 40], seed=20)
        assert rep.exponent_fit is not None
        assert rep.exponent_fit <= n - k - 2 + 0.3, (n, k, rep.exponent_fit)
    primes = [2, 3, 5, 7, 11, 13]
    scaling = scaling_experiment(QuadraticForm.identity(4), 1, primes, DELTA)
    assert scaling.complete
    assert scaling.exponent_fit is not None and scaling.exponent_fit < 3
    # at nu = 1 every odd rung counts 192 (p + 1)^2
    counts = {rung["p"]: rung["count"] for rung in scaling.notes["ladder"]}
    assert all(counts[p] == 192 * (p + 1) ** 2 for p in primes if p > 2)
    nu2 = scaling_experiment(QuadraticForm.identity(4), 2, [2, 3], DELTA)
    assert nu2.complete
    assert [rung["count"] for rung in nu2.notes["ladder"]] == [0, 27648]
    elapsed = time.time() - t0
    assert elapsed < 1800
    report(8, f"corollary ladder slopes within n-k-2+0.3; similitude ladder slope "
              f"{scaling.exponent_fit:.2f} < 3 (target {scaling.notes['target_slope']}) "
              f"over p in {primes}, {elapsed:.0f}s")


def test_criterion_9_binary_quadratic_oracle():
    rep = lembp_count(QuadPoly2(1, 0, 1, 0, 0, -25), Fraction(1, 2))
    assert rep.count == 12
    assert lembp_count(QuadPoly2(1, 0, 1), Fraction(1, 2)).count == 1
    assert lembp_count(QuadPoly2(1, 1, 1, 0, 0, -1), Fraction(1, 2)).count == 6
    report(9, "binary quadratic counts match the arithmetic cross-checks exactly")


def test_criterion_10_spectral_utilities():
    assert laplace_eigenvalue(SpectralParams(mu=(0, 0, 0, 0))) == Fraction(5, 2)
    assert spectral_density((3, 1, -1, -3)) == 4725
    SpectralParams(mu=tuple(complex(0, float(r)) for r in rho(4)))
    with pytest.raises(ValueError):
        SpectralParams(mu=(0.6j, -0.6j))
    report(10, "eigenvalue and density formulas exact; parameter validation "
               "accepts the hull boundary and rejects outside points")
