"""Workload definitions for the heckelab benchmark: inputs, ops and answer checks.

An op is one call a user of heckelab waits for.  Every op returns a plain
result object; ``check`` decides, outside the timed region, whether the
answer is right (a golden digest where one is stored, plus invariants that
hold for any input) and whether the op completed in full.

Ops look up heckelab functions through their modules at call time, so the
span wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

DEFAULT_SEED = 20
COSET_BUDGET = 10**6
WORKLOADS = ("amplifier", "crosscheck", "counting")


@dataclass
class Op:
    key: str  # stable label of the op's inputs; golden digests are keyed by it
    run: Callable[[], Any]


@dataclass
class Outcome:
    """What the checks found for one op."""

    correct: bool  # the answer matches its digest and every invariant
    complete: bool  # every route answered (no budget refusal)
    problems: list[str]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- amplifier -----------------------------------------------------------------


def _amplifier_ops(hk, smoke: bool) -> list[Op]:
    systems = [(3, 2)] if smoke else [(5, 3), (5, 101), (4, 2), (4, 3), (4, 5), (4, 101)]
    lem2 = [] if smoke else [(4, j, 3) for j in range(1, 5)]
    ops = [
        Op(f"amplifier_coefficients({n},{p})",
           lambda n=n, p=p: ("system", hk.amplifier.amplifier_coefficients(n, p)))
        for n, p in systems
    ]
    ops += [
        Op(f"verify_lem2({n},{j},{p})",
           lambda n=n, j=j, p=p: ("lem2", hk.hecke.verify_lem2(n, j, p)))
        for n, j, p in lem2
    ]
    return ops


def _amplifier_canonical(result) -> tuple[dict, list[str]]:
    kind, rep = result
    if kind == "system":
        canon = {
            "y": [[list(a), _frac(rep.y[a])] for a in rep.partitions],
            "identity_ok": rep.identity_ok,
        }
        return canon, [] if rep.identity_ok else ["identity_ok is false"]
    flags = {
        "support_ok": rep.support_ok,
        "tail_parts_ok": rep.tail_parts_ok,
        "duality_ok": rep.duality_ok,
        "functional_equation_ok": rep.functional_equation_ok,
    }
    canon = {"c": [[i, _frac(c)] for i, c in sorted(rep.c.items())], "flags": flags}
    return canon, [f"{name} is false" for name, ok in flags.items() if not ok]


# -- crosscheck ----------------------------------------------------------------


def _crosscheck_ops(hk, smoke: bool) -> list[Op]:
    n, p = (2, 2) if smoke else (3, 3)
    parts = [a for w in range(4) for a in hk.partitions.enumerate_partitions(n, w)]

    def pair(a, b):
        satake_route = hk.hecke.multiply_generators(a, b, p)
        try:
            oracle = hk.cosets.oracle_multiply(a, b, p, budget=COSET_BUDGET)
        except hk.cosets.CosetBudgetError:
            oracle = None
        return satake_route, oracle

    return [
        Op(f"pair({','.join(map(str, a))};{','.join(map(str, b))};p={p})",
           lambda a=a, b=b: pair(a, b))
        for a in parts
        for b in parts
    ]


def _constants(table: dict) -> list:
    return sorted([list(c), int(k)] for c, k in table.items())


def _crosscheck_canonical(result) -> tuple[dict, list[str]]:
    satake_route, oracle = result
    problems = []
    if any(not isinstance(k, int) or k < 0 for k in satake_route.values()):
        problems.append("structure constant is not a non-negative integer")
    if oracle is not None and dict(oracle) != satake_route:
        problems.append("Satake route and coset oracle disagree")
    return {"constants": _constants(satake_route)}, problems


# -- counting ------------------------------------------------------------------

# The corollary ladder draws its form and planted points from its own seed,
# and its cost swings from 4 s to 21 s with that seed; it is pinned so that
# run-to-run spread measures the program, not the draw.
LADDER_SEED = DEFAULT_SEED
LADDER_REPEATS = 4  # planted points per rung


def _counting_ops(hk, smoke: bool) -> list[Op]:
    dio = hk.diophantine
    I4 = dio.QuadraticForm.identity(4)
    m, l = (16, 2) if smoke else (81, 3)
    n, Xs = (3, [4, 6]) if smoke else (4, [10, 20])
    return [
        Op(f"enumerate_S_delta(I4,{m},{l},1e-6)",
           lambda: ("sdelta", dio.enumerate_S_delta(I4, m, l, Fraction(1, 10**6)))),
        Op(f"corollary_count_ladder({n},1,{Xs},{LADDER_SEED})",
           lambda: ("ladder", dio.corollary_count_ladder(n, 1, Xs, LADDER_SEED,
                                                         repeats=LADDER_REPEATS))),
    ]


def _sdelta_problems(hk, rep) -> list[str]:
    """Re-check every witness with routes independent of the search."""
    dio, cosets = hk.diophantine, hk.cosets
    m, l = rep.parameters["m"], rep.parameters["l"]
    Q = dio.QuadraticForm.identity(rep.parameters["n"])
    delta = Fraction(rep.parameters["delta"])
    problems = []
    if rep.parameters["Q"] != Q.digest():
        problems.append("witnesses are re-checked against I_n, but the search used another form")
    if not rep.complete:
        problems.append("search stopped at its node budget")
    if rep.count != len(rep.witnesses) or len(set(rep.witnesses)) != rep.count:
        problems.append("count does not match the distinct witnesses")
    for w in rep.witnesses:
        n = len(w)
        minors_ok = all(
            (w[a][j1] * w[b][j2] - w[b][j1] * w[a][j2]) % l == 0
            for j1 in range(n) for j2 in range(j1 + 1, n)
            for a in range(n) for b in range(n)
        )
        if (
            cosets.matrix_det(w) != m
            or cosets.determinantal_divisors_bruteforce(w)[:2] != (1, l)
            or not dio.deviation_at_most(w, Q, delta)
            or not minors_ok
        ):
            problems.append(f"witness {w} fails re-validation")
            break
    return problems


def _counting_canonical(result, hk) -> tuple[dict, list[str]]:
    kind, rep = result
    if kind == "sdelta":
        canon = {
            "count": rep.count,
            "nodes": rep.notes["nodes"],
            "complete": rep.complete,
            "witnesses": sorted([list(map(list, w)) for w in rep.witnesses]),
        }
        return canon, _sdelta_problems(hk, rep)
    ladder = rep.notes["ladder"]
    problems = [
        f"rung X={r['X']} counts {r['count']} < {LADDER_REPEATS} planted points"
        for r in ladder
        if r["count"] < LADDER_REPEATS
    ]
    if rep.count != sum(r["count"] for r in ladder):
        problems.append("ladder total does not match its rungs")
    return {"count": rep.count, "ladder": ladder}, problems


# -- public entry points ---------------------------------------------------------


def build(hk, workload: str, seed: int, smoke: bool) -> list[Op]:
    """The ops of a workload, in the order the seed gives them."""
    makers = {
        "amplifier": _amplifier_ops,
        "crosscheck": _crosscheck_ops,
        "counting": _counting_ops,
    }
    ops = makers[workload](hk, smoke)
    random.Random(seed).shuffle(ops)
    return ops


def check(hk, workload: str, op: Op, result, golden: dict) -> tuple[Outcome, str]:
    """Check one op's answer; returns the outcome and the answer's digest."""
    if workload == "amplifier":
        canon, problems = _amplifier_canonical(result)
    elif workload == "crosscheck":
        canon, problems = _crosscheck_canonical(result)
    else:
        canon, problems = _counting_canonical(result, hk)
    got = digest(canon)
    want = golden.get(op.key)
    if want is not None and want != got:
        problems.append(f"digest {got[:12]} != golden {want[:12]}")
    complete = not (workload == "crosscheck" and result[1] is None)
    return Outcome(correct=not problems, complete=complete, problems=problems), got
