"""Batch command-line front end.

Every subcommand emits a single machine-readable report (JSON by default,
CSV for ladder tables) that embeds the full configuration and the package
version.  Reports are byte-identical across runs with the same config and
seed; wall-clock timings are only included on request.  Exit codes: 0 for
success, 1 for a failed verification, 3 for an exceeded resource budget
(partial results are still written), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .linalg import require_prime
from .partitions import Partition, enumerate_partitions, verify_cholesky, weight_partitions
from .satake import degree_via_satake, matches_alternant, verify_basic
from .cosets import DEFAULT_BUDGET, CosetBudgetError, coset_decomposition, oracle_multiply
from .hecke import multiply_generators, verify_lem2
from .amplifier import amplifier_coefficients
from .diophantine import (
    QuadPoly2,
    QuadraticForm,
    brute_force_S_delta,
    corollary_count_ladder,
    enumerate_S_delta,
    lembp_count,
    scaling_experiment,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_BUDGET = 3


def _parse_partition(text: str) -> Partition:
    return Partition(int(x) for x in text.split(","))


def _parse_prime(text: str) -> int:
    try:
        require_prime(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return int(text)


def _parse_primes(text: str) -> list[int]:
    return [_parse_prime(x) for x in text.split(",")]


def _rational(text: str) -> Fraction:
    """The Fraction that text spells; ValueError (a usage error) if it spells none."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _parse_fraction(text: str) -> str:
    """Check that text is a rational literal; it stays text so reports echo it as given."""
    try:
        _rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _parse_q(source: str, n: int, seed: int) -> QuadraticForm:
    if source == "identity":
        return QuadraticForm.identity(n)
    if source == "random":
        return QuadraticForm.random_spd(n, seed)
    if source.startswith("file:"):
        try:
            with open(source[5:]) as fh:
                rows = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read Q file {source[5:]!r}: {exc.strerror}") from exc
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"Q file {source[5:]!r} must hold a list of rows")
        return QuadraticForm(tuple(tuple(_rational(str(x)) for x in row) for row in rows))
    raise ValueError(f"unknown Q source {source!r}")


def _flat_row(row: dict) -> dict:
    """A ladder row for CSV: a dict value becomes one column per key, outer.inner."""
    out = {}
    for k, v in row.items():
        if isinstance(v, dict):
            out.update({f"{k}.{kk}": vv for kk, vv in v.items()})
        else:
            out[k] = v
    return out


def _emit(args, payload: dict, ladder_rows: list[dict] | None = None) -> None:
    payload = {
        "version": __version__,
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "output") and v is not None
        },
        **payload,
    }
    if args.format == "csv" and ladder_rows:
        ladder_rows = [_flat_row(row) for row in ladder_rows]
        cols = sorted({k for row in ladder_rows for k in row})
        lines = [",".join(cols)]
        lines += [",".join(str(row.get(c, "")) for c in cols) for row in ladder_rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_satake(args) -> int:
    rep = verify_basic(args.a, args.p)
    _emit(args, {
        "partition": list(args.a),
        "p": args.p,
        "scaled_coefficients": {str(k): str(v) for k, v in sorted(rep.coefficients.items())},
        "v_weight": args.a.v_weight(),
        "checks": {
            "support_dominance": rep.support_dominance_ok,
            "support_lex": rep.support_lex_ok,
            "symmetric": rep.symmetric_ok,
            "leading_is_one": rep.leading_is_one,
            "denominators_are_p_powers": rep.denominators_ok,
        },
    })
    return EXIT_OK if rep.ok else EXIT_VERIFICATION_FAILED


def cmd_multiply(args) -> int:
    sat = multiply_generators(args.a, args.b, args.p)
    payload = {
        "satake_route": {str(tuple(k)): v for k, v in sorted(sat.items())},
    }
    status = EXIT_OK
    try:
        orc = oracle_multiply(args.a, args.b, args.p, budget=args.budget)
        payload["coset_route"] = {str(tuple(k)): v for k, v in sorted(orc.items())}
        diff = {
            str(tuple(k)): (sat.get(k, 0), orc.get(k, 0))
            for k in set(sat) | set(orc)
            if sat.get(k, 0) != orc.get(k, 0)
        }
        payload["diff"] = diff
        if diff:
            status = EXIT_VERIFICATION_FAILED
    except CosetBudgetError as exc:
        payload["coset_route"] = None
        payload["budget_exceeded"] = str(exc)
        status = EXIT_BUDGET
    _emit(args, payload)
    return status


def cmd_cosets(args) -> int:
    try:
        cl = coset_decomposition(args.a, args.p, budget=args.budget)
    except CosetBudgetError as exc:
        _emit(args, {"budget_exceeded": str(exc)})
        return EXIT_BUDGET
    sat_deg = degree_via_satake(args.a, args.p)
    payload = {
        "degree": cl.degree,
        "degree_via_satake": sat_deg,
        "consistent": cl.degree == sat_deg,
    }
    if args.reps:
        payload["representatives"] = [[list(row) for row in m] for m in cl.reps]
    _emit(args, payload)
    return EXIT_OK if cl.degree == sat_deg else EXIT_VERIFICATION_FAILED


def cmd_amplifier(args) -> int:
    primes = args.ladder or [args.p]
    rows = []
    ok = True
    for p in primes:
        system = amplifier_coefficients(args.n, p)
        ok = ok and system.identity_ok
        rows.append({
            "p": p,
            "identity": "PASS" if system.identity_ok else "FAIL",
            "max_abs_y": str(system.max_abs_y),
            **{str(tuple(a)): str(system.y[a]) for a in system.partitions},
        })
    _emit(args, {"table": rows, "verdict": "PASS" if ok else "FAIL"}, ladder_rows=rows)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_lem2(args) -> int:
    rows = []
    ok = True
    for p in args.ladder:
        rep = verify_lem2(args.n, args.j, p)
        ok = ok and rep.support_ok and rep.duality_ok and rep.functional_equation_ok
        rows.append({
            "p": p,
            "support": rep.support_ok,
            "duality": rep.duality_ok,
            "functional_equation": rep.functional_equation_ok,
            **{f"c_{i}": str(v) for i, v in sorted(rep.c.items())},
        })
    _emit(args, {"n": args.n, "j": args.j, "table": rows,
                 "verdict": "PASS" if ok else "FAIL"}, ladder_rows=rows)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_count(args) -> int:
    rep = _count_report(args)
    status = EXIT_OK if rep.complete else EXIT_BUDGET
    payload = json.loads(rep.to_json(include_timing=args.timings))
    ladder_rows = rep.notes.get("ladder")
    if args.witness_file and rep.witnesses is not None:
        with open(args.witness_file, "w") as fh:
            fh.write(rep.to_json(include_timing=args.timings) + "\n")
    _emit(args, {"report": payload}, ladder_rows=ladder_rows)
    return status


def _count_report(args):
    if args.mode == "lembp":
        a, b, c, d, e, f = (_rational(x) for x in args.poly.split(","))
        return lembp_count(QuadPoly2(a, b, c, d, e, f), Fraction(args.delta))
    if args.mode == "corollary":
        q = _parse_q(args.q, args.n, args.seed)
        return corollary_count_ladder(args.n, args.k, args.ladder or [args.x], args.seed, Q=q)
    if args.mode == "sdelta":
        q = _parse_q(args.q, args.n, args.seed)
        return enumerate_S_delta(
            q, args.m, args.l, Fraction(args.delta),
            collect_witnesses=not args.no_witnesses, node_budget=args.budget,
        )
    q = _parse_q(args.q, 4, args.seed)  # scaling
    return scaling_experiment(q, args.nu, args.ladder or [2, 3, 5, 7],
                              Fraction(args.delta), node_budget=args.budget)


def cmd_verify(args) -> int:
    checks: list[tuple[str, bool]] = []

    def record(name: str, ok: bool):
        checks.append((name, bool(ok)))

    for n in range(1, 5 + 1):
        record(f"gram_factorization_n{n}", verify_cholesky(n).success)
    for n, p in ((2, 3), (3, 2)):
        for a in weight_partitions(n):
            record(f"satake_basic_n{n}_p{p}_{tuple(a)}", verify_basic(a, p).ok)
            record(f"satake_alternant_n{n}_p{p}_{tuple(a)}", matches_alternant(a, p))
    # at n = 2 both generators are (1, 0), so every pair of weight <= 2 is checked
    low = [a for w in range(3) for a in enumerate_partitions(2, w)]
    for n, p, factors in ((2, 2, low), (2, 3, low), (3, 2, [(1, 0, 0), (1, 1, 0)])):
        for a in factors:
            for b in factors:
                sat = multiply_generators(a, b, p)
                orc = oracle_multiply(a, b, p)
                record(f"cross_oracle_n{n}_p{p}_{tuple(a)}x{tuple(b)}", sat == dict(orc))
    for n, p in ((2, 5), (3, 3)):
        record(f"amplifier_identity_n{n}_p{p}", amplifier_coefficients(n, p).identity_ok)
    rep = verify_lem2(3, 1, 2)
    record("lem2_n3_j1_p2", rep.support_ok and rep.duality_ok and rep.functional_equation_ok)
    for n, p in ((2, 3), (3, 2)):
        for a in weight_partitions(n):
            record(
                f"degree_consistency_n{n}_p{p}_{tuple(a)}",
                degree_via_satake(a, p) == coset_decomposition(a, p).degree,
            )
    q2 = QuadraticForm.identity(2)
    found = enumerate_S_delta(q2, 1, 1, Fraction(1, 10**6)).witnesses
    record("sdelta_vs_bruteforce_n2", found == brute_force_S_delta(q2, 1, 1, Fraction(1, 10**6), 2))
    ok = all(flag for _, flag in checks)
    _emit(args, {
        "checks": [{"name": n, "ok": f} for n, f in checks],
        "verdict": "PASS" if ok else "FAIL",
    })
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Exact double-coset operator computations and matrix counting experiments",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    parser.add_argument("--timings", action="store_true", help="include wall-clock timings")
    parser.add_argument(
        "--budget", type=int,
        default=DEFAULT_BUDGET,
        help=f"enumeration budget (default {DEFAULT_BUDGET})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("satake", help="image of a double-coset operator")
    sp.add_argument("--a", type=_parse_partition, required=True)
    sp.add_argument("--p", type=_parse_prime, required=True)
    sp.set_defaults(func=cmd_satake)

    sp = sub.add_parser("multiply", help="structure constants via both routes")
    sp.add_argument("--p", type=_parse_prime, required=True)
    sp.add_argument("--a", type=_parse_partition, required=True)
    sp.add_argument("--b", type=_parse_partition, required=True)
    sp.set_defaults(func=cmd_multiply)

    sp = sub.add_parser("cosets", help="left-coset representatives and degree")
    sp.add_argument("--a", type=_parse_partition, required=True)
    sp.add_argument("--p", type=_parse_prime, required=True)
    sp.add_argument("--reps", action="store_true", help="include representatives")
    sp.set_defaults(func=cmd_cosets)

    sp = sub.add_parser("amplifier", help="solve the amplifier system")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=_parse_prime, default=101)
    sp.add_argument("--ladder", type=_parse_primes)
    sp.set_defaults(func=cmd_amplifier)

    sp = sub.add_parser("lem2", help="adjoint-product decomposition table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--ladder", type=_parse_primes, default=[2, 3, 5])
    sp.set_defaults(func=cmd_lem2)

    sp = sub.add_parser("count", help="counting experiments")
    sp.add_argument("--mode", choices=("lembp", "corollary", "sdelta", "scaling"),
                    required=True)
    sp.add_argument("--poly", help="a,b,c,d,e,f for lembp mode")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--x", type=int, default=20)
    sp.add_argument("--m", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--nu", type=int, default=1)
    sp.add_argument("--delta", type=_parse_fraction, default="1e-6")
    sp.add_argument("--q", default="identity", help="identity | random | file:PATH")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ladder", type=lambda s: [int(x) for x in s.split(",")])
    sp.add_argument("--witness-file")
    sp.add_argument("--no-witnesses", action="store_true")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("verify", help="run the fast invariant suite")
    sp.set_defaults(func=cmd_verify)
    return parser


# the count options each mode cannot run without
REQUIRED_BY_MODE = {"lembp": ("poly",), "sdelta": ("m", "l")}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "count":
        needed = REQUIRED_BY_MODE.get(args.mode, ())
        missing = [f"--{k}" for k in needed if getattr(args, k) is None]
        if missing:
            parser.error(f"--mode {args.mode} needs {' and '.join(missing)}")
    try:
        return args.func(args)
    except ValueError as exc:
        # a value the computation rejected is a usage error (exit 2); a
        # failed check raises ArithmeticError and still ends the run (exit 1)
        parser.error(str(exc))
    except CosetBudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
