"""Benchmark of heckelab on exact-answer workloads.

    python3 perfbench/run.py --workload amplifier --seed 20 --seconds 45 --trace 0

Run from the root of a checkout.  Load is a closed loop: one client runs
the workload's ops back to back in one single-threaded process.  Every
pass is a fresh process (perfbench/worker.py), so heckelab's caches start
empty as in every CLI call.  Passes repeat while the next one still fits in
--seconds; at least one always runs.  Every answer is checked outside the
timed region.

With --trace 0 the printed metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 the run alternates untraced and traced
passes and prints the per-layer ones.  --smoke runs tiny instances of the
same workloads in seconds.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit code 2 means
the benchmark could not run (no source tree, a pass crashed, a metric
missing from BENCHMARK.json); no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"  # spans and work-count records; ignored by git
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # extra setup-only processes per run, for a steadier setup_s
PASS_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Work counts that must repeat exactly for a given workload and seed.
DETERMINISTIC = ("diophantine.sdelta.nodes", "diophantine.shell.points",
                 "cosets.oracle.pair_products", "sympoly.alternant.calls",
                 "sympoly.mul.term_pairs", "hecke.multiply.result_terms")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_pass(mode: str, args, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), "1" if args.smoke else "0"]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def unit_of(name: str) -> str:
    """The unit the benchmark measures a metric in, from the metric's name."""
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".yield")):
        return "ratio"
    return "count"


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def run_tag(args, seed: bool = True) -> str:
    return (f"{args.workload}{f'-{args.seed}' if seed else ''}"
            f"{'-smoke' if args.smoke else ''}")


def flag_nondeterminism(args, traced: list[dict]) -> list[str]:
    """Work counts that differ between traced passes or from the last run's record."""
    counts = [{k: p["layers"][k] for k in DETERMINISTIC} for p in traced]
    flagged = {k for c in counts[1:] for k in DETERMINISTIC if c[k] != counts[0][k]}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"counts-{run_tag(args)}.json"
    if record.is_file():
        previous = json.loads(record.read_text())
        flagged |= {k for k in DETERMINISTIC if previous.get(k) != counts[0][k]}
    record.write_text(json.dumps(counts[0], sort_keys=True))
    return sorted(flagged)


def measure(args) -> tuple[dict, list[dict], list[dict], float]:
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }
    run_pass("setup", args)  # warm-up: compiles bytecode, fills the file cache
    start = time.monotonic()
    setup = [run_pass("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES)]
    modes = ("run", "trace") if args.trace else ("run",)
    plain, traced = [], []
    while True:
        mode = modes[(len(plain) + len(traced)) % len(modes)]
        spans = None
        if mode == "trace":
            OUT.mkdir(exist_ok=True)
            # one file per workload and pass: a traced crosscheck pass is ~30 MB
            spans = OUT / f"spans-{run_tag(args, seed=False)}-{len(traced)}.jsonl"
        t0 = time.monotonic()
        rep = run_pass(mode, args, spans)
        took = time.monotonic() - t0
        (traced if mode == "trace" else plain).append(rep)
        setup.append(rep["setup_s"])
        env["numpy"] = rep["numpy"]
        done = len(plain) + len(traced) >= len(modes)
        if done and time.monotonic() - start + took > args.seconds:
            break
    return env, plain, traced, statistics.median(setup)


def summarize(args, env, plain, traced, setup_s) -> tuple[dict, int, int]:
    ops = [op for p in plain + traced for op in p["ops"]]
    attempted = len(ops)
    failed = sum(not op["correct"] for op in ops)
    for op in ops:
        if op["problems"]:
            print(f"op {op['key']}: {'; '.join(op['problems'])}", file=sys.stderr)
    if not args.trace:
        metrics = {
            "wall_s": median_of(plain, "wall_s"),
            "max_op_s": median_of(plain, "max_op_s"),
            "setup_s": setup_s,
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "ops_ok_frac": sum(op["correct"] and op["complete"] for op in ops) / attempted,
        }
        return metrics, attempted, failed
    metrics = {k: statistics.median(p["layers"][k] for p in traced)
               for k in traced[0]["layers"]}
    metrics["trace.wall_s"] = median_of(traced, "wall_s")
    metrics["trace.untraced_wall_s"] = median_of(plain, "wall_s")
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1
    env["nondeterministic_counts"] = flag_nondeterminism(args, traced)
    for name in env["nondeterministic_counts"]:
        print(f"warning: work count {name} did not repeat exactly", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances, seconds long")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "heckelab" / "__init__.py").is_file():
            raise BenchError(f"no heckelab source tree under {ROOT / 'src'}")
        expected = expected_metrics(bool(args.trace))
        env, plain, traced, setup_s = measure(args)
        metrics, attempted, failed = summarize(args, env, plain, traced, setup_s)
        units = {name: unit_of(name) for name in metrics}
        if units != expected:
            raise BenchError("metric names or units differ from BENCHMARK.json: "
                             f"{sorted(set(units.items()) ^ set(expected.items()))}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env["passes"] = {"untraced": len(plain), "traced": len(traced)}
    print(json.dumps({"environment": env}))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
