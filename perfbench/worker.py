"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/worker.py MODE WORKLOAD SEED SMOKE [SPANS_PATH]

MODE is ``setup`` (import heckelab and build the inputs, nothing else),
``run`` (also run every op, untraced) or ``trace`` (run every op with span
recording and write the spans to SPANS_PATH).  SMOKE is 0 or 1.  The last
line of standard output is one JSON object with the pass's measurements
and the outcome of every answer check.  run.py starts one process per
pass, with the checkout's ``src`` on PYTHONPATH, so every pass starts with
the package's caches empty, as every CLI call does.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_heckelab():
    """Import heckelab and every submodule, from this checkout's source tree."""
    import heckelab

    source = Path(heckelab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"heckelab imported from {source}, not from {ROOT / 'src'}")
    for mod in pkgutil.iter_modules(heckelab.__path__):
        importlib.import_module(f"heckelab.{mod.name}")
    return heckelab


def layer_metrics(tr: tracing.Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (the run-level trace.* ones excluded)."""
    self_s = tr.self_times()
    c = tr.counts
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = c[f"{layer}.calls"]
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["satake.image.distinct"] = len(tr.images)
    for name in ("sympoly.mul.term_pairs", "hecke.multiply.result_terms",
                 "cosets.decompose.reps", "cosets.oracle.pair_products",
                 "cosets.oracle.budget_exceeded", "diophantine.shell.points",
                 "diophantine.sdelta.nodes"):
        out[name] = c[name]
    points, found = c["diophantine.corollary.points"], c["diophantine.corollary.count"]
    out["diophantine.corollary.yield"] = found / points if points else 0.0
    nodes = c["diophantine.sdelta.nodes"]
    out["diophantine.sdelta.yield"] = c["diophantine.sdelta.count"] / nodes if nodes else 0.0
    out["trace.unattributed_s"] = self_s.get(tracing.OP, 0.0)
    out["trace.spans"] = len(tr.spans)
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed, smoke = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    t0 = time.perf_counter()
    hk = import_heckelab()
    ops = workloads.build(hk, workload, seed, smoke)
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    import numpy

    golden = json.loads((HERE / "golden.json").read_text()).get(workload, {})
    tr = tracing.Tracer() if mode == "trace" else None
    if tr is not None:
        tr.install(hk)
    results, errors, op_s = [], [], []
    w0 = time.perf_counter()
    for op in ops:
        s0 = time.perf_counter()
        try:
            results.append(tr.call(tracing.OP, op.run) if tr else op.run())
            errors.append(None)
        except Exception as exc:  # an op that raises counts as failed; the pass goes on
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - s0)
    wall_s = time.perf_counter() - w0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr is not None:
        tr.uninstall()

    checked = []
    for op, result, error, secs in zip(ops, results, errors, op_s):
        entry = {"key": op.key, "s": secs}
        if error is None:
            outcome, entry["digest"] = workloads.check(hk, workload, op, result, golden)
            entry.update(correct=outcome.correct, complete=outcome.complete,
                         problems=outcome.problems)
        else:
            entry.update(correct=False, complete=False, problems=[error])
        checked.append(entry)

    report.update(
        numpy=numpy.__version__,
        wall_s=wall_s,
        max_op_s=max(op_s),
        peak_rss_mb=peak_rss_mb,
        ops=checked,
    )
    if tr is not None:
        report["layers"] = layer_metrics(tr)
        tr.write(argv[4])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
