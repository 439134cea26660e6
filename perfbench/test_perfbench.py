"""Tests of the benchmark itself, on the smoke instances.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_heckelab  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_answers_and_end_to_end_metrics(workload):
    out = result(bench("--workload", workload, "--seed", "20", "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_trace_reports_every_layer_and_repeats_counts():
    outs = [result(bench("--workload", "crosscheck", "--seed", "3", "--trace", "1", "--smoke"))
            for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in outs:
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    m0, m1 = ({k: v["value"] for k, v in out["metrics"].items()} for out in outs)
    assert m0["cosets.oracle.pair_products"] > 0 and m0["satake.image.distinct"] > 0
    for name in ("cosets.oracle.pair_products", "sympoly.mul.term_pairs",
                 "hecke.multiply.result_terms", "satake.image.calls", "trace.spans"):
        assert m0[name] == m1[name], name


def test_self_times_account_for_traced_wall():
    hk = import_heckelab()
    tr = tracing.Tracer()
    tr.install(hk)
    try:
        for op in workloads.build(hk, "counting", 20, smoke=True):
            tr.call(tracing.OP, op.run)
    finally:
        tr.uninstall()
    ops = [end - start for _, parent, layer, start, end in tr.spans if layer == tracing.OP]
    assert sum(tr.self_times().values()) == pytest.approx(sum(ops), rel=1e-9)
    assert tr.counts["diophantine.sdelta.nodes"] == 1896
    assert not hasattr(hk.diophantine.enumerate_S_delta, "__wrapped__")
    assert not hasattr(hk.sympoly.SymPoly.__mul__, "__wrapped__")


def test_golden_mismatch_and_bad_witness_fail_the_op():
    hk = import_heckelab()
    op = next(o for o in workloads.build(hk, "counting", 20, smoke=True)
              if o.key.startswith("enumerate_S_delta"))
    kind, rep = op.run()
    golden = json.loads((HERE / "golden.json").read_text())["counting"]
    ok, _ = workloads.check(hk, "counting", op, (kind, rep), golden)
    assert ok.correct and ok.complete
    bad, _ = workloads.check(hk, "counting", op, (kind, rep), {op.key: "0" * 64})
    assert not bad.correct
    w = rep.witnesses[0]
    rep.witnesses[0] = ((w[0][0] + 2,) + w[0][1:],) + w[1:]
    bad, _ = workloads.check(hk, "counting", op, (kind, rep), {})
    assert not bad.correct and "re-validation" in bad.problems[-1]


def test_crosscheck_over_budget_pair_is_incomplete_not_wrong():
    hk = import_heckelab()
    op = workloads.Op("pair", lambda: None)
    constants = {hk.partitions.Partition((1, 0)): 1}
    over, _ = workloads.check(hk, "crosscheck", op, (constants, None), {})
    assert over.correct and not over.complete
    wrong, _ = workloads.check(hk, "crosscheck", op, (constants, {(1, 0): 2}), {})
    assert not wrong.correct


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "amplifier", "--seed", "20", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_metrics_that_differ_from_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["end_to_end"][0]["unit"] = "ms"
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "amplifier", "--seed", "20", "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 2
    assert "differ from BENCHMARK.json" in proc.stderr
