"""Tests of the benchmark harness itself.

Run with `python -m pytest perfbench/test_perfbench.py -q` from the root of
the repository. The smoke tests drive run.py end to end at the tiny --smoke
sizes, so they take about a minute rather than a full benchmark run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())
    elif workload != "retrieve":
        assert result["metrics"]["codegen.bit_updates"]["value"] > 0
        assert result["metrics"]["data.pairs"]["value"] > 0


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "train-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _naive_topk(db: np.ndarray, queries: np.ndarray, k: int) -> list[list[tuple[int, int]]]:
    out = []
    for q in queries:
        dists = [sum(bin(int(a) ^ int(b)).count("1") for a, b in zip(row, q)) for row in db]
        out.append(sorted((d, i) for i, d in enumerate(dists))[:k])
    return out


def test_reference_topk_breaks_ties_by_id():
    rng = np.random.default_rng(0)
    db = rng.integers(0, 16, size=(50, 1), dtype=np.uint64)  # 4 used bits: many ties
    queries = rng.integers(0, 16, size=(7, 1), dtype=np.uint64)
    ids, dists = checks.reference_topk(db, queries, 5)
    for qi, expect in enumerate(_naive_topk(db, queries, 5)):
        assert list(zip(dists[qi].tolist(), ids[qi].tolist())) == expect


def test_check_query_rejects_a_wrong_row(tmp_path):
    rng = np.random.default_rng(1)
    db = rng.integers(0, 2**20, size=(40, 1), dtype=np.uint64)
    queries = rng.integers(0, 2**20, size=(3, 1), dtype=np.uint64)
    ids, dists = checks.reference_topk(db, queries, 4)
    rows = ["query,rank,id,distance"] + [
        f"{q},{r},{ids[q, r]},{dists[q, r]}" for q in range(3) for r in range(4)
    ]
    good = tmp_path / "good.csv"
    good.write_text("\n".join(rows) + "\n")
    checks.check_query(good, db, queries, 4)
    rows[1], rows[2] = rows[2], rows[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.CheckError):
        checks.check_query(bad, db, queries, 4)


def test_check_trace_rejects_a_rising_objective(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("sweep,bit,objective\n0,0,5.0\n0,1,4.0\n")
    assert checks.check_trace(path, 2) == 4.0
    with pytest.raises(checks.CheckError):
        checks.check_trace(path, 3)
    path.write_text("sweep,bit,objective\n0,0,5.0\n0,1,6.0\n")
    with pytest.raises(checks.CheckError):
        checks.check_trace(path, 2)


def test_read_codes_checks_the_header(tmp_path):
    path = tmp_path / "c.tshc"
    words = np.arange(6, dtype="<u8").reshape(3, 2)
    path.write_bytes(b"TSHC" + (1).to_bytes(4, "little") + (3).to_bytes(8, "little")
                     + (70).to_bytes(4, "little") + words.tobytes())
    assert checks.read_codes(path, 3, 70).tolist() == words.tolist()
    with pytest.raises(checks.CheckError):
        checks.read_codes(path, 3, 64)


def test_check_eval_rejects_out_of_range_metrics(tmp_path):
    path = tmp_path / "e.json"
    doc = {"precision_at_k": 0.5, "map": 0.4, "pr_auc": 0.3, "prec_within_r2": 0.2, "k": 10, "n_queries": 7}
    path.write_text(json.dumps(doc))
    assert checks.check_eval(path, 7, 10) == 0.4
    path.write_text(json.dumps(dict(doc, map=1.5)))
    with pytest.raises(checks.CheckError):
        checks.check_eval(path, 7, 10)


def test_tracer_restores_originals_and_nests_spans():
    import types

    mod = types.SimpleNamespace(outer=None, inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.outer, mod.inner)
    tracer = Tracer()
    tracer._wrap(mod, "outer", "a.outer")
    tracer._wrap(mod, "inner", "a.inner")
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert (mod.outer, mod.inner) == originals
    spans = {s.name: s for s in tracer.spans}
    assert spans["a.inner"].parent == spans["a.outer"].id
    assert tracer.child_time()[spans["a.outer"].id] == pytest.approx(spans["a.inner"].duration)
