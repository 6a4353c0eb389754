#!/usr/bin/env python3
"""Benchmark of the tshash pipeline through its command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

Each workload's inputs are generated here from --seed. Every CLI stage runs
as its own child process (`python -m tshash.cli`, with the checkout's `src`
first on PYTHONPATH), its wall time and peak RSS are taken from that
child's `os.wait4` rusage, and its output files are checked by
`checks.py`. With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it reports the per-layer metrics, measured
in this process by running the same stages through `tshash.cli.main` with
the wrappers of `tracing.py` installed. --workload all runs every workload
in turn. The last line of standard output is the result as one JSON object;
the full record (machine, samples, spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUPS = 3  # setup_s is the median of this many full set-ups
CLUSTERS, DIM, SPREAD = 10, 8, 0.3  # gen-data style clusters, same label = relevant
EVAL_K = 100
QUERY_K = 10
RANK_CALLS = 1000
IMPORT_SAMPLES = 5
STAGE_KINDS = ("train", "encode", "eval", "query")
# End-to-end metrics that retrieve takes from its set-up, where it trains.
TRAINING_METRICS = ("train_s", "train_rss_mb", "final_objective", "train_map")


@dataclass(frozen=True)
class Workload:
    """Sizes and training flags of one workload.

    With n_db == 0 the training set is also the retrieval database and the
    measured loop trains; otherwise training happens in set-up and the loop
    serves queries against a separate database of n_db points.
    """

    n_train: int
    n_queries: int
    n_db: int
    bits: int
    train_flags: tuple[str, ...]
    eval_threads: int = 1


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-dense": Workload(600, 500, 0, 32, ("--loss", "ksh", "--anchors", "300")),
    "train-sparse": Workload(
        1200, 500, 0, 8,
        ("--loss", "exph", "--supervision", "distance", "--pairs-per-point", "20", "--labeled"),
    ),
    "retrieve": Workload(150, 1000, 50_000, 64, ("--loss", "exph"), eval_threads=2),
}
# Tiny sizes that exercise every code path of the harness in seconds.
SMOKE = {
    "train-dense": Workload(60, 20, 0, 8, ("--loss", "ksh", "--anchors", "30")),
    "train-sparse": Workload(
        80, 20, 0, 4,
        ("--loss", "exph", "--supervision", "distance", "--pairs-per-point", "5", "--labeled"),
    ),
    "retrieve": Workload(40, 30, 400, 16, ("--loss", "exph"), eval_threads=2),
}


class StageFailed(Exception):
    """A stage exited non-zero, timed out or wrote output that failed its check."""


@dataclass
class Stage:
    kind: str  # one of STAGE_KINDS
    argv: list[str]  # arguments after `python -m tshash.cli`
    work: int  # points encoded, or queries scored or answered
    check: Callable[[Path], float | None]  # given the stdout file; may return a quality value
    quality: str | None = None  # end-to-end metric that the check's value feeds


@dataclass
class StageRun:
    stage: Stage
    wall: float
    rss_mb: float | None
    value: float | None
    span_id: int | None = None


# ---------------------------------------------------------------- inputs


def clusters(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced labeled Gaussian blobs around centers on the unit circle."""
    labels = rng.permutation(np.arange(n) % CLUSTERS)
    centers = np.zeros((CLUSTERS, DIM))
    angles = 2.0 * np.pi * np.arange(CLUSTERS) / CLUSTERS
    centers[:, 0], centers[:, 1] = np.cos(angles), np.sin(angles)
    return centers[labels] + SPREAD * rng.standard_normal((n, DIM)), labels


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(x.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def write_ground_truth(path: Path, query_labels: np.ndarray, db_labels: np.ndarray) -> None:
    """One line per query listing the database ids that share its label."""
    lines = {c: " ".join(map(str, np.flatnonzero(db_labels == c))) for c in range(CLUSTERS)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[c] for c in query_labels.tolist()) + "\n")


def write_inputs(w: Workload, d: Path, seed: int) -> None:
    train_x, train_y = clusters(np.random.default_rng([seed, 0]), w.n_train)
    query_x, query_y = clusters(np.random.default_rng([seed, 1]), w.n_queries)
    write_csv(d / "train.csv", train_x, train_y)
    write_csv(d / "queries.csv", query_x, query_y)
    db_y = train_y
    if w.n_db:
        db_x, db_y = clusters(np.random.default_rng([seed, 2]), w.n_db)
        write_csv(d / "db.csv", db_x, db_y)
    write_ground_truth(d / "gt_train.txt", train_y, train_y)
    write_ground_truth(d / "gt_queries.txt", query_y, db_y)


# ---------------------------------------------------------------- stages


def codes_check(path: Path, n: int, m: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        checks.read_codes(path, n, m)

    return check


def training_stages(w: Workload, d: Path, seed: int) -> list[Stage]:
    n, m = w.n_train, w.bits
    k = min(EVAL_K, n)
    return [
        Stage(
            "train",
            ["train", str(d / "train.csv"), "--model-out", str(d / "model.json"),
             "--trace-out", str(d / "trace.csv"), "--bits", str(m), "--threads", "1",
             "--seed", str(seed), *w.train_flags],
            n,
            lambda out: checks.check_trace(d / "trace.csv", m),
            "final_objective",
        ),
        Stage(
            "encode",
            ["encode", str(d / "model.json"), str(d / "train.csv"), str(d / "train.tshc"), "--labeled"],
            n,
            codes_check(d / "train.tshc", n, m),
        ),
        Stage(
            "eval",
            ["eval", str(d / "train.tshc"), str(d / "train.tshc"), str(d / "gt_train.txt"),
             "--out-prefix", str(d / "eval_train"), "--k", str(k)],
            n,
            lambda out: checks.check_eval(d / "eval_train.json", n, k),
            "train_map",
        ),
    ]


def serving_stages(w: Workload, d: Path) -> list[Stage]:
    m, nq = w.bits, w.n_queries
    db_name, n_db = ("db", w.n_db) if w.n_db else ("train", w.n_train)
    db_codes, q_codes = d / f"{db_name}.tshc", d / "queries.tshc"
    k = min(EVAL_K, n_db)
    stages = []
    if w.n_db:
        stages.append(Stage(
            "encode",
            ["encode", str(d / "model.json"), str(d / "db.csv"), str(db_codes), "--labeled"],
            n_db,
            codes_check(db_codes, n_db, m),
        ))
    stages += [
        Stage(
            "encode",
            ["encode", str(d / "model.json"), str(d / "queries.csv"), str(q_codes), "--labeled"],
            nq,
            codes_check(q_codes, nq, m),
        ),
        Stage(
            "eval",
            ["eval", str(db_codes), str(q_codes), str(d / "gt_queries.txt"),
             "--out-prefix", str(d / "eval_heldout"), "--k", str(k), "--threads", str(w.eval_threads)],
            nq,
            lambda out: checks.check_eval(d / "eval_heldout.json", nq, k),
            "heldout_map",
        ),
        Stage(
            "query",
            ["query", str(db_codes), str(q_codes), "--k", str(QUERY_K)],
            nq,
            lambda out: checks.check_query(
                out, checks.read_codes(db_codes, n_db, m), checks.read_codes(q_codes, nq, m), QUERY_K
            ),
        ),
    ]
    return stages


def loop_stages(w: Workload, d: Path, seed: int) -> list[Stage]:
    """The stages one pass of the measured loop runs."""
    return serving_stages(w, d) if w.n_db else training_stages(w, d, seed) + serving_stages(w, d)


def child_env() -> dict[str, str]:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout: float) -> tuple[float, float, int]:
    """Run one child to completion; return (wall s, peak RSS MB, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env())
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the
            # maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Runner:
    """Runs stages, checks their output and counts attempts and failures."""

    def __init__(self, d: Path, deadline: float):
        self.d = d
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def _checked(self, stage: Stage, stdout: Path, run: Callable[[], tuple[float, float | None, int]]) -> StageRun:
        self.attempted += 1
        try:
            wall, rss, code = run()
            if code != 0:
                err = (self.d / "stage.err").read_text(errors="replace").strip().splitlines()[-3:]
                raise StageFailed(f"exit code {code}: {' | '.join(err)}")
            value = stage.check(stdout)
        except (StageFailed, checks.CheckError, OSError, ValueError) as exc:
            self.failed += 1
            raise StageFailed(f"{stage.kind} {' '.join(stage.argv[1:2])}: {exc}") from exc
        return StageRun(stage, wall, rss, value)

    def run(self, stage: Stage) -> StageRun:
        """Run a stage as `python -m tshash.cli` in a child process."""
        out, err = self.d / "stage.out", self.d / "stage.err"
        argv = [sys.executable, "-m", "tshash.cli", *stage.argv]
        return self._checked(stage, out, lambda: spawn(argv, out, err, self.deadline - time.monotonic()))

    def run_inprocess(self, stage: Stage, cli, tracer: Tracer | None = None) -> StageRun:
        """Run a stage through `cli.main` in this process, inside a root span if traced."""
        out, err = self.d / "stage.out", self.d / "stage.err"
        span_id = None

        def call():
            nonlocal span_id
            root = tracer.span(f"cli.{stage.kind}") if tracer else contextlib.nullcontext()
            with open(out, "w", encoding="utf-8") as fh, open(err, "w", encoding="utf-8") as eh, \
                    contextlib.redirect_stdout(fh), contextlib.redirect_stderr(eh):
                start = time.perf_counter()
                with root as span_id:
                    try:
                        code = cli.main(stage.argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:  # a traceback is a failed stage, as it would be in a child
                        traceback.print_exc()
                        code = 1
                wall = time.perf_counter() - start
            return wall, None, code

        result = self._checked(stage, out, call)
        result.span_id = span_id
        return result


# ---------------------------------------------------------------- metrics


def pass_metrics(runs: list[StageRun]) -> dict[str, float]:
    """End-to-end metrics of one pass over a list of stages."""
    by_kind = {kind: [r for r in runs if r.stage.kind == kind] for kind in STAGE_KINDS}
    out: dict[str, float] = {}
    if by_kind["train"]:
        out["train_s"] = sum(r.wall for r in by_kind["train"])
        out["train_rss_mb"] = max(r.rss_mb for r in by_kind["train"])
    for kind, name in (("encode", "encode_pts_per_s"), ("eval", "eval_qps"), ("query", "query_qps")):
        if by_kind[kind]:
            out[name] = sum(r.stage.work for r in by_kind[kind]) / sum(r.wall for r in by_kind[kind])
    serving = by_kind["encode"] + by_kind["eval"] + by_kind["query"]
    if serving:
        out["serve_rss_mb"] = max(r.rss_mb for r in serving)
    for r in runs:
        if r.stage.quality:
            out[r.stage.quality] = r.value
    return out


# Per-layer metrics read straight from the busy time of one span name.
BUSY_METRICS = {
    "data.load_dataset_s": "data.load_dataset",
    "data.supervision_s": "data.supervision",
    "data.bandwidth_s": "data.bandwidth",
    "data.kernel_matrix_s": "data.kernel_matrix",
    "loss.quadratic_coeffs_s": "loss.quadratic_coeffs",
    "loss.pair_loss_s": "loss.pair_loss",
    "codegen.learn_codes_s": "codegen.learn_codes",
    "codegen.bqp_build_s": "codegen.bqp_build",
    "codegen.spectral_s": "codegen.spectral",
    "codegen.box_s": "codegen.box",
    "hashfn.train_model_s": "hashfn.train_model",
    "hashfn.bit_fit_s": "hashfn.bit_fit",
    "hashfn.encode_s": "hashfn.encode",
    "hashfn.load_model_s": "hashfn.load_model",
    "packed.read_s": "packed.read",
    "packed.write_s": "packed.write",
    "retrieval.load_ground_truth_s": "retrieval.load_ground_truth",
    "retrieval.evaluate_s": "retrieval.evaluate",
    "retrieval.hamming_s": "retrieval.hamming",
}
COUNT_METRICS = (
    "data.pairs", "codegen.bit_updates", "codegen.spectral_fallbacks", "hashfn.constant_bits",
    "packed.bytes", "retrieval.empty_relevant",
)


def layer_metrics(
    tracer: Tracer, untraced: list[StageRun], plain: list[StageRun], traced: list[StageRun]
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `untraced` are the same stages run as child processes, `plain` in this
    process without tracing and `traced` in this process with it.
    """
    busy, calls, counts, child = tracer.busy(), tracer.calls(), tracer.counts, tracer.child_time()
    out = {name: busy.get(span, 0.0) for name, span in BUSY_METRICS.items()}
    out.update({name: counts[name] for name in COUNT_METRICS})
    out["loss.quadratic_coeffs_calls"] = calls["loss.quadratic_coeffs"]
    out["loss.pair_loss_calls"] = calls["loss.pair_loss"]
    out["codegen.spectral_calls"] = calls["codegen.spectral"]
    out["codegen.self_s"] = sum(
        s.duration - child.get(s.id, 0.0) for s in tracer.spans if s.name == "codegen.learn_codes"
    )
    out["codegen.fallback_ratio"] = counts["codegen.spectral_fallbacks"] / max(calls["codegen.spectral"], 1)
    out["codegen.improving_ratio"] = counts["codegen.improving_rows"] / max(counts["codegen.later_rows"], 1)
    # A stage's CLI overhead: its child-process wall time less the time its
    # layers took when the same stage ran in this process.
    out["cli.overhead_s"] = sum(u.wall - child.get(t.span_id, 0.0) for u, t in zip(untraced, traced))
    for kind in STAGE_KINDS:
        out[f"trace.overhead_{kind}_s"] = sum(
            t.wall - p.wall for p, t in zip(plain, traced) if t.stage.kind == kind
        )
    return out


def rank_latency(d: Path, w: Workload, runner: Runner, retrieval, packed) -> dict[str, float]:
    """Time RANK_CALLS single-query `rank` calls and check each answer."""
    db_name, n_db = ("db", w.n_db) if w.n_db else ("train", w.n_train)
    db_words = checks.read_codes(d / f"{db_name}.tshc", n_db, w.bits)
    q_words = checks.read_codes(d / "queries.tshc", w.n_queries, w.bits)
    ref_ids, _ = checks.reference_topk(db_words, q_words, QUERY_K)
    db = retrieval.CodeDatabase(packed.read_codes_file(d / f"{db_name}.tshc"))
    queries = packed.read_codes_file(d / "queries.tshc")
    times, wrong = [], 0
    for call in range(RANK_CALLS):
        qi = call % queries.n
        start = time.perf_counter()
        ids = retrieval.rank(db, queries.words[qi], QUERY_K)
        times.append(time.perf_counter() - start)
        wrong += not np.array_equal(ids, ref_ids[qi])
    runner.attempted += 1
    if wrong:
        runner.failed += 1
        raise StageFailed(f"rank: {wrong} of {RANK_CALLS} answers differ from the reference")
    p50, p99 = np.percentile(np.array(times) * 1e3, [50, 99])
    return {"retrieval.rank_p50_ms": float(p50), "retrieval.rank_p99_ms": float(p99)}


def import_time(d: Path, deadline: float) -> float:
    """Median wall time of a child that starts Python and imports tshash.cli."""
    argv = [sys.executable, "-c", "import tshash.cli"]
    walls = []
    for _ in range(IMPORT_SAMPLES):
        wall, _, code = spawn(argv, d / "import.out", d / "import.err", deadline - time.monotonic())
        if code != 0:
            raise StageFailed(f"import tshash.cli exited with {code}")
        walls.append(wall)
    return statistics.median(walls)


# ---------------------------------------------------------------- runs


def set_up(w: Workload, d: Path, seed: int, runner: Runner) -> tuple[float, list[StageRun]]:
    """Write the inputs and, for a serving workload, train its model."""
    start = time.perf_counter()
    write_inputs(w, d, seed)
    runs = [runner.run(s) for s in training_stages(w, d, seed)] if w.n_db else []
    return time.perf_counter() - start, runs


def measure(w: Workload, d: Path, seed: int, seconds: float, runner: Runner) -> dict[str, list[float]]:
    """Untraced run: repeat the workload's stages for `seconds`."""
    samples: dict[str, list[float]] = {}

    def add(values: dict[str, float]) -> None:
        for name, v in values.items():
            samples.setdefault(name, []).append(v)

    for _ in range(SETUPS):
        setup_s, runs = set_up(w, d, seed, runner)
        add({"setup_s": setup_s})
        add({k: v for k, v in pass_metrics(runs).items() if k in TRAINING_METRICS})
    stages = loop_stages(w, d, seed)
    start = time.monotonic()
    while True:
        began = time.monotonic()
        add(pass_metrics([runner.run(s) for s in stages]))
        now = time.monotonic()
        # Stop after `seconds`, or earlier if one more pass would overrun the budget.
        if now - start >= seconds or now + (now - began) > runner.deadline:
            break
    return samples


def measure_traced(w: Workload, d: Path, seed: int, seconds: float, runner: Runner, spans: list) -> dict[str, list[float]]:
    """Traced run: per-layer metrics from in-process passes over the stages."""
    set_up(w, d, seed, runner)
    stages = loop_stages(w, d, seed)
    start = time.monotonic()
    untraced = [runner.run(s) for s in stages]

    sys.path.insert(0, str(SRC))
    from tshash import cli, codegen, data, hashfn, packed, retrieval

    if Path(cli.__file__).resolve().parent != SRC / "tshash":
        raise RuntimeError(f"imported tshash from {cli.__file__}, not from {SRC}")
    samples: dict[str, list[float]] = {}
    while True:
        began = time.monotonic()
        plain = [runner.run_inprocess(s, cli) for s in stages]
        tracer = Tracer()
        tracer.install(cli, codegen, data, hashfn, retrieval)
        try:
            traced = [runner.run_inprocess(s, cli, tracer) for s in stages]
        finally:
            tracer.uninstall()
        spans.append(tracer.as_rows())
        for name, v in layer_metrics(tracer, untraced, plain, traced).items():
            samples.setdefault(name, []).append(v)
        now = time.monotonic()
        if now - start >= seconds or now + (now - began) > runner.deadline:
            break
    for name, v in rank_latency(d, w, runner, retrieval, packed).items():
        samples[name] = [v]
    samples["cli.import_s"] = [import_time(d, runner.deadline)]
    return samples


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    """Run one workload and print its table; return the result object."""
    w = (SMOKE if smoke else WORKLOADS)[name]
    metrics = spec["per_layer" if trace else "end_to_end"]
    d = WORK / f"{name}-{seed}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    runner = Runner(d, time.monotonic() + RUN_BUDGET_S)
    spans: list = []
    error = None
    samples: dict[str, list[float]] = {}
    try:
        # Warm the interpreter's byte-code and file caches before timing anything.
        spawn([sys.executable, "-c", "import tshash.cli"], d / "import.out", d / "import.err", 60.0)
        if trace:
            samples = measure_traced(w, d, seed, seconds, runner, spans)
        else:
            samples = measure(w, d, seed, seconds, runner)
    except StageFailed as exc:
        error = str(exc)
        print(f"FAILED: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(d, ignore_errors=True)

    env = environment(name, seed)
    print(f"# env {json.dumps(env)}")
    print(f"# workload {name}  seed {seed}  trace {int(trace)}{'  smoke' if smoke else ''}")
    print(f"{'metric':34} {'median':>16} {'unit':>8} {'better':>7} {'samples':>7}")
    result_metrics = {}
    for m in metrics:
        values = samples.get(m["name"], [])
        value = float(statistics.median(values)) if values else None
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{m['name']:34} {shown:>16} {m['unit']:>8} {m['better']:>7} {len(values):>7}")
    frac = runner.failed / max(runner.attempted, 1)
    print(f"{'failed_frac':34} {frac:>16.6g} {'ratio':>8} {'lower':>7} {runner.attempted:>7}")
    correct = error is None and runner.failed == 0 and all(
        v["value"] is not None for v in result_metrics.values()
    )
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": result_metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, env=env, error=error, seconds=seconds, smoke=smoke, samples=samples)
    if trace:
        record["span_fields"] = ["id", "name", "start", "end", "parent"]
        record["spans"] = spans
    (OUT / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json").write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the harness")
    args = parser.parse_args(argv)

    if not (SRC / "tshash" / "cli.py").is_file():
        print(f"error: no tshash sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke, spec) for n in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
