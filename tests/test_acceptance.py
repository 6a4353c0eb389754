"""Acceptance suite: seven pinned criteria, one printed line each.

Each test prints "[PASS] criterion N: ..." (or FAIL) on the real stdout
(capture suspended via capsys) before it hard-asserts, so every line is
visible even when later asserts trip. Tolerances and runtime budgets are
fixed here and are not tunable.
"""

import time

import numpy as np

from tshash.codegen import (
    BqpInstance,
    CodeMatrix,
    TrainConfig,
    box_relax,
    learn_codes,
    spectral_relax,
    update_bit,
)
from tshash.data import (
    KernelConfig,
    PairSupervision,
    generate_clusters,
    rbf_bandwidth,
    sample_anchors,
    supervision_from_labels,
)
from tshash.hashfn import ClassifierConfig, encode, train_model
from tshash.loss import LOSS_TAGS, LossKind, quadratic_coeffs
from tshash.packed import pack_signs
from tshash.retrieval import CodeDatabase, GroundTruth, evaluate, rank
from tshash import cli

import oracle

PROP1_TOL = 1e-9          # criterion 1: |quadratic form - direct loss|
METRIC_TOL = 1e-12        # criterion 6: metric value agreement
MAP_TRAIN_MIN = 0.95      # criterion 4: training MAP from learned codes
BIT_AGREEMENT_MIN = 0.90  # criterion 5: encode vs learned codes
MAP_HELDOUT_MIN = 0.85    # criterion 5: held-out query MAP

BUDGET = {1: 1.0, 2: 30.0, 3: 10.0, 4: 60.0, 5: 60.0, 6: 10.0}


def emit(capsys, num, ok, detail, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s / {budget:.0f}s budget]"
    with capsys.disabled():
        print(f"\n[{status}] criterion {num}: {detail}{timing}", flush=True)


def random_supervision(rng, n, pairs):
    chosen = set()
    while len(chosen) < pairs:
        a, b = rng.choice(n, size=2, replace=False)
        chosen.add((min(a, b), max(a, b)))
    i, j = np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2).T
    # One draw per pair, in sorted order: one sized draw would consume rng differently.
    y = [float(rng.choice([-1.0, 1.0])) for _ in range(i.size)]
    return PairSupervision(n, i, j, y)


def label_ground_truth(db_labels, query_labels):
    return GroundTruth([
        frozenset(np.flatnonzero(db_labels == lab).tolist()) for lab in query_labels
    ])


def test_criterion_1_reduction_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for tag in LOSS_TAGS:
        for _ in range(1000):
            m = int(rng.integers(1, 65))
            sbar = int(rng.integers(0, m)) * 2 - (m - 1)
            y = float(rng.choice([-1.0, 1.0]))
            a, c = quadratic_coeffs(LossKind(tag, m), sbar, y)
            for z1, z2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                direct = oracle.direct_pair_loss(tag, m, sbar + z1 * z2, y)
                worst = max(worst, abs(a * z1 * z2 + c - direct))
    elapsed = time.perf_counter() - t0
    ok = worst <= PROP1_TOL and elapsed < BUDGET[1]
    emit(capsys, 1, ok, f"per-bit reduction equals direct loss on 5x1000x4 contexts, "
                f"max |gap| = {worst:.2e} (tol {PROP1_TOL:.0e})", elapsed, BUDGET[1])
    assert worst <= PROP1_TOL
    assert elapsed < BUDGET[1]


def test_criterion_2_bcd_monotonicity(capsys):
    t0 = time.perf_counter()
    violations = 0
    runs = 0
    for tag in LOSS_TAGS:
        for trial in range(20):
            rng = np.random.default_rng(7000 + trial)
            sup = random_supervision(rng, 50, 120)
            cfg = TrainConfig(loss=LossKind(tag, 8), sweeps=1, seed=trial)
            _, trace = learn_codes(sup, cfg)
            objs = [entry.objective for entry in trace]
            violations += sum(1 for a, b in zip(objs, objs[1:]) if b > a)
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < BUDGET[2]
    emit(capsys, 2, ok, f"objective trace non-increasing in all {runs} runs "
                f"({violations} violations)", elapsed, BUDGET[2])
    assert violations == 0
    assert elapsed < BUDGET[2]


def test_criterion_3_small_instance_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    gaps = []
    optimal_hits = 0
    for trial in range(50):
        n = 10
        sup = random_supervision(rng, n, 25)
        tag = LOSS_TAGS[trial % len(LOSS_TAGS)]
        kind = LossKind(tag, 1)
        codes = CodeMatrix(rng.choice([-1, 1], size=(n, 1)).astype(np.int8))
        i, j, y = sup.arrays()
        bqp = BqpInstance(n, i, j)
        a, _ = quadratic_coeffs(kind, np.zeros(len(sup)), y)  # m = 1: sbar = 0
        bqp.set_coefficients(a)
        incumbent = codes.bits[:, 0]
        selected, _ = update_bit(bqp, incumbent, seed=trial)
        # the candidates update_bit rounded, recomputed from the same inputs
        v0 = spectral_relax(bqp, seed=trial)
        v1 = box_relax(bqp, v0)
        sel_obj = bqp.quad(selected)
        # hard domination asserts
        assert sel_obj <= bqp.quad(np.where(v0 >= 0, 1, -1)) + 0.0
        assert sel_obj <= bqp.quad(np.where(v1 >= 0, 1, -1)) + 0.0
        assert sel_obj <= bqp.quad(incumbent) + 0.0
        best_val, _ = oracle.brute_force_bqp(bqp.matrix.toarray())
        gaps.append(sel_obj - best_val)
        if sel_obj - best_val <= 1e-9:
            optimal_hits += 1
    elapsed = time.perf_counter() - t0
    gaps = np.array(gaps)
    ok = bool(np.all(gaps >= -1e-9)) and elapsed < BUDGET[3]
    emit(capsys, 3, ok, f"selected column dominates all candidates on 50 BQPs; gap to "
                f"exhaustive optimum: mean {gaps.mean():.3f}, max {gaps.max():.3f}, "
                f"optimal in {optimal_hits}/50", elapsed, BUDGET[3])
    assert np.all(gaps >= -1e-9)  # selected can never beat the true optimum
    assert elapsed < BUDGET[3]


def three_cluster_codes(seed=0):
    ds = generate_clusters(300, 3, 2, 0.1, seed)
    sup = supervision_from_labels(ds, ds.n - 1, seed=seed + 1)
    cfg = TrainConfig(loss=LossKind("bre", 16), sweeps=1, seed=seed + 2)
    codes, _ = learn_codes(sup, cfg)
    return ds, codes


def test_criterion_4_training_code_quality(capsys):
    t0 = time.perf_counter()
    ds, codes = three_cluster_codes(seed=0)
    packed = pack_signs(codes.bits)
    db = CodeDatabase(packed)
    gt = label_ground_truth(ds.labels, ds.labels)
    report = evaluate(db, packed, gt, k=300, radius=2)
    elapsed = time.perf_counter() - t0
    ok = report.map >= MAP_TRAIN_MIN and elapsed < BUDGET[4]
    emit(capsys, 4, ok, f"training MAP from learned codes = {report.map:.4f} "
                f"(threshold {MAP_TRAIN_MIN})", elapsed, BUDGET[4])
    assert report.map >= MAP_TRAIN_MIN
    assert elapsed < BUDGET[4]


def test_criterion_5_two_step_consistency(capsys):
    t0 = time.perf_counter()
    ds, codes = three_cluster_codes(seed=0)
    anchors = sample_anchors(ds, 100, seed=3)
    kcfg = KernelConfig(anchors, rbf_bandwidth(ds, 1.0))
    model = train_model(ds, codes, "kernel", kcfg, ClassifierConfig(seed=4))

    enc_train = encode(model, ds.features)
    agreement = float(np.mean(enc_train.signs() == codes.bits))

    held = generate_clusters(100, 3, 2, 0.1, seed=7777)
    enc_queries = encode(model, held.features)
    gt = label_ground_truth(ds.labels, held.labels)
    report = evaluate(CodeDatabase(enc_train), enc_queries, gt, k=300, radius=2)
    elapsed = time.perf_counter() - t0
    ok = (agreement >= BIT_AGREEMENT_MIN and report.map >= MAP_HELDOUT_MIN
          and elapsed < BUDGET[5])
    emit(capsys, 5, ok, f"encode vs learned codes agreement = {agreement:.4f} "
                f"(threshold {BIT_AGREEMENT_MIN}); held-out MAP = {report.map:.4f} "
                f"(threshold {MAP_HELDOUT_MIN})", elapsed, BUDGET[5])
    assert agreement >= BIT_AGREEMENT_MIN
    assert report.map >= MAP_HELDOUT_MIN
    assert elapsed < BUDGET[5]


def test_criterion_6_retrieval_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(20):
        m = 32 if trial < 10 else 70
        n_db, n_q = 1000, 4
        db_codes = pack_signs(rng.choice([-1, 1], size=(n_db, m)).astype(np.int8))
        q_codes = pack_signs(rng.choice([-1, 1], size=(n_q, m)).astype(np.int8))
        sets = [frozenset(rng.choice(n_db, size=int(rng.integers(5, 50)),
                                     replace=False).tolist()) for _ in range(n_q)]
        db = CodeDatabase(db_codes)
        gt = GroundTruth(sets)

        db_bits = db_codes.signs()
        q_bits = q_codes.signs()
        for qi in range(n_q):
            want = [rid for _, rid in oracle.naive_rank(db_bits, np.arange(n_db), q_bits[qi])]
            got = rank(db, q_codes.words[qi], n_db).tolist()
            assert got == want  # exact ordering

        report = evaluate(db, q_codes, gt, k=300, radius=2)
        want = oracle.naive_metrics(db_bits, np.arange(n_db), list(q_bits), sets,
                                    k=300, radius=2, m=m)
        for key in ("precision_at_k", "map", "pr_auc", "prec_within_r2"):
            worst = max(worst, abs(getattr(report, key) - want[key]))
    elapsed = time.perf_counter() - t0
    ok = worst <= METRIC_TOL and elapsed < BUDGET[6]
    emit(capsys, 6, ok, f"ranking matches naive oracle exactly on 20 instances "
                f"(N=1000, m in {{32,70}}); max metric gap = {worst:.2e} "
                f"(tol {METRIC_TOL:.0e})", elapsed, BUDGET[6])
    assert worst <= METRIC_TOL
    assert elapsed < BUDGET[6]


def test_criterion_7_end_to_end_determinism(tmp_path, capsys):
    def run_pipeline(workdir, threads):
        workdir.mkdir()
        data = workdir / "train.csv"
        assert cli.main(["gen-data", str(data), "--n", "90", "--clusters", "3",
                         "--d", "2", "--spread", "0.15", "--seed", "21"]) == 0
        model = workdir / "model.json"
        assert cli.main(["train", str(data), "--model-out", str(model),
                         "--loss", "ksh", "--bits", "12", "--seed", "77",
                         "--anchors", "60", "--threads", str(threads)]) == 0
        codes = workdir / "codes.tshc"
        assert cli.main(["encode", str(model), str(data), str(codes),
                         "--labeled"]) == 0
        gt = workdir / "gt.txt"
        labels = np.loadtxt(data, delimiter=",", usecols=2, dtype=np.int64)
        with open(gt, "w", encoding="utf-8") as fh:
            for lab in labels:
                ids = np.flatnonzero(labels == lab)
                fh.write(" ".join(str(i) for i in ids) + "\n")
        prefix = workdir / "report"
        assert cli.main(["eval", str(codes), str(codes), str(gt), "--out-prefix",
                         str(prefix), "--k", "30", "--threads", str(threads)]) == 0
        names = ["model.json", "model.json.trace.csv", "codes.tshc",
                 "report.json", "report.csv", "report.pr.csv"]
        return {name: (workdir / name).read_bytes() for name in names}

    first = run_pipeline(tmp_path / "run1", threads=1)
    second = run_pipeline(tmp_path / "run2", threads=1)
    threaded = run_pipeline(tmp_path / "run3", threads=4)
    same_repeat = all(first[name] == second[name] for name in first)
    same_threads = all(first[name] == threaded[name] for name in first)
    ok = same_repeat and same_threads
    emit(capsys, 7, ok, f"repeat run byte-identical: {same_repeat}; "
                f"--threads 4 byte-identical: {same_threads}")
    assert same_repeat
    assert same_threads
