import concurrent.futures
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tshash import retrieval
from tshash.codegen import CodeMatrix
from tshash.data import Dataset, KernelConfig
from tshash.hashfn import HashModel
from tshash.packed import pack_signs
from tshash.retrieval import (
    CodeDatabase,
    EvalReport,
    GroundTruth,
    _query_stats,
    evaluate,
    hamming_distances,
    load_ground_truth,
    rank,
    write_pr_csv,
    write_report_csv,
    write_report_json,
)

import oracle


def packed_from_signs(signs):
    return pack_signs(np.asarray(signs, dtype=np.int8))


def random_instance(rng, n_db, n_q, m):
    db_signs = rng.choice([-1, 1], size=(n_db, m)).astype(np.int8)
    q_signs = rng.choice([-1, 1], size=(n_q, m)).astype(np.int8)
    sets = []
    for _ in range(n_q):
        size = int(rng.integers(0, 30))
        sets.append(frozenset(rng.choice(n_db, size=size, replace=False).tolist()))
    return packed_from_signs(db_signs), packed_from_signs(q_signs), GroundTruth(sets)


def check_query_stats_against_reference(m, key_dtype=np.uint32):
    """_query_stats against oracle.reference_query_stats with ==, over a grid:
    heavy ties, distinct codes and N = 1; four relevant sets; k at both ends
    of [1, N]. The oracle's precision within radii 0, 2, m and m + 300 must
    equal the returned curve at min(radius, m), where evaluate reads it."""
    rng = np.random.default_rng(500 + m)
    pool = rng.choice([-1, 1], size=(4, m)).astype(np.int8)
    databases = [
        packed_from_signs(pool[rng.integers(0, 4, 60)]),  # many duplicate codes: heavy ties
        packed_from_signs(rng.choice([-1, 1], size=(60, m)).astype(np.int8)),
        packed_from_signs(rng.choice([-1, 1], size=(1, m)).astype(np.int8)),  # N = 1
    ]
    queries = packed_from_signs(rng.choice([-1, 1], size=(3, m)).astype(np.int8))
    for codes in databases:
        db = CodeDatabase(codes)
        n = db.n
        buf = retrieval._RankBuffers(db)
        assert buf.keys.dtype == key_dtype
        relevant_sets = [
            np.empty(0, dtype=np.int64),
            np.arange(n),
            np.array([n - 1]),
            np.sort(rng.choice(n, size=(n + 1) // 2, replace=False)),
        ]
        for qwords in [*queries.words, codes.words[0]]:
            for relevant in relevant_sets:
                for k in (1, n):
                    got = _query_stats(db, buf, qwords, relevant, k) if relevant.size else None
                    for radius in (0, 2, m, m + 300):
                        want = oracle.reference_query_stats(db, qwords, relevant, k, radius, m)
                        if got is None:
                            # evaluate does not rank such a query: its curve
                            # row, radius precision included, stays 0.
                            assert want == (None, None, 0.0, None, None)
                            continue
                        ap, p_at_k, prec_curve, recall_curve = got
                        assert (ap, p_at_k) == want[:2], (n, k)
                        assert np.array_equal(prec_curve, want[3]), (n, k)
                        assert np.array_equal(recall_curve, want[4]), (n, k)
                        assert prec_curve[min(radius, m)] == want[2], (n, k, radius)


def one_row_distance(a, b):
    """Distance between the codes of two one-row PackedCodes."""
    return int(hamming_distances(CodeDatabase(b), a.words[0])[0])


class TestHammingDistance:
    def test_one_bit_differs(self):
        a = packed_from_signs([[1, 1, -1]])
        b = packed_from_signs([[1, -1, -1]])
        assert one_row_distance(a, b) == 1

    def test_identity(self):
        a = packed_from_signs([[1, -1, 1, 1]])
        assert one_row_distance(a, a) == 0

    def test_word_boundary_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = 70
            sa = rng.choice([-1, 1], size=(1, m))
            sb = rng.choice([-1, 1], size=(1, m))
            pa, pb = packed_from_signs(sa), packed_from_signs(sb)
            want = oracle.naive_hamming(pa.signs()[0], pb.signs()[0])
            assert one_row_distance(pa, pb) == want

    # m=64 fills one word (uint8 distances); m=600 needs 16-bit distances
    @pytest.mark.parametrize("m, dtype", [(64, np.uint8), (600, np.uint16)])
    def test_dtype_is_sort_key(self, m, dtype):
        db = CodeDatabase(packed_from_signs(np.ones((3, m))))
        query = packed_from_signs(-np.ones((1, m)))
        dists = hamming_distances(db, query.words[0])
        assert dists.dtype == dtype
        assert dists.tolist() == [m, m, m]

    # One word, and two and ten words, where the per-word counts are summed.
    @pytest.mark.parametrize("m", [8, 64, 70, 600])
    def test_out_and_scratch_receive_the_results(self, m):
        rng = np.random.default_rng(m)
        db = CodeDatabase(packed_from_signs(rng.choice([-1, 1], size=(40, m))))
        qwords = packed_from_signs(rng.choice([-1, 1], size=(1, m))).words[0]
        want = hamming_distances(db, qwords)
        out, scratch = np.empty_like(want), np.empty_like(db.codes.words)
        got = hamming_distances(db, qwords, out=out, scratch=scratch)
        assert got is out and np.array_equal(got, want)
        assert np.array_equal(scratch, db.codes.words ^ qwords)

    def test_length_mismatch_rejected(self):
        a = packed_from_signs([[1] * 70])
        b = packed_from_signs([[1] * 30])
        with pytest.raises(ValueError, match="word count"):
            one_row_distance(a, b)


class TestRank:
    def test_singleton_database(self):
        db = CodeDatabase(packed_from_signs([[1, 1]]))
        q = packed_from_signs([[-1, -1]])
        assert rank(db, q.words[0], 1).tolist() == [0]

    def test_exact_match_ranks_first(self):
        signs = [[1, 1, 1], [-1, -1, -1], [1, -1, 1]]
        db = CodeDatabase(packed_from_signs(signs))
        q = packed_from_signs([signs[2]])
        assert rank(db, q.words[0], 3)[0] == 2

    def test_ties_break_by_ascending_id(self):
        signs = [[1, 1], [1, 1], [1, 1]]
        db = CodeDatabase(packed_from_signs(signs))
        q = packed_from_signs([[1, 1]])
        assert rank(db, q.words[0], 3).tolist() == [0, 1, 2]

    def test_k_out_of_range(self):
        db = CodeDatabase(packed_from_signs([[1, 1]]))
        q = packed_from_signs([[1, 1]])
        with pytest.raises(ValueError):
            rank(db, q.words[0], 2)

    # m=600 ranks on 16-bit distances (most above 255), the others on 8-bit distances
    @pytest.mark.parametrize("m", [32, 70, 600])
    def test_ordering_matches_naive_oracle(self, m):
        rng = np.random.default_rng(m)
        db_codes, q_codes, _ = random_instance(rng, 300, 5, m)
        db = CodeDatabase(db_codes)
        for qi in range(q_codes.n):
            want = [rid for _, rid in oracle.naive_rank(db_codes.signs(), np.arange(db.n), q_codes.signs()[qi])]
            got = rank(db, q_codes.words[qi], 300)
            assert got.tolist() == want

    # m=300 ranks on 16-bit distances. The database holds 1, 3 or n distinct
    # codes, so runs of tied distances cross the k-th nearest distance. Keys
    # are uint32 at these sizes; the same data on uint64 keys, patched into
    # the layout before each database is built, covers the wide layout that a
    # large N times a large m needs.
    @pytest.mark.parametrize("m", [1, 3, 8, 64, 65, 300])
    @pytest.mark.parametrize("n", [1, 2, 7, 300, 2000])
    def test_top_k_equals_prefix_of_full_sort(self, m, n, monkeypatch):
        layout = retrieval._key_layout
        for key_dtype in (np.uint32, np.uint64):
            monkeypatch.setattr(retrieval, "_key_layout", lambda n, m: (key_dtype, layout(n, m)[1]))
            rng = np.random.default_rng(1000 * m + n)
            for distinct in sorted({1, 3, n}):
                pool = rng.choice([-1, 1], size=(distinct, m)).astype(np.int8)
                db = CodeDatabase(packed_from_signs(pool[rng.integers(0, distinct, n)]))
                assert db.id_keys.dtype == key_dtype
                queries = packed_from_signs(rng.choice([-1, 1], size=(2, m)).astype(np.int8))
                for qwords in [*queries.words, db.codes.words[0]]:
                    full = np.argsort(hamming_distances(db, qwords), kind="stable")
                    for k in sorted({0, 1, 2, 10, n // 2, n - 1, n} & set(range(n + 1))):
                        got = rank(db, qwords, k)
                        assert got.dtype == full.dtype and np.array_equal(got, full[:k]), (distinct, k)

    def test_zero_k_on_empty_database(self):
        db = CodeDatabase(packed_from_signs(np.ones((0, 5))))
        got = rank(db, packed_from_signs([[1] * 5]).words[0], 0)
        assert got.size == 0 and got.dtype == np.intp


class TestEvaluate:
    def test_ap_worked_example(self):
        # ranked relevance pattern [1, 0, 1, 0] -> AP = (1/1 + 2/3)/2 = 5/6
        db = packed_from_signs([
            [1, 1, 1, 1],
            [1, 1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, -1],
        ])
        q = packed_from_signs([[1, 1, 1, 1]])
        gt = GroundTruth([frozenset({0, 2})])
        report = evaluate(CodeDatabase(db), q, gt, k=4, radius=2)
        assert report.map == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_perfect_retrieval(self):
        signs = [[1, 1], [1, 1], [-1, -1]]
        db = packed_from_signs(signs)
        q = packed_from_signs([[1, 1]])
        gt = GroundTruth([frozenset({0, 1})])
        report = evaluate(CodeDatabase(db), q, gt, k=2, radius=2)
        assert report.precision_at_k == 1.0 and report.map == 1.0

    def test_empty_radius_retrieval_counts_zero(self):
        db = packed_from_signs([[1] * 8])
        q = packed_from_signs([[-1] * 8])
        gt = GroundTruth([frozenset({0})])
        report = evaluate(CodeDatabase(db), q, gt, k=1, radius=2)
        assert report.prec_within_r2 == 0.0

    def test_empty_relevant_queries_excluded_but_counted(self):
        signs = [[1, 1], [-1, -1]]
        db = packed_from_signs(signs)
        q = packed_from_signs([[1, 1], [-1, -1]])
        gt = GroundTruth([frozenset({0}), frozenset()])
        report = evaluate(CodeDatabase(db), q, gt, k=1, radius=0)
        assert report.n_empty_relevant == 1
        assert report.map == 1.0  # only the first query scores

    def test_all_empty_relevant_is_error(self):
        db = packed_from_signs([[1, 1]])
        q = packed_from_signs([[1, 1]])
        with pytest.raises(ValueError, match="empty relevant"):
            evaluate(CodeDatabase(db), q, GroundTruth([frozenset()]), k=1)

    def test_no_queries_is_error(self):
        db = packed_from_signs([[1, 1]])
        q = packed_from_signs(np.ones((1, 2)))
        empty_q = type(q)(np.zeros((0, 1), dtype=np.uint64), 2)
        with pytest.raises(ValueError, match="no queries"):
            evaluate(CodeDatabase(db), empty_q, GroundTruth([]), k=1)

    def test_m_mismatch_rejected(self):
        db = packed_from_signs([[1, 1]])
        q = packed_from_signs([[1, 1, 1]])
        with pytest.raises(ValueError, match="mismatch"):
            evaluate(CodeDatabase(db), q, GroundTruth([frozenset({0})]))

    def test_unknown_ground_truth_id_rejected(self):
        db = packed_from_signs([[1, 1]])
        q = packed_from_signs([[1, 1]])
        for bad in ({5}, {-1}):
            with pytest.raises(ValueError, match="unknown"):
                evaluate(CodeDatabase(db), q, GroundTruth([bad]), k=1)

    @pytest.mark.parametrize("m", [1, 32, 64, 70])
    def test_metrics_match_naive_oracle(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(3):
            db_codes, q_codes, gt = random_instance(rng, 200, 12, m)
            db = CodeDatabase(db_codes)
            report = evaluate(db, q_codes, gt, k=25, radius=m // 3)
            want = oracle.naive_metrics(
                db_codes.signs(), np.arange(db.n), list(q_codes.signs()),
                gt.relevant, k=25, radius=m // 3, m=m,
            )
            for key in ("precision_at_k", "map", "pr_auc", "prec_within_r2"):
                assert getattr(report, key) == pytest.approx(want[key], abs=1e-12), key
            assert np.allclose(report.pr_precision, want["pr_precision"], atol=1e-12)
            assert np.allclose(report.pr_recall, want["pr_recall"], atol=1e-12)

    # One word (m=1, 8, 64), two words (70) and 16-bit distances (600); radius
    # m + 300 lies above the uint8 range, and k takes both ends of [1, N].
    @pytest.mark.parametrize("m", [1, 8, 64, 70, 600])
    def test_query_stats_match_reference_exactly(self, m):
        check_query_stats_against_reference(m)

    # Keys are uint32 at these sizes; the same grid on uint64 keys covers the
    # wide layout that a large N times a large m needs.
    @pytest.mark.parametrize("m", [1, 8, 64, 70, 600])
    def test_query_stats_on_uint64_keys(self, m, monkeypatch):
        layout = retrieval._key_layout
        monkeypatch.setattr(retrieval, "_key_layout", lambda n, m: (np.uint64, layout(n, m)[1]))
        check_query_stats_against_reference(m, key_dtype=np.uint64)

    # evaluate sorts all N keys and rank partitions them; on a database of
    # heavy ties both must follow one tie rule.
    def test_rank_and_evaluate_share_one_tie_rule(self):
        rng = np.random.default_rng(77)
        m, n = 16, 300
        pool = rng.choice([-1, 1], size=(3, m)).astype(np.int8)
        db = CodeDatabase(packed_from_signs(pool[rng.integers(0, 3, n)]))
        relevant = np.sort(rng.choice(n, size=60, replace=False))
        # Two random queries and one equal to a database code.
        for signs in [*rng.choice([-1, 1], size=(2, m)), pool[0]]:
            query = packed_from_signs(signs[None])
            qwords = query.words[0]
            hits = np.flatnonzero(np.isin(rank(db, qwords, n), relevant))
            ap = float(np.mean(np.arange(1, hits.size + 1) / (hits + 1.0)))
            for k in (1, 10, 50, 150, n):
                report = evaluate(db, query, GroundTruth([relevant]), k=k)
                assert report.precision_at_k == np.isin(rank(db, qwords, k), relevant).sum() / k, k
                assert report.map == ap

    # (m + 1) << shift is the bound evaluate searches for at distance m; keys
    # are uint32 while it fits, uint64 from the next m on.
    @pytest.mark.parametrize("n", [1, 2, 3, 4096, 50_000, 2**20, 2**20 + 1, 2**31])
    def test_key_width_boundary(self, n):
        _, shift = retrieval._key_layout(n, 1)
        assert 1 << (shift - 1) <= 2 * n - 1 < 1 << shift  # id << 1 | flag, no spare bit
        m = ((2**32 - 1) >> shift) - 1  # the largest m with (m + 1) << shift < 2**32
        assert retrieval._key_layout(n, m) == (np.uint32, shift)
        assert retrieval._key_layout(n, m + 1) == (np.uint64, shift)

    def test_metric_bounds(self):
        rng = np.random.default_rng(7)
        db_codes, q_codes, gt = random_instance(rng, 150, 20, 16)
        report = evaluate(CodeDatabase(db_codes), q_codes, gt, k=10, radius=2)
        for name in ("precision_at_k", "map", "pr_auc", "prec_within_r2"):
            assert 0.0 <= getattr(report, name) <= 1.0

    def test_monotone_degradation_under_bit_flips(self):
        m, per_cluster = 32, 40
        rates = (0.0, 0.1, 0.2, 0.3, 0.45)
        maps_by_rate = {rate: [] for rate in rates}
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            centers = rng.choice([-1, 1], size=(4, m)).astype(np.int8)
            db_signs = np.repeat(centers, per_cluster, axis=0)
            labels = np.repeat(np.arange(4), per_cluster)
            q_idx = rng.choice(len(db_signs), size=20, replace=False)
            gt = GroundTruth([frozenset(np.flatnonzero(labels == labels[qi]).tolist()) for qi in q_idx])
            q_codes = packed_from_signs(db_signs[q_idx])
            for rate in rates:
                flips = rng.random(db_signs.shape) < rate
                noisy = np.where(flips, -db_signs, db_signs)
                report = evaluate(CodeDatabase(packed_from_signs(noisy)), q_codes, gt, k=per_cluster)
                maps_by_rate[rate].append(report.map)
        medians = [float(np.median(maps_by_rate[rate])) for rate in rates]
        assert all(b <= a + 1e-6 for a, b in zip(medians, medians[1:])), medians


def assert_same_report(got, want):
    """Every field equal with ==, the PR arrays element by element."""
    for name in retrieval.EvalReport.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, name


def instance_with_empty_sets(m, n_q, scored, seed=0):
    """A random instance of n_q queries, `scored` of which have nonempty
    relevant sets, at random positions among the empty ones."""
    rng = np.random.default_rng(seed)
    db_codes = packed_from_signs(rng.choice([-1, 1], size=(120, m)))
    q_codes = packed_from_signs(rng.choice([-1, 1], size=(n_q, m)))
    sets = [np.sort(rng.choice(120, size=int(rng.integers(1, 40)), replace=False)) for _ in range(scored)]
    sets += [np.empty(0, dtype=np.int64)] * (n_q - scored)
    order = rng.permutation(n_q)
    return CodeDatabase(db_codes), q_codes, GroundTruth([sets[i] for i in order])


class SyncPool:
    """Stands in for ThreadPoolExecutor, as partial(SyncPool, sizes): records
    max_workers in sizes and runs each task at once on the calling thread."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


# Prints whether evaluate at the given thread count imported concurrent.futures;
# the child claims 2 CPUs, so 2 threads build a pool on any machine.
POOL_IMPORT_PROBE = """
import os, sys
import numpy as np
os.cpu_count = lambda: 2
from tshash.packed import pack_signs
from tshash.retrieval import CodeDatabase, GroundTruth, evaluate
codes = pack_signs(np.array([[1, -1], [1, 1], [-1, -1]], dtype=np.int8))
evaluate(CodeDatabase(codes), codes, GroundTruth([[0], [1], [2]]), k=1, threads=int(sys.argv[1]))
print("concurrent.futures" in sys.modules)
"""


class TestEvaluateThreads:
    # The scored queries outnumber every thread count in the first case and
    # are fewer than 3 and 5 threads in the second. More threads than cores,
    # switching every microsecond, would show a lost or misplaced row.
    @pytest.mark.parametrize("n_q, scored", [(40, 29), (6, 2)])
    @pytest.mark.parametrize("m", [8, 64, 100])
    def test_report_independent_of_thread_count(self, m, n_q, scored, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so 3 and 5 threads are not capped at 2
        db, q_codes, gt = instance_with_empty_sets(m, n_q, scored, seed=m + n_q)
        want = evaluate(db, q_codes, gt, k=15, radius=3)
        assert want.n_empty_relevant == n_q - scored
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 3, 5):
                assert_same_report(evaluate(db, q_codes, gt, k=15, radius=3, threads=threads), want)
        finally:
            sys.setswitchinterval(interval)

    def test_zero_threads_rejected(self):
        db, q_codes, gt = instance_with_empty_sets(8, 4, 3)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            evaluate(db, q_codes, gt, k=5, threads=0)

    # The calling thread is one worker, so the pool holds one fewer: at most
    # cpu_count - 1, and at most the scored queries less one.
    @pytest.mark.parametrize("cpus, scored, pool_size", [(2, 29, 1), (64, 3, 2), (1, 29, None), (None, 29, None)])
    def test_workers_capped(self, cpus, scored, pool_size, monkeypatch):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", functools.partial(SyncPool, sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        db, q_codes, gt = instance_with_empty_sets(16, 40, scored, seed=3)
        want = evaluate(db, q_codes, gt, k=10)
        assert sizes == []
        assert_same_report(evaluate(db, q_codes, gt, k=10, threads=10**6), want)
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_one_thread_builds_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("threads=1 built a pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        db, q_codes, gt = instance_with_empty_sets(8, 10, 7)
        assert evaluate(db, q_codes, gt, k=5, threads=1).n_queries == 10

    @pytest.mark.parametrize("threads, imported", [(1, "False"), (2, "True")])
    def test_pool_module_loaded_only_for_threads(self, threads, imported):
        src = str(Path(retrieval.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", POOL_IMPORT_PROBE, str(threads)],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == imported

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        db, q_codes, gt = instance_with_empty_sets(8, 10, 10)
        stats = retrieval._query_stats

        def fail_on_second(db, buf, qwords, relevant, k):
            if relevant is gt.relevant[1]:  # part 1, ranked on the pool's thread
                raise RuntimeError("query 1 failed")
            return stats(db, buf, qwords, relevant, k)

        monkeypatch.setattr(retrieval, "_query_stats", fail_on_second)
        with pytest.raises(RuntimeError, match="query 1 failed"):
            evaluate(db, q_codes, gt, k=5, threads=2)


class TestGroundTruthIO:
    def test_round_trip_with_empty_sets(self, tmp_path):
        gt = GroundTruth([frozenset({3, 1}), [], np.array([0, 0])])
        path = tmp_path / "gt.txt"
        path.write_text("3 1\n\n0 0\n", encoding="utf-8")
        back = load_ground_truth(path)
        assert [r.tolist() for r in back.relevant] == [[1, 3], [], [0]]
        assert [r.tolist() for r in gt.relevant] == [[1, 3], [], [0]]
        path.write_text("2\t 5 \n \t\n\n", encoding="utf-8")
        assert [r.tolist() for r in load_ground_truth(path).relevant] == [[2, 5], [], []]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        for bad in ("foo bar", "3 99999999999999999999", "1.5", "1,2", "1e3", "4 x",
                    "3 -", "-", "+", "+ 5", "3 + 4", "1 - 2", "3\t-", "1\t+\t2", "--5", "5+"):
            path.write_text(f"1 2\n{bad}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="malformed ground truth at line 2: '"):
                load_ground_truth(path)
        # A sign directly before its digits is part of the id.
        path.write_text("+5 3\n-0\t+2\n", encoding="utf-8")
        assert [r.tolist() for r in load_ground_truth(path).relevant] == [[3, 5], [0, 2]]
        # The constructor holds in-memory ids to the same rule.
        for bad in (np.array([1.5, 2.0]), {0.5, 3}, [np.inf], [True, False], np.array([True, False])):
            with pytest.raises(ValueError, match="integers"):
                GroundTruth([bad])

    def test_ids_are_copied_and_caller_array_unchanged(self):
        # Sorted int64 ids are copied too, so a caller's array is never aliased or made read-only.
        for given in (np.array([2, 5, 9], dtype=np.int64), np.array([9, 2, 5, 2], dtype=np.int64),
                      np.array([2, 5, 9], dtype=np.int32)):
            before = given.copy()
            held = GroundTruth([given]).relevant[0]
            assert held.tolist() == [2, 5, 9] and held.dtype == np.int64
            assert not np.shares_memory(held, given)
            assert np.array_equal(given, before)

    def test_object_given_twice_is_copied_once(self):
        a = np.array([5, 2, 9, 2])
        before = a.copy()
        gt = GroundTruth([a, a, [5, 2, 9]])
        assert gt.relevant[0] is gt.relevant[1]  # one copy, shared
        assert gt.relevant[2] is not gt.relevant[0] and gt.relevant[2].tolist() == [2, 5, 9]
        assert not np.shares_memory(gt.relevant[0], a)
        assert not gt.relevant[0].flags.writeable and a.flags.writeable
        assert np.array_equal(a, before)
        with pytest.raises(ValueError, match="read-only"):
            gt.relevant[0][0] = 7
        # Objects that only the constructor's argument holds are not told apart
        # by an id() that a later object reuses.
        held = GroundTruth([i] for i in range(50)).relevant
        assert [r.tolist() for r in held] == [[i] for i in range(50)]

    def test_repeated_lines_share_one_read_only_array(self, tmp_path):
        rng = np.random.default_rng(8)
        labels, q_labels = rng.integers(0, 4, 200), rng.integers(0, 4, 30)
        lines = {c: " ".join(map(str, np.flatnonzero(labels == c))) for c in range(4)}
        path = tmp_path / "gt.txt"
        path.write_text("".join(lines[c] + "\n" for c in q_labels.tolist()), encoding="utf-8")
        gt = load_ground_truth(path)
        assert len({id(r) for r in gt.relevant}) == len(set(q_labels.tolist()))
        for qi, c in enumerate(q_labels.tolist()):
            first = gt.relevant[int(np.flatnonzero(q_labels == c)[0])]
            assert gt.relevant[qi] is first and not first.flags.writeable
            assert first.tolist() == np.flatnonzero(labels == c).tolist()
        # Unshared copies score the same.
        unshared = GroundTruth([r.copy() for r in gt.relevant])
        assert len({id(r) for r in unshared.relevant}) == len(q_labels)
        db = CodeDatabase(packed_from_signs(rng.choice([-1, 1], size=(200, 16)).astype(np.int8)))
        queries = packed_from_signs(rng.choice([-1, 1], size=(30, 16)).astype(np.int8))
        shared_report, unshared_report = (evaluate(db, queries, g, k=20, radius=3) for g in (gt, unshared))
        for name in ("precision_at_k", "map", "pr_auc", "prec_within_r2", "n_empty_relevant"):
            assert getattr(shared_report, name) == getattr(unshared_report, name), name
        assert np.array_equal(shared_report.pr_precision, unshared_report.pr_precision)
        assert np.array_equal(shared_report.pr_recall, unshared_report.pr_recall)

    def test_repeated_malformed_line_fails_at_its_first_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        for text, first in (("1 2\n3 x\n1 2\n3 x\n", 2), ("1 2\n1 2\n4 -\n1 2\n4 -\n", 3),
                            ("5\n-4\n-4\n", 2)):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"malformed ground truth at line {first}: "):
                load_ground_truth(path)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("-4\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_ground_truth(path)


class TestReportExport:
    def make_report(self):
        rng = np.random.default_rng(33)
        db_codes, q_codes, gt = random_instance(rng, 60, 8, 16)
        return evaluate(CodeDatabase(db_codes), q_codes, gt, k=5, radius=2)

    def test_json_keys_and_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report_json(report, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for key in ("precision_at_k", "map", "pr_auc", "prec_within_r2",
                    "k", "radius", "m", "n_queries", "n_empty_relevant"):
            assert key in doc
        assert doc["map"] == report.map

    def test_csv_rows(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        listed = dict(line.split(",") for line in lines[1:])
        assert float(listed["map"]) == report.map

    def test_pr_csv_rows(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.pr.csv"
        write_pr_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert len(lines) == report.m + 2  # header + m+1 thresholds


# Each builds an instance holding arrays of more than one entry, whose == is elementwise.
ARRAY_HOLDERS = {
    "Dataset": lambda: Dataset(np.ones((2, 2)), [0, 1]),
    "KernelConfig": lambda: KernelConfig(np.ones((2, 2)), 1.0),
    "CodeMatrix": lambda: CodeMatrix(np.ones((2, 3))),
    "HashModel": lambda: HashModel(np.ones((1, 2)), [0.0, 0.0], [False, False], "raw", 1),
    "PackedCodes": lambda: pack_signs(np.ones((3, 5))),
    "CodeDatabase": lambda: CodeDatabase(pack_signs(np.ones((3, 5)))),
    "GroundTruth": lambda: GroundTruth([[0, 1]]),
    "EvalReport": lambda: EvalReport(0.5, 0.5, 0.5, 0.5, 1, 2, 5, 1, 0, np.ones(6), np.ones(6)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_equality_of_array_holders_is_a_bool(make):
    """== on two instances with equal contents returns a bool instead of raising."""
    a, b = make(), make()
    assert isinstance(a == b, bool)
    assert a == a
