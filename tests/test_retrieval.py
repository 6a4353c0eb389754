import numpy as np
import pytest

from tshash.packed import pack_signs
from tshash.retrieval import (
    CodeDatabase,
    GroundTruth,
    _query_stats,
    evaluate,
    hamming_distances,
    load_ground_truth,
    load_report_json,
    rank,
    save_ground_truth,
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
            want = oracle.naive_hamming(pa.bits01()[0], pb.bits01()[0])
            assert one_row_distance(pa, pb) == want

    # m=64 fills one word (uint8 keys); m=600 needs 16-bit keys
    @pytest.mark.parametrize("m, dtype", [(64, np.uint8), (600, np.uint16)])
    def test_dtype_is_sort_key(self, m, dtype):
        db = CodeDatabase(packed_from_signs(np.ones((3, m))))
        query = packed_from_signs(-np.ones((1, m)))
        dists = hamming_distances(db, query.words[0])
        assert dists.dtype == dtype
        assert dists.tolist() == [m, m, m]

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

    # m=600 ranks on 16-bit distance keys (most above 255), the others on 8-bit keys
    @pytest.mark.parametrize("m", [32, 70, 600])
    def test_ordering_matches_naive_oracle(self, m):
        rng = np.random.default_rng(m)
        db_codes, q_codes, _ = random_instance(rng, 300, 5, m)
        db = CodeDatabase(db_codes)
        for qi in range(q_codes.n):
            want = [rid for _, rid in oracle.naive_rank(db_codes.bits01(), np.arange(db.n), q_codes.bits01()[qi])]
            got = rank(db, q_codes.words[qi], 300)
            assert got.tolist() == want


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
            report = evaluate(db, q_codes, gt, k=25, radius=m // 3, threads=1)
            want = oracle.naive_metrics(
                db_codes.bits01(), np.arange(db.n), list(q_codes.bits01()),
                gt.relevant, k=25, radius=m // 3, m=m,
            )
            for key in ("precision_at_k", "map", "pr_auc", "prec_within_r2"):
                assert getattr(report, key) == pytest.approx(want[key], abs=1e-12), key
            assert np.allclose(report.pr_precision, want["pr_precision"], atol=1e-12)
            assert np.allclose(report.pr_recall, want["pr_recall"], atol=1e-12)

    # One word (m=1, 8, 64), two words (70) and 16-bit keys (600); radius
    # m + 300 lies above the uint8 range, and k takes both ends of [1, N].
    @pytest.mark.parametrize("m", [1, 8, 64, 70, 600])
    def test_query_stats_match_reference_exactly(self, m):
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
            relevant_sets = [
                np.empty(0, dtype=np.int64),
                np.arange(n),
                np.array([n - 1]),
                np.sort(rng.choice(n, size=(n + 1) // 2, replace=False)),
            ]
            for qwords in [*queries.words, codes.words[0]]:
                for relevant in relevant_sets:
                    for k in (1, n):
                        for radius in (0, 2, m, m + 300):
                            got = _query_stats(db, qwords, relevant, k, radius, m)
                            want = oracle.reference_query_stats(db, qwords, relevant, k, radius, m)
                            for g, w in zip(got, want):
                                if w is None:
                                    assert g is None
                                else:
                                    assert np.array_equal(g, w), (n, k, radius)

    def test_metric_bounds(self):
        rng = np.random.default_rng(7)
        db_codes, q_codes, gt = random_instance(rng, 150, 20, 16)
        report = evaluate(CodeDatabase(db_codes), q_codes, gt, k=10, radius=2)
        for name in ("precision_at_k", "map", "pr_auc", "prec_within_r2"):
            assert 0.0 <= getattr(report, name) <= 1.0

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(9)
        db_codes, q_codes, gt = random_instance(rng, 120, 15, 32)
        one = evaluate(CodeDatabase(db_codes), q_codes, gt, k=10, threads=1)
        four = evaluate(CodeDatabase(db_codes), q_codes, gt, k=10, threads=4)
        assert one.map == four.map and one.precision_at_k == four.precision_at_k
        assert np.array_equal(one.pr_precision, four.pr_precision)

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


class TestGroundTruthIO:
    def test_round_trip_with_empty_sets(self, tmp_path):
        gt = GroundTruth([frozenset({3, 1}), [], np.array([0, 0])])
        path = tmp_path / "gt.txt"
        save_ground_truth(gt, path)
        back = load_ground_truth(path)
        assert [r.tolist() for r in back.relevant] == [[1, 3], [], [0]]
        assert [r.tolist() for r in gt.relevant] == [[1, 3], [], [0]]
        path.write_text("2\t 5 \n \t\n\n", encoding="utf-8")
        assert [r.tolist() for r in load_ground_truth(path).relevant] == [[2, 5], [], []]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        for bad in ("foo bar", "3 99999999999999999999", "1.5", "1,2", "1e3", "4 x"):
            path.write_text(f"1 2\n{bad}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="line 2"):
                load_ground_truth(path)
        # The constructor holds in-memory ids to the same rule.
        for bad in (np.array([1.5, 2.0]), {0.5, 3}, [np.inf], [True, False], np.array([True, False])):
            with pytest.raises(ValueError, match="integers"):
                GroundTruth([bad])

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
        doc = load_report_json(path)
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
