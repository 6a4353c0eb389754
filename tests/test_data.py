import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from tshash.data import (
    DataFormatError,
    Dataset,
    KernelConfig,
    PairSupervision,
    generate_clusters,
    kernel_matrix,
    load_dataset,
    load_supervision,
    rbf_bandwidth,
    sample_anchors,
    save_supervision,
    supervision_from_distance,
    supervision_from_labels,
    _BLOCK_ROWS,
    _sample_partners,
    _sq_distances,
)

import oracle

EXP_NEG_ONE = 0.36787944117144233


def pair_values(sup):
    """Stored pairs as {(i, j): y}."""
    i, j, y = sup.arrays()
    return dict(zip(zip(i.tolist(), j.tolist()), y.tolist()))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadDataset:
    def test_unlabeled_parse(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1.0,2.0\n3.0,4.0\n"))
        assert (ds.n, ds.d, ds.has_labels) == (2, 2, False)
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_labeled_parse(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n"), has_labels=True)
        assert (ds.n, ds.d) == (2, 2)
        assert ds.labels.tolist() == [0, 1]

    def test_ragged_row_reports_row_number(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 2"):
            load_dataset(write(tmp_path, "1.0,2.0\n3.0\n"))

    def test_non_numeric_cell_reports_row(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 1"):
            load_dataset(write(tmp_path, "1.0,zap\n"))

    def test_non_integer_label_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="label"):
            load_dataset(write(tmp_path, "1.0,0.5\n"), has_labels=True)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(write(tmp_path, "1.0,nan\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            load_dataset(write(tmp_path, "\n\n"))

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1.0,2.0\n\n3.0,4.0\n"))
        assert ds.n == 2


class TestDataset:
    def test_rejects_non_finite_features(self):
        with pytest.raises(DataFormatError):
            Dataset(np.array([[np.inf, 1.0]]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataFormatError):
            Dataset(np.ones((3, 2)), labels=np.array([0, 1]))

    def test_features_immutable(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestGenerateClusters:
    def test_shapes_and_label_range(self):
        ds = generate_clusters(300, 3, 2, 0.1, seed=0)
        assert (ds.n, ds.d) == (300, 2)
        assert set(ds.labels.tolist()) == {0, 1, 2}

    def test_uneven_split_covers_all_points(self):
        ds = generate_clusters(10, 3, 2, 0.1, seed=0)
        counts = np.bincount(ds.labels)
        assert counts.sum() == 10 and counts.min() >= 3

    def test_zero_spread_collapses_to_centers(self):
        ds = generate_clusters(9, 3, 2, 0.0, seed=4)
        for lab in range(3):
            rows = ds.features[ds.labels == lab]
            assert np.ptp(rows, axis=0).max() == 0.0

    def test_deterministic(self):
        a = generate_clusters(50, 2, 3, 0.2, seed=9)
        b = generate_clusters(50, 2, 3, 0.2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestPairSupervision:
    def test_entries_stored_canonically(self):
        sup = PairSupervision.from_entries(4, [(2, 0, 1.0), (1, 3, -1.0), (0, 2, 1.0)])
        assert pair_values(sup) == {(0, 2): 1.0, (1, 3): -1.0}
        assert len(PairSupervision.from_entries(4, [])) == 0

    def test_rejects_self_pair(self):
        with pytest.raises(DataFormatError):
            PairSupervision.from_entries(3, [(1, 1, 1.0)])

    def test_rejects_conflicting_duplicates(self):
        with pytest.raises(DataFormatError):
            PairSupervision.from_entries(3, [(0, 1, 1.0), (1, 0, -1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataFormatError):
            PairSupervision(2, np.array([0]), np.array([5]), np.array([1.0]))

    def test_save_load_round_trip(self, tmp_path):
        sup = PairSupervision.from_entries(5, [(0, 4, 1.0), (2, 3, -1.0)])
        path = tmp_path / "sup.csv"
        save_supervision(sup, path)
        back = load_supervision(path, 5)
        assert np.array_equal(back.i, sup.i)
        assert np.array_equal(back.j, sup.j)
        assert np.array_equal(back.y, sup.y)

    # the repeated nan pair must read as non-finite, not as conflicting
    @pytest.mark.parametrize("row", [
        "0,1,nan", "1,2,inf", "0,2,-inf", pytest.param("0,1,nan\n1,0,nan", id="nan-twice"),
    ])
    def test_load_rejects_non_finite_affinity(self, tmp_path, row):
        path = tmp_path / "sup.csv"
        path.write_text(f"0,3,1.0\n{row}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="finite"):
            load_supervision(path, 4)


class TestSamplePartners:
    @pytest.mark.parametrize("seed", [0, 17, 123456789])
    @pytest.mark.parametrize("per_point", ["1", "5", "n-1"])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_matches_set_based_oracle(self, n, per_point, seed):
        ppp = n - 1 if per_point == "n-1" else int(per_point)
        try:
            want = sorted(oracle.sample_partners(n, ppp, seed))
        except ValueError:
            with pytest.raises(ValueError):
                _sample_partners(n, ppp, seed)
            return
        i, j = _sample_partners(n, ppp, seed)
        assert i.dtype == j.dtype == np.int64
        assert list(zip(i.tolist(), j.tolist())) == want


class TestSupervisionFromLabels:
    def test_full_pairing_three_points(self):
        ds = Dataset(np.zeros((3, 1)), labels=np.array([0, 0, 1]))
        sup = supervision_from_labels(ds, 2, seed=0)
        got = {(int(a), int(b), float(v)) for a, b, v in zip(sup.i, sup.j, sup.y)}
        assert got == {(0, 1, 1.0), (0, 2, -1.0), (1, 2, -1.0)}

    def test_two_points_same_class(self):
        ds = Dataset(np.zeros((2, 1)), labels=np.array([5, 5]))
        sup = supervision_from_labels(ds, 1, seed=0)
        assert pair_values(sup) == {(0, 1): 1.0}

    def test_single_point_gives_empty_supervision(self):
        ds = Dataset(np.zeros((1, 1)), labels=np.array([0]))
        assert len(supervision_from_labels(ds, 1, seed=0)) == 0

    def test_rejects_missing_labels(self):
        with pytest.raises(ValueError):
            supervision_from_labels(Dataset(np.zeros((3, 1))), 1, seed=0)

    def test_rejects_excess_pairs_per_point(self):
        ds = Dataset(np.zeros((3, 1)), labels=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            supervision_from_labels(ds, 3, seed=0)

    def test_agreement_soundness_on_sampled_pairs(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(40, 3)), labels=rng.integers(0, 4, size=40))
        sup = supervision_from_labels(ds, 5, seed=7)
        for a, b, v in zip(sup.i, sup.j, sup.y):
            assert (v == 1.0) == (ds.labels[a] == ds.labels[b])

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(30, 2)), labels=rng.integers(0, 3, size=30))
        a = supervision_from_labels(ds, 4, seed=11)
        b = supervision_from_labels(ds, 4, seed=11)
        assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j) and np.array_equal(a.y, b.y)


class TestSupervisionFromDistance:
    def test_line_example(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0]]))
        sup = supervision_from_distance(ds, 50.0, 2, seed=0)
        # cutoff for point 2 is 9 (its nearest other point); ties label +1
        assert pair_values(sup) == {(0, 1): 1.0, (0, 2): -1.0, (1, 2): 1.0}

    def test_two_points_always_similar(self):
        ds = Dataset(np.array([[0.0], [100.0]]))
        sup = supervision_from_distance(ds, 1.0, 1, seed=0)
        assert pair_values(sup) == {(0, 1): 1.0}

    def test_identical_points_all_similar(self):
        ds = Dataset(np.zeros((5, 2)))
        sup = supervision_from_distance(ds, 2.0, 4, seed=0)
        assert np.all(sup.y == 1.0)

    def test_rejects_bad_percentile(self):
        ds = Dataset(np.zeros((3, 1)))
        for p in (0.0, 100.0, -3.0):
            with pytest.raises(ValueError):
                supervision_from_distance(ds, p, 1, seed=0)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            supervision_from_distance(Dataset(np.zeros((1, 1))), 2.0, 1, seed=0)

    def test_symmetric_regardless_of_sampling_direction(self):
        # labels must not depend on which endpoint drew the pair
        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(60, 2)))
        sup = supervision_from_distance(ds, 10.0, 6, seed=13)
        dist = np.sqrt(((ds.features[:, None] - ds.features[None]) ** 2).sum(-1))
        masked = dist + np.diag(np.full(60, np.inf))
        cut = np.sort(masked, axis=1)[:, math.ceil(10.0 * 59 / 100.0) - 1]
        for a, b, v in zip(sup.i, sup.j, sup.y):
            expect = 1.0 if dist[a, b] <= max(cut[a], cut[b]) else -1.0
            assert v == expect


class TestBandwidth:
    def test_two_point_example(self):
        assert rbf_bandwidth(Dataset(np.array([[0.0], [1.0]])), 1.0, k=1) == 1.0

    def test_three_point_example(self):
        got = rbf_bandwidth(Dataset(np.array([[0.0], [1.0], [2.0]])), 2.0, k=1)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_points_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            rbf_bandwidth(Dataset(np.zeros((4, 2))), 1.0, k=2)

    def test_linear_in_t(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(30, 4)))
        lo = rbf_bandwidth(ds, 0.7, k=5)
        hi = rbf_bandwidth(ds, 1.4, k=5)
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_k_clamped_to_available_neighbors(self):
        ds = Dataset(np.array([[0.0], [3.0], [7.0]]))
        assert rbf_bandwidth(ds, 1.0, k=100) == rbf_bandwidth(ds, 1.0, k=2)


class TestKernelFeatures:
    def cfg(self, anchors, sigma):
        return KernelConfig(np.asarray(anchors, dtype=float), sigma)

    def test_anchor_response_is_one(self):
        cfg = self.cfg([[1.0, 2.0], [5.0, 5.0]], 2.0)
        feats = kernel_matrix(np.array([[1.0, 2.0]]), cfg)[0]
        assert feats[0] == 1.0

    def test_pinned_decay_value(self):
        # distance sigma*sqrt(2) gives exp(-1)
        sigma = 1.0
        cfg = self.cfg([[math.sqrt(2.0)]], sigma)
        got = kernel_matrix(np.array([[0.0]]), cfg)[0, 0]
        assert got == pytest.approx(EXP_NEG_ONE, abs=1e-12)

    def test_far_point_decays_toward_zero(self):
        cfg = self.cfg([[0.0]], 0.5)
        assert kernel_matrix(np.array([[50.0]]), cfg)[0, 0] < 1e-300 * 1e10

    def test_range(self):
        rng = np.random.default_rng(4)
        cfg = self.cfg(rng.normal(size=(6, 3)), 1.3)
        feats = kernel_matrix(rng.normal(size=(20, 3)), cfg)
        assert np.all(feats > 0.0) and np.all(feats <= 1.0)

    def test_zero_width_anchors_rejected(self):
        with pytest.raises(DataFormatError):
            self.cfg(np.empty((3, 0)), 1.0)

    def test_dimension_mismatch_rejected(self):
        cfg = self.cfg([[0.0, 1.0]], 1.0)
        with pytest.raises(ValueError):
            kernel_matrix(np.array([[1.0]]), cfg)

    def test_sample_anchors_rows_come_from_dataset(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(25, 3)))
        anchors = sample_anchors(ds, 10, seed=2)
        assert anchors.shape == (10, 3)
        present = {tuple(row) for row in ds.features}
        assert all(tuple(row) in present for row in anchors)


# Dimensions for the cdist equalities, and row counts that cover one query
# row, a partial block and more than one block (not a multiple of it).
DIST_DIMS = [1, 2, 8, 17, 64]
DIST_ROWS = [1, 40, _BLOCK_ROWS + 77]


class TestDistancesMatchCdist:
    @pytest.mark.parametrize("d", DIST_DIMS)
    def test_sq_distances(self, d):
        rng = np.random.default_rng(d)
        anchors = rng.normal(size=(37, d))
        for n in DIST_ROWS:
            points = rng.normal(scale=3.0, size=(n, d))
            got = _sq_distances(points, anchors)
            assert np.array_equal(got, cdist(points, anchors, "sqeuclidean"))
            assert np.array_equal(np.sqrt(got), cdist(points, anchors))

    @pytest.mark.parametrize("d", DIST_DIMS)
    def test_kernel_matrix(self, d):
        rng = np.random.default_rng(100 + d)
        anchors = rng.normal(size=(37, d))
        bandwidth = 0.7 * math.sqrt(d)
        for n in DIST_ROWS:
            points = rng.normal(size=(n, d))
            got = kernel_matrix(points, KernelConfig(anchors, bandwidth))
            assert np.array_equal(got, oracle.cdist_kernel_matrix(points, anchors, bandwidth))

    @pytest.mark.parametrize("d", DIST_DIMS)
    def test_bandwidth(self, d):
        # Several seeds and k: an unsorted k-slice sums in another order,
        # which moves the last bit of the mean on some of these cases.
        for seed in range(3):
            ds = generate_clusters(_BLOCK_ROWS + 77, 10, d, 0.3, seed=d + 1000 * seed)
            for k in (1, 100, 300, ds.n - 1):
                want = oracle.cdist_bandwidth(ds.features, 1.3, k)
                assert rbf_bandwidth(ds, 1.3, k) == want

    @pytest.mark.parametrize("d", DIST_DIMS)
    def test_distance_supervision(self, d):
        ds = generate_clusters(_BLOCK_ROWS + 77, 10, d, 0.3, seed=200 + d)
        for percentile in (5.0, 50.0):
            sup = supervision_from_distance(ds, percentile, 20, seed=d)
            want = oracle.cdist_distance_labels(ds.features, percentile, sup.i, sup.j)
            assert np.array_equal(sup.y, want)
