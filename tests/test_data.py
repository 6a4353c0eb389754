import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from tshash.data import (
    DataFormatError,
    Dataset,
    EmptyDatasetError,
    KernelConfig,
    PairSupervision,
    generate_clusters,
    kernel_matrix,
    load_dataset,
    rbf_bandwidth,
    sample_anchors,
    supervision_from_distance,
    supervision_from_labels,
    _BANDWIDTH_NEIGHBORS,
    _BLOCK_ENTRIES,
    _load_fast,
    _parse_rows,
    _row_blocks,
    _sample_partners,
    _self_distance_blocks,
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
        # float() reads "1_000" as 1000; the format has no digit separators.
        for cell in ("zap", "1_000", "1_0.5", "1e1_0"):
            with pytest.raises(DataFormatError, match=f"non-numeric cell '{cell}' in row 2"):
                load_dataset(write(tmp_path, f"1.0,2.0\n1.0,{cell}\n"))
            with pytest.raises(DataFormatError, match=f"non-numeric cell '{cell}' in row 1"):
                load_dataset(write(tmp_path, f"{cell},2.0,0\n"), has_labels=True)

    def test_non_integer_label_rejected(self, tmp_path):
        # int() reads "1_0" as 10.
        for label in ("0.5", "1_0"):
            with pytest.raises(DataFormatError, match=f"non-integer label '{label}' in row 2"):
                load_dataset(write(tmp_path, f"1.0,0\n1.0,{label}\n"), has_labels=True)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(write(tmp_path, "1.0,nan\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            load_dataset(write(tmp_path, "\n\n"))

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1.0,2.0\n\n3.0,4.0\n"))
        assert ds.n == 2

    def test_label_outside_int64_rejected(self, tmp_path):
        assert load_dataset(write(tmp_path, "1.0,9223372036854775807\n"), True).labels[0] == 2**63 - 1
        for label in ("9223372036854775808", "-9223372036854775809"):
            with pytest.raises(DataFormatError, match=f"label '{label}' outside int64 in row 2"):
                load_dataset(write(tmp_path, f"1.0,0\n1.0,{label}\n"), has_labels=True)

    def test_empty_file_is_its_own_error(self, tmp_path):
        for text in ("", "\n \t\n", "\r\n\u00a0\n"):
            with pytest.raises(EmptyDatasetError):
                load_dataset(write(tmp_path, text))


# Inputs on which load_dataset must match _parse_rows, the row-by-row parser.
EDGE_INPUTS = [
    b"1,3.0\n", b"1,1e3\n", b"1,1_0\n", b"1,5.\n", b"1,-0\n",
    b"1_000,2\n", b"0x10,2\n", b"nan,1\n", b"inf,1\n", b"-inf,1\n", b"1e999,1\n", b"-1e999,1\n",
    b"1,2\x0c\n", b"1,2\x00\n", b"1 2,3\n", b"1,2\n   \n3,4\n", b"1,2\n\t\n3,4\n",
    b"1,2\n3\n", b"1,2\n3,4,5\n", b"1,2,\n", b"1,2,\n3,4,\n", b"1,,2\n", b",\n", b"1,2\n,\n",
    b"#1,2\n", b"1,2\n#c\n", b"1,2#c\n", b'"1",2\n', b"1,'2'\n",
    b"\xef\xbb\xbf1,2\n", b"1,\xff\n", b"1,2\n\xc3\x28,1\n",
    "١,2\n".encode(), "1,١\n".encode(), "1\u00a0,2\n".encode(), "1,2\u2028\n".encode(),
    b"1,9223372036854775808\n", b"1,-9223372036854775809\n",
    b"-0.0,0.0\n-0.0,-0\n",
    b"5e-324,2.2250738585072014e-308\n4.9406564584124654e-324,-1e-310\n",
    b"0.30000000000000004,0.1\n1.7976931348623157e+308,-2.718281828459045\n",
    b"+1,-2\n.5,5.\n", b"1e,2\n", b"--1,2\n", b"1e5,1E-5\n", b"+.5e+1,-.5E-1\n",
    b"1\n2\n3\n", b"7", b"", b"\n \n\t\n",
]

# Valid ASCII inputs that the np.loadtxt read must take itself, with and
# without labels, and on which it too must match _parse_rows.
FAST_INPUTS = [
    b"1.0,2.0,3\n4.0,5.0,6\n", b" 1 , 2 \n", b"\t1\t,\t2 \n", b"1,2\n\n3,4\n", b"\n\n1,2\n\n",
    b"1,2\r\n3,4\r\n", b"1,2\r3,4\r", b"1,2\r\n\r\n3,4", b"1,9223372036854775807\n",
    b"1,-9223372036854775808\n", b"-0.0,0.0,-0\n-0.0,-0,0\n",
    b"5e-324,2.2250738585072014e-308,1\n4.9406564584124654e-324,-1e-310,2\n",
    b"0.30000000000000004,0.1,3\n1.7976931348623157e+308,-2.718281828459045,4\n",
    b"1,+7\n", b"1,007\n", b"1e5,1E-5,5\n", b"+.5e+1,-5\n", b"7,3\n", b"7,3",
]

ODD_CELLS = [
    "", " ", "1_0", "0x10", "nan", "inf", "-inf", "1e999", "3.0", "1e3", "#", '"1"', "'1'",
    "١", "\ufeff1", "1\u00a0", "+", "-", ".", "1e", "e1", "--1", "1 2", "١٢", "0b1",
    "9223372036854775808", "-9223372036854775809", "1,", "\x0c1",
]


def random_cell(rng):
    r = rng.random()
    if r < 0.45:
        value = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-320, 300))
        cell = repr(value)
    elif r < 0.85:
        cell = str(int(rng.integers(-(2**63), 2**63 - 1, endpoint=True)) >> int(rng.integers(0, 64)))
    else:
        cell = ODD_CELLS[int(rng.integers(len(ODD_CELLS)))]
    if rng.random() < 0.1:
        cell = " " * int(rng.integers(1, 3)) + cell + "\t" * int(rng.integers(0, 2))
    return cell


def random_csv(rng) -> bytes:
    width = int(rng.integers(1, 5))
    lines = []
    for _ in range(int(rng.integers(0, 7))):
        if rng.random() < 0.1:
            lines.append(" " * int(rng.integers(0, 3)))
            continue
        w = width if rng.random() < 0.9 else int(rng.integers(1, 6))
        lines.append(",".join(random_cell(rng) for _ in range(w)))
    end = ["\n", "\r\n", "\r"][int(rng.integers(3))]
    return (end.join(lines) + (end if rng.random() < 0.8 else "")).encode()


def matches_row_parser(path, has_labels) -> bool:
    """Check load_dataset against _parse_rows on one file; True if the fast read took it.

    Where _parse_rows raises, load_dataset raises the same type and text;
    otherwise both return the same features bit for bit and the same labels.
    """
    fast = _load_fast(path, has_labels)
    try:
        want = _parse_rows(path, has_labels)
    except Exception as exc:
        assert fast is None
        with pytest.raises(type(exc)) as got:
            load_dataset(path, has_labels)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return False
    for ds in [load_dataset(path, has_labels)] + ([fast] if fast is not None else []):
        assert ds.features.dtype == np.float64 and ds.features.shape == want.features.shape
        assert np.array_equal(ds.features.view(np.uint64), want.features.view(np.uint64))
        if has_labels:
            assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, want.labels)
        else:
            assert ds.labels is None
    return fast is not None


class TestFastReadMatchesRowParser:
    @pytest.mark.parametrize("has_labels", [False, True])
    @pytest.mark.parametrize("raw", EDGE_INPUTS)
    def test_edge_inputs(self, tmp_path, raw, has_labels):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        matches_row_parser(str(path), has_labels)

    @pytest.mark.parametrize("has_labels", [False, True])
    @pytest.mark.parametrize("raw", FAST_INPUTS)
    def test_plain_files_take_the_fast_read(self, tmp_path, monkeypatch, raw, has_labels):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        assert matches_row_parser(str(path), has_labels)
        monkeypatch.setattr("tshash.data._parse_rows", None)  # load_dataset must not need it
        load_dataset(str(path), has_labels)

    def test_random_inputs(self, tmp_path):
        rng = np.random.default_rng(1212)
        path = tmp_path / "data.csv"
        fast = 0
        for _ in range(400):
            raw = random_csv(rng)
            path.write_bytes(raw)
            for has_labels in (False, True):
                try:
                    fast += matches_row_parser(str(path), has_labels)
                except AssertionError as exc:
                    raise AssertionError(f"{raw!r}, has_labels={has_labels}") from exc
        assert fast >= 50  # the fast read took a share of the random files (116 of 800 here)


class TestDataset:
    def test_rejects_non_finite_features(self):
        with pytest.raises(DataFormatError):
            Dataset(np.array([[np.inf, 1.0]]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataFormatError):
            Dataset(np.ones((3, 2)), labels=np.array([0, 1]))

    # Labels obey PairSupervision's id rule: 0.5 must not read as class 0.
    @pytest.mark.parametrize("labels", [[0.5, 1], [0, float("inf")], [True, False]])
    def test_rejects_non_integral_labels(self, labels):
        with pytest.raises(DataFormatError, match="labels must be integers"):
            Dataset(np.ones((2, 2)), labels=labels)

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

    @pytest.mark.parametrize("spread", [-0.1, math.inf, math.nan])
    def test_negative_or_non_finite_spread_rejected(self, spread):
        with pytest.raises(ValueError, match="spread must be finite and >= 0"):
            generate_clusters(10, 2, 2, spread, seed=0)

    def test_deterministic(self):
        a = generate_clusters(50, 2, 3, 0.2, seed=9)
        b = generate_clusters(50, 2, 3, 0.2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestPairSupervision:
    def test_entries_stored_canonically(self):
        sup = PairSupervision(4, [0, 1.0], np.array([2.0, 3.0]), [1, -1])
        assert pair_values(sup) == {(0, 2): 1.0, (1, 3): -1.0}
        assert [a.dtype for a in sup.arrays()] == [np.int64, np.int64, np.float64]
        assert not any(a.flags.writeable for a in sup.arrays())
        assert len(PairSupervision(4)) == 0

    def test_int64_ids_held_as_given(self):
        i, j = np.array([0, 1]), np.array([2, 3])
        sup = PairSupervision(4, i, j, [1.0, -1.0])
        assert sup.arrays()[0] is i and sup.arrays()[1] is j

    def test_rejects_self_pair(self):
        with pytest.raises(DataFormatError, match="i < j"):
            PairSupervision(3, [1], [1], [1.0])

    # Pair ids were once cast to int64 unchecked: 0.5 read as 0, True as 1.
    @pytest.mark.parametrize("entries", [
        ([0.5], [2], [1.0]), ([1.9], [2.2], [-1.0]), ([0, float("inf")], [1, 2], [1.0, 1.0]),
    ])
    def test_rejects_non_integral_ids(self, entries):
        with pytest.raises(DataFormatError, match="integers"):
            PairSupervision(3, *entries)

    def test_rejects_conflicting_duplicates(self):
        with pytest.raises(DataFormatError, match="duplicate pair"):
            PairSupervision(3, [0, 0], [1, 1], [1.0, -1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataFormatError, match="out of range"):
            PairSupervision(2, np.array([0]), np.array([5]), np.array([1.0]))

    # bre would read y = 0 as dissimilar, ksh as s -> 0, ee, exph and splh as a constant.
    def test_rejects_zero_affinity(self):
        for zero in (0.0, -0.0):
            with pytest.raises(DataFormatError, match=r"-1 or \+1"):
                PairSupervision(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, zero]))

    # bre and ee once read only the sign of y, while ksh, splh and exph scaled by it.
    @pytest.mark.parametrize("y", [0.5, -2.0, 3.0])
    def test_rejects_affinity_other_than_a_sign(self, y):
        with pytest.raises(DataFormatError, match=r"-1 or \+1"):
            PairSupervision(3, [0, 1], [1, 2], [1.0, y])

    def test_integer_affinities_stored_as_float(self):
        y = PairSupervision(3, [0, 1], [1, 2], [1, -1]).arrays()[2]
        assert y.dtype == np.float64 and y.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("n, i, j, y, labels, match", [
        pytest.param(3, [2], [1], [1.0], None, "i < j", id="i-above-j"),
        pytest.param(3, [0, 0], [1, 1], [1.0, 1.0], None, "duplicate pair", id="same-value-duplicate"),
        pytest.param(3, [-1], [1], [1.0], None, "out of range", id="negative-id"),
        pytest.param(3, [0, 1], [1, 2], [1.0], None, "equal length", id="short-y"),
        pytest.param(3, [0], [1, 2], [1.0, 1.0], None, "equal length", id="short-i"),
        pytest.param(3, [0], [1], [float("nan")], None, r"-1 or \+1", id="nan"),
        pytest.param(3, [0], [1], [float("inf")], None, r"-1 or \+1", id="inf"),
        pytest.param(3, [0], [1], [-float("inf")], None, r"-1 or \+1", id="-inf"),
        pytest.param(3, [True], [2], [1.0], None, "integers, not booleans", id="boolean-id"),
        pytest.param(3, (), (), (), [0.5, 1, 2], "labels must be integers", id="fractional-label"),
        pytest.param(3, (), (), (), [0, float("nan"), 1], "labels must be integers", id="nan-label"),
        pytest.param(3, (), (), (), [True, False, True], "not booleans", id="boolean-labels"),
        # Ids past int64 once wrapped to negative values.
        pytest.param(3, np.array([0], dtype=np.uint64), np.array([2**64 - 1], dtype=np.uint64), [1.0], None,
                     "int64 range", id="uint64-id-past-int64"),
        pytest.param(3, [0], [1e19], [1.0], None, "int64 range", id="float-id-past-int64"),
        pytest.param(3, [0], [2**70], [1.0], None, "int64 range", id="object-id-past-int64"),
        pytest.param(3, (), (), (), np.array([0, 2**63, 1], dtype=np.uint64), "int64 range",
                     id="uint64-label-past-int64"),
    ])
    def test_constructor_rejects(self, n, i, j, y, labels, match):
        with pytest.raises(DataFormatError, match=match):
            PairSupervision(n, i, j, y, labels)


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
        got = {(int(a), int(b), float(v)) for a, b, v in zip(*sup.arrays())}
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
        for a, b, v in zip(*sup.arrays()):
            assert (v == 1.0) == (ds.labels[a] == ds.labels[b])

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(30, 2)), labels=rng.integers(0, 3, size=30))
        a = supervision_from_labels(ds, 4, seed=11)
        b = supervision_from_labels(ds, 4, seed=11)
        for got, want in zip(a.arrays(), b.arrays()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_labels_kept_only_on_all_pairs(self, n):
        ds = Dataset(np.zeros((n, 1)), labels=np.arange(n) % 2)
        full = supervision_from_labels(ds, max(n - 1, 1), seed=0)
        assert np.array_equal(full.labels, ds.labels)
        if n > 2:
            assert supervision_from_labels(ds, 1, seed=0).labels is None


def held_pair_bytes(sup):
    """Bytes of the arrays a supervision keeps, its labels aside."""
    held = [v for v in vars(sup).values() if v is not sup.labels]
    arrays = [a for v in held for a in (v if isinstance(v, tuple) else (v,))]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


class TestLabelledPairSupervision:
    def full(self, labels):
        n = len(labels)
        i, j = np.triu_indices(n, 1)
        y = np.where(np.equal(labels[i], labels[j]), 1.0, -1.0)
        return n, i, j, y

    def test_accepts_consistent_labels(self):
        labels = np.array([3, 1, 3, 2])
        sup = PairSupervision(4, labels=labels)
        assert np.array_equal(sup.labels, labels) and not sup.labels.flags.writeable

    def test_rejects_wrong_label_count(self):
        with pytest.raises(DataFormatError, match="one entry per point"):
            PairSupervision(3, labels=np.array([0, 1]))

    # The label form is every pair with y from the labels; entries given
    # beside the labels are refused whether or not they agree with them.
    @pytest.mark.parametrize("case", ["agreeing", "missing-pair", "disagreeing"])
    def test_rejects_labels_with_entries(self, case):
        labels = np.array([0, 1, 0])
        n, i, j, y = self.full(labels)
        if case == "missing-pair":
            i, j, y = i[1:], j[1:], y[1:]
        elif case == "disagreeing":
            y = -y
        with pytest.raises(DataFormatError, match="not both"):
            PairSupervision(n, i, j, y, labels)

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_builds_pairs_on_demand(self, n):
        labels = np.random.default_rng(n).integers(0, 3, size=n)
        sup = supervision_from_labels(Dataset(np.zeros((n, 1)), labels), max(n - 1, 1), seed=0)
        _, i, j, y = self.full(labels)
        assert len(sup) == n * (n - 1) // 2
        got = sup.arrays()
        assert [a.tolist() for a in got] == [i.tolist(), j.tolist(), y.tolist()]
        assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
        assert held_pair_bytes(sup) == 0

    def test_full_pairs_skip_partner_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("partners sampled for full supervision")

        monkeypatch.setattr("tshash.data._sample_partners", refuse)
        ds = Dataset(np.zeros((5, 1)), labels=np.array([0, 1, 0, 2, 1]))
        assert len(supervision_from_labels(ds, 4, seed=0)) == 10


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
        assert np.all(sup.arrays()[2] == 1.0)

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
        for a, b, v in zip(*sup.arrays()):
            expect = 1.0 if dist[a, b] <= max(cut[a], cut[b]) else -1.0
            assert v == expect


class TestBandwidth:
    def test_two_point_example(self):
        assert rbf_bandwidth(Dataset(np.array([[0.0], [1.0]])), 1.0) == 1.0

    def test_three_point_example(self):
        # neighbour distances (1, 2), (1, 1) and (1, 2): mean 4/3, times t = 2
        got = rbf_bandwidth(Dataset(np.array([[0.0], [1.0], [2.0]])), 2.0)
        assert got == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_degenerate_points_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            rbf_bandwidth(Dataset(np.zeros((4, 2))), 1.0)

    # A NaN or infinite t once passed and failed only later, in KernelConfig.
    @pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_t_not_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            rbf_bandwidth(Dataset(np.array([[0.0], [1.0]])), t)

    def test_linear_in_t(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(30, 4)))
        lo = rbf_bandwidth(ds, 0.7)
        hi = rbf_bandwidth(ds, 1.4)
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_k_clamped_to_available_neighbors(self):
        # k = 100 clamps to n - 1 = 2: distances (3, 7), (3, 4) and (4, 7)
        ds = Dataset(np.array([[0.0], [3.0], [7.0]]))
        assert rbf_bandwidth(ds, 1.0) == pytest.approx(14.0 / 3.0, abs=1e-12)


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

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_non_positive_or_non_finite_bandwidth_rejected(self, sigma):
        with pytest.raises(DataFormatError, match="bandwidth must be positive and finite"):
            self.cfg([[0.0, 1.0]], sigma)

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


# Dimensions for the cdist equalities, and row counts from one row to more
# than one self-distance block (333 rows come in blocks of 196 and 137).
DIST_DIMS = [1, 2, 8, 17, 64]
DIST_ROWS = [1, 40, 333]
# Kernel values lie in (0, 1]: 16 units of roundoff at 1.
KERNEL_ATOL = 16 * np.finfo(np.float64).eps


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

    @pytest.mark.parametrize("d", DIST_DIMS + [320])
    def test_kernel_matrix(self, d):
        # The features come from a matrix product about the anchors' mean,
        # so they match cdist's to rounding, also far from the origin: the
        # largest error measured on these cases is 1.2e-15 (d=1). Without
        # the centring, the offset of 1e3 gives errors up to 6.4e-10 and
        # that of 1e6 up to 6.9e-4 (d=320).
        rng = np.random.default_rng(100 + d)
        anchors = rng.normal(size=(37, d))
        bandwidth = 0.7 * math.sqrt(d)
        for n in DIST_ROWS:
            points = rng.normal(size=(n, d))
            for offset in (0.0, 1e3, 1e6):
                cfg = KernelConfig(anchors + offset, bandwidth)
                got = kernel_matrix(points + offset, cfg)
                want = oracle.cdist_kernel_matrix(points + offset, cfg.anchors, bandwidth)
                assert np.abs(got - want).max() <= KERNEL_ATOL

    @pytest.mark.parametrize("d", DIST_DIMS)
    def test_bandwidth(self, d):
        # Several seeds and sizes, so that k = min(100, n - 1) takes both
        # values: an unsorted k-slice sums in another order, which moves the
        # last bit of the mean on some of these cases.
        for seed in range(3):
            for n in (11, 101, 102, 333):
                ds = generate_clusters(n, 10, d, 0.3, seed=d + 1000 * seed + n)
                want = oracle.cdist_bandwidth(ds.features, 1.3, min(_BANDWIDTH_NEIGHBORS, n - 1))
                assert rbf_bandwidth(ds, 1.3) == want

    @pytest.mark.parametrize("d", DIST_DIMS)
    def test_distance_supervision(self, d):
        ds = generate_clusters(333, 10, d, 0.3, seed=200 + d)
        for percentile in (5.0, 50.0):
            sup = supervision_from_distance(ds, percentile, 20, seed=d)
            i, j, y = sup.arrays()
            assert np.array_equal(y, oracle.cdist_distance_labels(ds.features, percentile, i, j))


def coincident_points(n, d=3, seed=0):
    """n points on 3 distinct sites: zero distances, and ties at every cutoff."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(3, d))[np.arange(n) % 3]


@pytest.mark.parametrize("n, width", [(1, 1), (10, 1 << 13), (16, 1 << 13), (20, 1 << 13), (50_000, 150)])
def test_row_blocks_tile_the_rows(n, width):
    # Full blocks of _BLOCK_ENTRIES // width rows in order, then a ragged one
    # (10 and 20 rows in blocks of 8; 50,000 in blocks of 436).
    step = _BLOCK_ENTRIES // width
    blocks = list(_row_blocks(n, width))
    assert [k for rows in blocks for k in range(n)[rows]] == list(range(n))
    assert [rows.stop - rows.start for rows in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 1 <= blocks[-1].stop - blocks[-1].start <= step


def test_row_blocks_edges():
    # A row wider than the budget still goes one row a block; no rows, no blocks.
    assert list(_row_blocks(3, _BLOCK_ENTRIES + 1)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert list(_row_blocks(0, 5)) == []


class TestDistanceBlocks:
    """Blocks of 1 to 3 rows, with a ragged last block, against a full cdist."""

    @pytest.fixture(params=[1, 2, 3])
    def rows(self, request, monkeypatch):
        def set_rows(n):
            # One row a block comes from a budget below n, as at n > 2**16.
            budget = request.param * n if request.param > 1 else 1
            monkeypatch.setattr("tshash.data._BLOCK_ENTRIES", budget)
            return request.param

        return set_rows

    @pytest.mark.parametrize("n", [2, 11])
    def test_blocks_tile_the_distance_matrix(self, rows, n):
        x = np.random.default_rng(n).normal(size=(n, 3))
        step = rows(n)
        blocks = list(_self_distance_blocks(x))
        assert [start for start, _ in blocks] == list(range(0, n, step))
        want = cdist(x, x)
        np.fill_diagonal(want, np.inf)
        assert np.array_equal(np.vstack([block for _, block in blocks]), want)

    @pytest.mark.parametrize("n", [2, 3, 11, 101, 102])
    @pytest.mark.parametrize("coincident", [False, True], ids=["random", "coincident"])
    def test_bandwidth(self, rows, n, coincident):
        # Up to n = 101, k = n - 1: every finite column of a row is a neighbour.
        x = coincident_points(n) if coincident else np.random.default_rng(n).normal(size=(n, 3))
        rows(n)
        want = oracle.cdist_bandwidth(x, 1.3, min(_BANDWIDTH_NEIGHBORS, n - 1))
        assert rbf_bandwidth(Dataset(x), 1.3) == want

    @pytest.mark.parametrize("n", [2, 11, 40])
    @pytest.mark.parametrize("coincident", [False, True], ids=["random", "coincident"])
    def test_distance_supervision(self, rows, n, coincident):
        x = coincident_points(n) if coincident else np.random.default_rng(n).normal(size=(n, 3))
        step = rows(n)
        last_start = (n - 1) // step * step
        ds = Dataset(x)
        for ppp in sorted({1, 3, n - 1} & set(range(1, n))):
            # 99.9 puts the cutoff at the last finite column of each row.
            for percentile in (2.0, 30.0, 99.9):
                sup = supervision_from_distance(ds, percentile, ppp, seed=n + ppp)
                i, j, y = sup.arrays()
                assert np.array_equal(y, oracle.cdist_distance_labels(x, percentile, i, j))
        # All pairs: the last block holds rows with partners whenever it has two rows.
        if n - last_start >= 2:
            assert i.max() >= last_start
