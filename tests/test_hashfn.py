import json

import numpy as np
import pytest

from tshash import hashfn
from tshash.codegen import CodeMatrix
from tshash.data import Dataset, KernelConfig, kernel_matrix
from tshash.hashfn import (
    ClassifierConfig,
    HashModel,
    ModelFormatError,
    encode,
    hinge_objective,
    load_model,
    save_model,
    train_bit_classifier,
    train_model,
)
from tshash.packed import pack_signs

import oracle

XOR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_COLUMN = np.array([-1.0, 1.0, 1.0, -1.0])


def signs(w, b, feats):
    """One hash's +1/-1 outputs, with sign(0) = +1."""
    return np.where(feats @ w + b >= 0.0, 1, -1).astype(np.int8)


class TestTrainBitClassifier:
    def test_two_point_1d_separation(self):
        feats = np.array([[-1.0], [1.0]])
        column = np.array([-1.0, 1.0])
        w, b, _ = train_bit_classifier(feats, column, ClassifierConfig(seed=0))
        assert np.array_equal(signs(w, b, feats), column.astype(np.int8))

    def test_constant_column_shortcut(self):
        feats = np.random.default_rng(0).normal(size=(3, 2))
        w, b, constant = train_bit_classifier(feats, np.ones(3), ClassifierConfig(seed=0))
        assert constant
        assert np.array_equal(w, np.zeros(2)) and b == 1.0
        w, b, constant = train_bit_classifier(feats, -np.ones(3), ClassifierConfig(seed=0))
        assert constant and np.array_equal(w, np.zeros(2)) and b == -1.0

    def test_xor_raw_features_not_separable(self):
        w, b, constant = train_bit_classifier(XOR_POINTS, XOR_COLUMN, ClassifierConfig(seed=1))
        assert not constant
        acc = np.mean(signs(w, b, XOR_POINTS) == XOR_COLUMN)
        assert acc < 1.0

    def test_xor_separable_in_kernel_space(self):
        kcfg = KernelConfig(XOR_POINTS.copy(), 0.5)
        feats = kernel_matrix(XOR_POINTS, kcfg)
        w, b, _ = train_bit_classifier(feats, XOR_COLUMN, ClassifierConfig(seed=1))
        assert np.mean(signs(w, b, feats) == XOR_COLUMN) == 1.0

    def test_rejects_non_sign_column(self):
        with pytest.raises(ValueError):
            train_bit_classifier(np.ones((2, 1)), np.array([1.0, 0.5]), ClassifierConfig())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            train_bit_classifier(np.ones((3, 1)), np.ones(2), ClassifierConfig())

    @pytest.mark.parametrize("c", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_non_positive_or_non_finite_c_rejected(self, c):
        # c = inf would make the L2 coefficient 1 / (c * n) zero, and SGD divide by it.
        with pytest.raises(ValueError, match="c must be positive and finite"):
            ClassifierConfig(c=c)

    def test_objective_beats_zero_baseline(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n, p = 80, 4
            feats = rng.normal(size=(n, p))
            column = np.where(feats @ rng.normal(size=p) + rng.normal(scale=2.0, size=n) >= 0, 1.0, -1.0)
            if np.all(column == column[0]):
                continue
            cfg = ClassifierConfig(seed=trial)
            w, b, _ = train_bit_classifier(feats, column, cfg)
            reg = 1.0 / ((1000.0 / n) * n)
            trained = hinge_objective(feats, column, w, b, reg)
            baseline = hinge_objective(feats, column, np.zeros(p), 0.0, reg)
            assert trained <= baseline + 1e-12

    def test_separability_guarantee_margin_tenth(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n, p = 150, 5
            w_true = rng.normal(size=p)
            w_true /= np.linalg.norm(w_true)
            feats = rng.normal(size=(n, p))
            raw = feats @ w_true
            keep = np.abs(raw) >= 0.1
            feats, raw = feats[keep], raw[keep]
            column = np.where(raw >= 0, 1.0, -1.0)
            w, b, _ = train_bit_classifier(feats, column, ClassifierConfig(seed=trial))
            assert np.mean(signs(w, b, feats) == column) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(40, 3))
        column = np.where(feats[:, 0] >= 0, 1.0, -1.0)
        wa, ba, _ = train_bit_classifier(feats, column, ClassifierConfig(seed=9))
        wb, bb, _ = train_bit_classifier(feats, column, ClassifierConfig(seed=9))
        assert np.array_equal(wa, wb) and ba == bb


def small_model(seed=0, mode="raw", n=60, m=4, constant_bit=False):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    planes = rng.normal(size=(3, m))
    planes /= np.linalg.norm(planes, axis=0)
    scores = points @ planes
    # keep only points with a clear margin so every column is learnable
    points = points[np.min(np.abs(scores), axis=1) >= 0.15]
    ds = Dataset(points)
    bits = np.where(points @ planes >= 0, 1, -1).astype(np.int8)
    if constant_bit:
        bits = np.insert(bits, 1, -1, axis=1)
    codes = CodeMatrix(bits)
    kcfg = None
    if mode == "kernel":
        kcfg = KernelConfig(ds.features[:8].copy(), 1.0)
    model = train_model(ds, codes, mode, kcfg, ClassifierConfig(seed=seed + 1))
    return ds, codes, model


def bit_seed(seed, k):
    """The per-bit seed train_model derives from the classifier seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(1)[0])


class TestTrainModel:
    def test_single_bit_reduces_to_bit_classifier(self):
        rng = np.random.default_rng(13)
        ds = Dataset(rng.normal(size=(20, 2)))
        bits = np.where(ds.features[:, :1] >= 0, 1, -1).astype(np.int8)
        ccfg = ClassifierConfig(seed=5)
        model = train_model(ds, CodeMatrix(bits), "raw", None, ccfg)
        w, b, constant = train_bit_classifier(ds.features, bits[:, 0].astype(float),
                                              ClassifierConfig(seed=bit_seed(5, 0)))
        assert np.array_equal(model.weights[:, 0], w)
        assert model.biases[0] == b and model.constant[0] == constant

    def test_each_bit_equals_its_solo_classifier(self):
        ds, codes, _ = small_model(seed=17, constant_bit=True)
        assert codes.m == 5
        model = train_model(ds, codes, "raw", None, ClassifierConfig(seed=3))
        assert model.constant.tolist() == [False, True, False, False, False]
        for k in range(model.m):
            w, b, constant = train_bit_classifier(ds.features, codes.bits[:, k].astype(float),
                                                  ClassifierConfig(seed=bit_seed(3, k)))
            assert np.array_equal(model.weights[:, k], w) and model.biases[k] == b
            assert model.constant[k] == constant

    @pytest.mark.parametrize("epochs", [1, 5])
    @pytest.mark.parametrize("m", [1, 4, 9])
    @pytest.mark.parametrize("n", [2, 40, 150])
    @pytest.mark.parametrize("small_c", [False, True])
    def test_lockstep_matches_per_sample_oracle(self, n, m, epochs, small_c):
        rng = np.random.default_rng(1000 * n + 10 * m + epochs)
        ds = Dataset(rng.normal(size=(n, 5)))
        bits = np.where(rng.random((n, m)) < 0.5, 1, -1).astype(np.int8)
        bits[0, :] = 1
        bits[1, :] = -1  # all m columns hold both signs; one constant column joins them
        bits = np.insert(bits, m // 2, 1, axis=1)
        c = 0.5 / n if small_c else None  # c * n < 1 gives t0 < 1
        ccfg = ClassifierConfig(c=c, epochs=epochs, seed=n + m)
        model = train_model(ds, CodeMatrix(bits), "raw", None, ccfg)
        assert model.weights.shape == (5, m + 1)
        for k in range(model.m):
            column = bits[:, k].astype(float)
            if k == m // 2:
                assert model.constant[k] and np.all(model.weights[:, k] == 0.0) and model.biases[k] == 1.0
                continue
            w, b = oracle.hinge_sgd(ds.features, column, c, epochs, bit_seed(ccfg.seed, k))
            assert not model.constant[k]
            np.testing.assert_allclose(model.weights[:, k], w, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(model.biases[k], b, rtol=1e-9, atol=0.0)
            assert np.array_equal(signs(model.weights[:, k], model.biases[k], ds.features),
                                  signs(w, b, ds.features))

    def test_rejects_row_count_mismatch(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.normal(size=(5, 2)))
        codes = CodeMatrix(np.ones((4, 2), dtype=np.int8))
        with pytest.raises(ValueError):
            train_model(ds, codes, "raw", None, ClassifierConfig())

    def test_kernel_config_checked_before_training(self, monkeypatch):
        rng = np.random.default_rng(20)
        ds = Dataset(rng.normal(size=(6, 2)))
        codes = CodeMatrix(np.where(rng.random((6, 3)) < 0.5, 1, -1).astype(np.int8))

        def no_fit(*args):
            raise AssertionError("SGD ran before the feature mode was checked")

        monkeypatch.setattr(hashfn, "_sgd_hinge", no_fit)
        for mode, kcfg in (("kernel", None), ("raw", KernelConfig(ds.features[:2].copy(), 1.0))):
            with pytest.raises(ValueError, match="kernel_cfg"):
                train_model(ds, codes, mode, kcfg, ClassifierConfig())
        with pytest.raises(ValueError, match="feature_mode"):
            train_model(ds, codes, "rbf", None, ClassifierConfig())

    def test_encode_train_consistency_on_learnable_columns(self):
        ds, codes, model = small_model(seed=23)
        out = encode(model, ds.features)
        assert np.array_equal(out.signs(), codes.bits)


class TestEncode:
    def test_direct_sign_application(self):
        model = HashModel(np.array([[1.0]]), [0.0], [False], "raw", 1)
        packed = encode(model, np.array([[-2.0], [3.0]]))
        assert packed.signs().ravel().tolist() == [-1, 1]

    def test_sign_zero_is_positive(self):
        model = HashModel(np.array([[1.0, -1.0]]), [0.0, 0.0], [False, False], "raw", 1)
        assert encode(model, np.array([[0.0]])).signs().tolist() == [[1, 1]]

    def test_scale_covariant_decision(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 3))
        b = np.array([0.3, -0.2, 0.0])
        pts = rng.normal(size=(50, 4))
        base = encode(HashModel(w, b, np.zeros(3, dtype=bool), "raw", 4), pts).words
        for alpha in (0.01, 3.0, 1e6):
            scaled = HashModel(alpha * w, alpha * b, np.zeros(3, dtype=bool), "raw", 4)
            assert np.array_equal(encode(scaled, pts).words, base)

    def test_idempotent(self):
        ds, _, model = small_model(seed=29)
        a = encode(model, ds.features)
        b = encode(model, ds.features)
        assert np.array_equal(a.words, b.words)

    def test_dimension_mismatch_rejected(self):
        ds, _, model = small_model(seed=31)
        with pytest.raises(ValueError):
            encode(model, np.ones((2, 9)))

    def test_kernel_mode_matches_manual_pipeline(self):
        ds, _, model = small_model(seed=37, mode="kernel")
        feats = kernel_matrix(ds.features, model.kernel_cfg)
        manual = np.stack([signs(model.weights[:, k], model.biases[k], feats) for k in range(model.m)], axis=1)
        assert np.array_equal(encode(model, ds.features).signs(), manual)

    @pytest.mark.parametrize("mode", ["raw", "kernel"])
    def test_row_blocks_match_the_whole_product(self, monkeypatch, mode):
        ds, _, trained = small_model(seed=53, mode=mode)
        # m=100 takes two code words. Its weights are random: few points clear a margin on 100 planes.
        rng = np.random.default_rng(100)
        weights, biases = rng.normal(size=(trained.weights.shape[0], 100)), rng.normal(size=100)
        wide = HashModel(weights, biases, np.zeros(100, dtype=bool), mode, trained.d, trained.kernel_cfg)
        rows = 3
        points = ds.features[: rows * (ds.n // rows) - 1]  # the last block has 2 rows
        for model in (trained, wide):
            monkeypatch.setattr("tshash.data._BLOCK_ENTRIES", rows * max(model.d, *model.weights.shape))
            scores = hashfn._feature_matrix(points, mode, model.kernel_cfg) @ model.weights + model.biases
            got = encode(model, points)
            assert np.array_equal(got.words, pack_signs(scores >= 0.0).words)
            assert np.array_equal(got.signs(), np.where(scores >= 0.0, 1, -1))
            for edge in (rows - 1, rows, len(points) - 1):
                assert np.array_equal(encode(model, points[edge : edge + 1]).words, got.words[edge : edge + 1])


class TestModelSerialization:
    def test_raw_round_trip_encodes_identically(self, tmp_path):
        ds, _, model = small_model(seed=41)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(encode(back, ds.features).words, encode(model, ds.features).words)
        assert np.array_equal(back.weights, model.weights) and back.weights.flags.c_contiguous
        assert np.array_equal(back.biases, model.biases)
        assert np.array_equal(back.constant, model.constant)

    @pytest.mark.parametrize("mode", ["raw", "kernel"])
    def test_resave_is_byte_identical(self, tmp_path, mode):
        _, _, model = small_model(seed=42, mode=mode, constant_bit=True)
        assert model.constant.tolist() == [False, True, False, False, False]
        path = tmp_path / "model.json"
        save_model(model, path)
        saved = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() == saved
        doc = json.loads(saved)
        assert doc["functions"][1] == {"w": [0.0] * model.weights.shape[0], "b": -1.0, "constant": True}
        assert [list(fn) for fn in doc["functions"]] == [["w", "b", "constant"]] * 5

    def test_kernel_round_trip(self, tmp_path):
        ds, _, model = small_model(seed=43, mode="kernel")
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.feature_mode == "kernel"
        assert back.kernel_cfg.bandwidth == model.kernel_cfg.bandwidth
        assert np.array_equal(back.kernel_cfg.anchors, model.kernel_cfg.anchors)
        assert np.array_equal(encode(back, ds.features).words, encode(model, ds.features).words)

    def test_truncated_file_is_corrupt(self, tmp_path):
        ds, _, model = small_model(seed=47)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[:40], encoding="utf-8")
        with pytest.raises(ModelFormatError, match="corrupt model"):
            load_model(path)

    def test_missing_key_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 1, "m": 1}), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        # A saved model with only "m" deleted passes every other read.
        _, _, model = small_model(seed=52)
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["m"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="'m'"):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        ds, _, model = small_model(seed=53)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_wrongly_typed_fields_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(HashModel(np.array([[1.0]]), [0.5], [False], "raw", 1), path)
        good = json.loads(path.read_text())
        bad_fields = (
            {"b": "0.5"}, {"b": True}, {"b": None}, {"b": [0.5]},
            {"w": ["1.0"]}, {"w": [True]}, {"w": [None]}, {"w": 1.0}, {"w": [[1.0]]}, {"w": "1"},
            {"constant": "false"}, {"constant": 0}, {"constant": None},
            {"w": [10**400]}, {"b": 10**400},  # integers past float64's range
        )
        for fields in bad_fields:
            doc = json.loads(json.dumps(good))
            doc["functions"][0].update(fields)
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ModelFormatError, match="corrupt model"):
                load_model(path)
        # Integers are JSON numbers too, and a missing "constant" reads as false.
        doc = json.loads(json.dumps(good))
        doc["functions"][0] = {"w": [2], "b": -1}
        path.write_text(json.dumps(doc), encoding="utf-8")
        model = load_model(path)
        assert model.weights.tolist() == [[2.0]] and model.biases.tolist() == [-1.0]
        assert model.constant.tolist() == [False]

    def test_wrongly_typed_header_fields_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        kcfg = KernelConfig(np.array([[0.0, 1.0], [2.0, 3.0]]), 1.5)
        save_model(HashModel(np.ones((2, 1)), [0.5], [False], "kernel", 2, kcfg), path)
        good = json.loads(path.read_text())
        bad_fields = (
            {"version": True}, {"version": 1.0}, {"version": "1"}, {"version": None},
            {"m": 1.0}, {"m": True}, {"m": "1"}, {"m": [1]},
            {"d": "2"}, {"d": 2.9}, {"d": 2.0}, {"d": False}, {"d": None},
            {"bandwidth": "1.5"}, {"bandwidth": True}, {"bandwidth": None}, {"bandwidth": [1.5]},
            {"anchors": [["0", "1"], ["2", "3"]]}, {"anchors": [[False, True], [True, True]]},
            {"anchors": [[0.0, None], [2.0, 3.0]]}, {"anchors": [0.0, 1.0]}, {"anchors": "[[0, 1]]"},
            {"anchors": [[[0.0], [1.0]], [[2.0], [3.0]]]},
        )
        for fields in bad_fields:
            doc = dict(good, **fields)
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ModelFormatError, match="corrupt model"):
                load_model(path)
        # Integer anchors and bandwidth are JSON numbers too.
        path.write_text(json.dumps(dict(good, anchors=[[0, 1], [2, 3]], bandwidth=2)), encoding="utf-8")
        model = load_model(path)
        assert model.kernel_cfg.anchors.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert model.kernel_cfg.bandwidth == 2 and model.d == 2 and type(model.d) is int

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_bandwidth_rejected(self, tmp_path, token):
        # Python's json reads these tokens as floats; an infinite bandwidth
        # would give every point the same code.
        path = tmp_path / "model.json"
        kcfg = KernelConfig(np.array([[0.0, 1.0], [2.0, 3.0]]), 1.5)
        save_model(HashModel(np.ones((2, 1)), [0.5], [False], "kernel", 2, kcfg), path)
        text = path.read_text()
        assert text.count('"bandwidth": 1.5') == 1
        path.write_text(text.replace('"bandwidth": 1.5', f'"bandwidth": {token}'), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="corrupt model .*bandwidth must be positive and finite"):
            load_model(path)

    def test_function_count_mismatch_rejected(self, tmp_path):
        ds, _, model = small_model(seed=59)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["m"] = 7
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestHashModelInvariants:
    def test_kernel_cfg_required_iff_kernel_mode(self):
        w, b, constant = np.zeros((2, 1)), [1.0], [True]
        with pytest.raises(ValueError):
            HashModel(w, b, constant, "kernel", 2, None)
        kcfg = KernelConfig(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            HashModel(w, b, constant, "raw", 2, kcfg)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError, match="p=2"):
            HashModel(np.zeros((3, 1)), [0.0], [True], "raw", 2)
        with pytest.raises(ValueError, match="p=2"):
            HashModel(np.zeros(2), [0.0], [True], "raw", 2)
        with pytest.raises(ValueError, match="at least one"):
            HashModel(np.zeros((2, 0)), [], [], "raw", 2)
        with pytest.raises(ValueError, match="m=2"):
            HashModel(np.zeros((2, 2)), [0.0], [True, True], "raw", 2)
        with pytest.raises(ValueError, match="m=2"):
            HashModel(np.zeros((2, 2)), [0.0, 0.0], [True], "raw", 2)

    def test_rejects_non_finite(self):
        for w, b in (([[np.inf]], [0.0]), ([[np.nan]], [0.0]), ([[1.0]], [np.inf]), ([[1.0]], [np.nan])):
            with pytest.raises(ValueError, match="finite"):
                HashModel(np.array(w), b, [False], "raw", 1)

    def test_arrays_are_read_only_and_c_ordered(self):
        model = HashModel(np.asfortranarray(np.ones((3, 2))), [0.0, 1.0], [False, False], "raw", 3)
        assert model.weights.flags.c_contiguous and model.m == 2
        for a in (model.weights, model.biases, model.constant):
            with pytest.raises(ValueError):
                a[0] = 0
