import json

import numpy as np
import pytest

from tshash.codegen import CodeMatrix
from tshash.data import Dataset, KernelConfig, kernel_matrix
from tshash.hashfn import (
    ClassifierConfig,
    HashModel,
    LinearHash,
    ModelFormatError,
    encode,
    hinge_objective,
    load_model,
    save_model,
    train_bit_classifier,
    train_model,
)

import oracle

XOR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_COLUMN = np.array([-1.0, 1.0, 1.0, -1.0])


class TestTrainBitClassifier:
    def test_two_point_1d_separation(self):
        feats = np.array([[-1.0], [1.0]])
        column = np.array([-1.0, 1.0])
        fn = train_bit_classifier(feats, column, ClassifierConfig(seed=0))
        assert np.array_equal(fn.apply(feats), column.astype(np.int8))

    def test_constant_column_shortcut(self):
        feats = np.random.default_rng(0).normal(size=(3, 2))
        fn = train_bit_classifier(feats, np.ones(3), ClassifierConfig(seed=0))
        assert fn.constant
        assert np.all(fn.w == 0.0) and fn.b == 1.0

    def test_xor_raw_features_not_separable(self):
        fn = train_bit_classifier(XOR_POINTS, XOR_COLUMN, ClassifierConfig(seed=1))
        acc = np.mean(fn.apply(XOR_POINTS) == XOR_COLUMN)
        assert acc < 1.0

    def test_xor_separable_in_kernel_space(self):
        kcfg = KernelConfig(XOR_POINTS.copy(), 0.5)
        feats = kernel_matrix(XOR_POINTS, kcfg)
        fn = train_bit_classifier(feats, XOR_COLUMN, ClassifierConfig(seed=1))
        assert np.mean(fn.apply(feats) == XOR_COLUMN) == 1.0

    def test_rejects_non_sign_column(self):
        with pytest.raises(ValueError):
            train_bit_classifier(np.ones((2, 1)), np.array([1.0, 0.5]), ClassifierConfig())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            train_bit_classifier(np.ones((3, 1)), np.ones(2), ClassifierConfig())

    def test_objective_beats_zero_baseline(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n, p = 80, 4
            feats = rng.normal(size=(n, p))
            column = np.where(feats @ rng.normal(size=p) + rng.normal(scale=2.0, size=n) >= 0, 1.0, -1.0)
            if np.all(column == column[0]):
                continue
            cfg = ClassifierConfig(seed=trial)
            fn = train_bit_classifier(feats, column, cfg)
            reg = 1.0 / ((1000.0 / n) * n)
            trained = hinge_objective(feats, column, fn.w, fn.b, reg)
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
            fn = train_bit_classifier(feats, column, ClassifierConfig(seed=trial))
            assert np.mean(fn.apply(feats) == column) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(40, 3))
        column = np.where(feats[:, 0] >= 0, 1.0, -1.0)
        a = train_bit_classifier(feats, column, ClassifierConfig(seed=9))
        b = train_bit_classifier(feats, column, ClassifierConfig(seed=9))
        assert np.array_equal(a.w, b.w) and a.b == b.b


class TestLinearHash:
    def test_sign_zero_is_positive(self):
        fn = LinearHash(np.array([1.0]), 0.0)
        assert fn.apply(np.array([[0.0]]))[0] == 1

    def test_scale_covariant_decision(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=4)
        b = 0.3
        pts = rng.normal(size=(50, 4))
        base = LinearHash(w, b).apply(pts)
        for alpha in (0.01, 3.0, 1e6):
            scaled = LinearHash(alpha * w, alpha * b).apply(pts)
            assert np.array_equal(base, scaled)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinearHash(np.array([np.inf]), 0.0)


def small_model(seed=0, mode="raw", n=60, m=4):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    planes = rng.normal(size=(3, m))
    planes /= np.linalg.norm(planes, axis=0)
    scores = points @ planes
    # keep only points with a clear margin so every column is learnable
    points = points[np.min(np.abs(scores), axis=1) >= 0.15]
    ds = Dataset(points)
    bits = np.where(points @ planes >= 0, 1, -1).astype(np.int8)
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
        solo = train_bit_classifier(ds.features, bits[:, 0].astype(float),
                                    ClassifierConfig(seed=bit_seed(5, 0)))
        assert np.array_equal(model.functions[0].w, solo.w)
        assert model.functions[0].b == solo.b

    def test_each_bit_equals_its_solo_classifier(self):
        ds, codes, _ = small_model(seed=17)
        assert codes.m == 4
        model = train_model(ds, codes, "raw", None, ClassifierConfig(seed=3))
        for k, fn in enumerate(model.functions):
            solo = train_bit_classifier(ds.features, codes.bits[:, k].astype(float),
                                        ClassifierConfig(seed=bit_seed(3, k)))
            assert np.array_equal(fn.w, solo.w) and fn.b == solo.b

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
        for k, fn in enumerate(model.functions):
            column = bits[:, k].astype(float)
            if k == m // 2:
                assert fn.constant and np.all(fn.w == 0.0) and fn.b == 1.0
                continue
            w, b = oracle.hinge_sgd(ds.features, column, c, epochs, bit_seed(ccfg.seed, k))
            assert not fn.constant
            np.testing.assert_allclose(fn.w, w, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(fn.b, b, rtol=1e-9, atol=0.0)
            assert np.array_equal(fn.apply(ds.features), LinearHash(w, b).apply(ds.features))

    def test_rejects_row_count_mismatch(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.normal(size=(5, 2)))
        codes = CodeMatrix(np.ones((4, 2), dtype=np.int8))
        with pytest.raises(ValueError):
            train_model(ds, codes, "raw", None, ClassifierConfig())

    def test_encode_train_consistency_on_learnable_columns(self):
        ds, codes, model = small_model(seed=23)
        out = encode(model, ds.features)
        assert np.array_equal(out.signs(), codes.bits)


class TestEncode:
    def test_direct_sign_application(self):
        model = HashModel([LinearHash(np.array([1.0]), 0.0)], "raw", 1)
        packed = encode(model, np.array([[-2.0], [3.0]]))
        assert packed.bits01().ravel().tolist() == [0, 1]

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
        manual = np.stack([fn.apply(feats) for fn in model.functions], axis=1)
        assert np.array_equal(encode(model, ds.features).signs(), manual)


class TestModelSerialization:
    def test_raw_round_trip_encodes_identically(self, tmp_path):
        ds, _, model = small_model(seed=41)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(encode(back, ds.features).words, encode(model, ds.features).words)
        for fa, fb in zip(model.functions, back.functions):
            assert np.array_equal(fa.w, fb.w) and fa.b == fb.b and fa.constant == fb.constant

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

    def test_wrong_version_rejected(self, tmp_path):
        ds, _, model = small_model(seed=53)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
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
        fn = LinearHash(np.zeros(2), 1.0, constant=True)
        with pytest.raises(ValueError):
            HashModel([fn], "kernel", 2, None)
        kcfg = KernelConfig(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            HashModel([fn], "raw", 2, kcfg)

    def test_weight_length_checked(self):
        fn = LinearHash(np.zeros(3), 0.0, constant=True)
        with pytest.raises(ValueError):
            HashModel([fn], "raw", 2)
