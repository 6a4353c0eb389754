"""Hash function learning: one linear classifier per code bit.

Each bit column of the learned code matrix becomes the target of a binary
classification problem over the training features (raw, or RBF responses
against an anchor set). Every bit's classifier reads the same p features,
so the hash function is one p x m weight matrix and m biases: a point's
code is the sign pattern of its features times the weights plus the
biases. Every bit has its own seeded hinge SGD; `train_model` runs the
SGDs of all bits in lockstep, one step of each per pass over a sample
position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codegen import CodeMatrix
from .data import Dataset, KernelConfig, _row_blocks, derive_seed, kernel_matrix
from .packed import PackedCodes, pack_signs, words_per_code

__all__ = [
    "HashModel",
    "ClassifierConfig",
    "ModelFormatError",
    "train_bit_classifier",
    "train_model",
    "encode",
    "save_model",
    "load_model",
]

FEATURE_MODES = ("raw", "kernel")
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Corrupt or inconsistent hash model data."""


def _check_features(mode: str, kcfg: KernelConfig | None) -> None:
    if mode not in FEATURE_MODES:
        raise ValueError(f"feature_mode must be one of {FEATURE_MODES}")
    if (kcfg is not None) != (mode == "kernel"):
        raise ValueError("kernel_cfg must be present exactly when feature_mode is 'kernel'")


@dataclass(eq=False)
class HashModel:
    """The m bit hashes x -> sign(f(x) @ weights + biases), with sign(0) = +1.

    f gives p features: the point itself ("raw") or its RBF responses to the
    anchors of `kernel_cfg` ("kernel"). Bit k's linear classifier is column k
    of the p x m `weights` and entry k of `biases`. `constant[k]` marks a bit
    trained on a single-valued column: zero weights, and that value as bias.
    """

    weights: np.ndarray
    biases: np.ndarray
    constant: np.ndarray
    feature_mode: str
    d: int
    kernel_cfg: KernelConfig | None = None

    def __post_init__(self):
        _check_features(self.feature_mode, self.kernel_cfg)
        if self.kernel_cfg is not None and self.kernel_cfg.d != self.d:
            raise ValueError("anchor dimension does not match d")
        # C order: `feats @ weights` must round as a p x m product; a .T view of m x p need not.
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
        self.constant = np.ascontiguousarray(self.constant, dtype=bool)
        p = self.d if self.feature_mode == "raw" else self.kernel_cfg.q
        if self.weights.ndim != 2 or self.weights.shape[0] != p:
            raise ValueError(f"weights of shape {self.weights.shape} do not have p={p} rows")
        if self.m == 0:
            raise ValueError("need at least one hash function")
        if self.biases.shape != (self.m,) or self.constant.shape != (self.m,):
            raise ValueError(f"biases and constant flags must have m={self.m} entries")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("weights must be finite")
        for a in (self.weights, self.biases, self.constant):
            a.flags.writeable = False

    @property
    def m(self) -> int:
        return self.weights.shape[1]


@dataclass
class ClassifierConfig:
    """Hinge-loss SGD settings; c is the SVM-style cost trade-off.

    When c is None it defaults to 1000/n at training time. The effective
    L2 coefficient of the objective is 1 / (c * n). `epochs` counts SGD
    passes over the training points; `train_model` runs them for all bits
    at once. `seed` seeds one bit; `train_model` derives each bit's seed
    from it.
    """

    c: float | None = None
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.c is not None and not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def hinge_objective(feats: np.ndarray, column: np.ndarray, w: np.ndarray, b: float, reg: float) -> float:
    """L2-regularized mean hinge loss (the quantity SGD minimizes)."""
    margins = column * (feats @ w + b)
    return 0.5 * reg * float(w @ w) + float(np.mean(np.maximum(0.0, 1.0 - margins)))


def _sgd_hinge(
    feats: np.ndarray, columns: np.ndarray, reg: float, epochs: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded subgradient SGD on k non-constant +/-1 columns, in lockstep.

    Column j runs its own SGD from the zero classifier: each epoch visits
    the samples in the order of `default_rng(seeds[j]).permutation(n)`,
    step t has size 1 / (reg * (t + t0)), and after every epoch the weights
    are kept if their regularized hinge objective is the lowest so far (the
    zero classifier is the first candidate). Step t of every column runs in
    one pass of the loop: one gathered row per column, one row-wise dot and
    an update masked to the columns whose margin is below 1. Every operation
    is row by row (`np.vecdot` takes each row's dot as `x @ w` does), so row
    j of the result does not depend on the other columns. Returns (weights
    k x p, biases k) of the best snapshots.
    """
    k, n = columns.shape
    p = feats.shape[1]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    w = np.zeros((k, p))
    b = np.zeros(k)
    best_w, best_b = w.copy(), b.copy()
    best_obj = [hinge_objective(feats, col, w[j], b[j], reg) for j, col in enumerate(columns)]

    t0 = 1.0 / reg  # keeps early steps bounded by ~1/reg * 1/(t + 1/reg) <= 1
    x = np.empty((k, p))
    margin = np.empty(k)
    violated = np.empty(k, dtype=bool)
    bit_rows = np.arange(k)
    for epoch in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs], axis=1)  # n x k
        y = columns[bit_rows, order]
        lr = 1.0 / (reg * (np.arange(epoch * n + 1, (epoch + 1) * n + 1) + t0))
        shrink = 1.0 - lr * reg
        lr_y = lr[:, None] * y
        for idx, y_t, lr_y_t, shrink_t in zip(order, y, lr_y, shrink.tolist()):
            np.take(feats, idx, axis=0, out=x, mode="clip")  # unbuffered; idx is in range
            np.vecdot(x, w, out=margin)
            margin += b
            margin *= y_t
            np.less(margin, 1.0, out=violated)
            w *= shrink_t
            step = lr_y_t * violated
            b += step
            x *= step[:, None]
            w += x
        for j, col in enumerate(columns):
            obj = hinge_objective(feats, col, w[j], b[j], reg)
            if obj < best_obj[j]:
                best_obj[j] = obj
                best_w[j], best_b[j] = w[j], b[j]
    return best_w, best_b


def _fit_columns(
    feats: np.ndarray, columns: np.ndarray, cfg: ClassifierConfig, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sign classifier per +/-1 row of `columns` (k x n), row j seeded by seeds[j].

    A single-valued row gets w = 0 and b = its value; all other rows run in
    one lockstep `_sgd_hinge` with L2 coefficient 1 / (c * n), c defaulting
    to 1000 / n. Returns (weights p x k, biases k, constant k).
    """
    n = columns.shape[1]
    c = cfg.c if cfg.c is not None else 1000.0 / n
    constant = np.all(columns == columns[:, :1], axis=1)
    weights = np.zeros((feats.shape[1], len(columns)))
    biases = columns[:, 0].copy()
    active = np.flatnonzero(~constant)
    if active.size:
        w, b = _sgd_hinge(feats, columns[active], 1.0 / (c * n), cfg.epochs, [seeds[j] for j in active])
        weights[:, active] = w.T
        biases[active] = b
    return weights, biases, constant


def train_bit_classifier(
    feats: np.ndarray, column: np.ndarray, cfg: ClassifierConfig
) -> tuple[np.ndarray, float, bool]:
    """Train one sign hash on (features, bit column): the one-column case of `train_model`'s fit.

    Returns (w, b, constant). A single-valued column gives w = 0, b = its
    value and constant = True. Otherwise the seeded SGD of `_sgd_hinge`
    keeps its best epoch snapshot, and the zero classifier is one of its
    candidates, so the returned hinge objective never exceeds that baseline.
    """
    feats = np.asarray(feats, dtype=np.float64)
    column = np.asarray(column, dtype=np.float64)
    n = feats.shape[0]
    if column.shape != (n,):
        raise ValueError(f"column length {column.shape} does not match n={n}")
    if not np.isin(column, (-1.0, 1.0)).all():
        raise ValueError("column entries must be -1 or +1")
    weights, biases, constant = _fit_columns(feats, column[None, :], cfg, [cfg.seed])
    return weights[:, 0], float(biases[0]), bool(constant[0])


def _feature_matrix(points: np.ndarray, mode: str, kcfg: KernelConfig | None) -> np.ndarray:
    if mode == "raw":
        return np.asarray(points, dtype=np.float64)
    return kernel_matrix(points, kcfg)


def train_model(
    ds: Dataset,
    codes: CodeMatrix,
    mode: str,
    kcfg: KernelConfig | None,
    ccfg: ClassifierConfig,
) -> HashModel:
    """Train all m bit classifiers in one lockstep SGD and assemble the model.

    Bit k's RNG seed is derived from ccfg.seed and k alone, and bits never
    mix inside the SGD, so bit k's classifier equals `train_bit_classifier`
    on column k with that seed. A single-valued column gives a constant
    hash that outputs its value.
    """
    if codes.n != ds.n:
        raise ValueError("code matrix and dataset cover different point counts")
    _check_features(mode, kcfg)
    feats = _feature_matrix(ds.features, mode, kcfg)
    bits = codes.bits.T.astype(np.float64)  # m x n, entries +/-1
    seeds = [derive_seed(ccfg.seed, k) for k in range(codes.m)]
    weights, biases, constant = _fit_columns(feats, bits, ccfg, seeds)
    return HashModel(weights, biases, constant, mode, ds.d, kcfg)


def encode(model: HashModel, points: np.ndarray) -> PackedCodes:
    """Hash a point matrix into packed codes (bit k set iff hash k is +1).

    The points go through in _row_blocks as wide as the widest of their
    points (d), features (p) and scores (m): each block's features, their
    product with the weights plus the biases, and its signs, packed straight
    into its rows of the n x ceil(m/64) code words. So beside the points and
    the words one block is held, whatever n is.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: points have d={points.shape[1]}, model d={model.d}")
    words = np.empty((points.shape[0], words_per_code(model.m)), dtype=np.uint64)
    for rows in _row_blocks(points.shape[0], max(model.d, *model.weights.shape)):
        feats = _feature_matrix(points[rows], model.feature_mode, model.kernel_cfg)
        scores = feats @ model.weights
        scores += model.biases
        words[rows] = pack_signs(scores >= 0.0).words
    return PackedCodes(words, model.m)


def save_model(model: HashModel, path) -> None:
    """Serialize to versioned JSON, one {w, b, constant} entry per bit; float round-trips are exact."""
    doc = {
        "version": MODEL_VERSION,
        "m": model.m,
        "d": model.d,
        "feature_mode": model.feature_mode,
        "functions": [
            {"w": w.tolist(), "b": b, "constant": c}
            for w, b, c in zip(model.weights.T, model.biases.tolist(), model.constant.tolist())
        ],
    }
    if model.kernel_cfg is not None:
        doc["bandwidth"] = model.kernel_cfg.bandwidth
        doc["anchors"] = model.kernel_cfg.anchors.tolist()
    # json.dumps runs the C encoder; json.dump would encode in Python, chunk by chunk.
    text = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _number_rows(rows) -> bool:
    """Whether rows is a list of lists of JSON numbers.

    json reads a number as int or float; a bool or a string is not one.
    """
    return isinstance(rows, list) and all(
        isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in rows
    )


def load_model(path) -> HashModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"corrupt model {path}: {exc}") from None
    try:
        # An int and not a bool: `true == 1` and `int("3")` would pass them otherwise.
        for name in ("version", "m", "d"):
            if type(doc[name]) is not int:
                raise ModelFormatError(f"corrupt model {path}: {name} must be a JSON integer")
        if doc["version"] != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {doc['version']}")
        mode = doc["feature_mode"]
        kcfg = None
        if mode == "kernel":
            if not _number_rows(doc["anchors"]):
                raise ModelFormatError(f"corrupt model {path}: anchors must be rows of JSON numbers")
            if type(doc["bandwidth"]) not in (int, float):
                raise ModelFormatError(f"corrupt model {path}: bandwidth must be a JSON number")
            kcfg = KernelConfig(np.array(doc["anchors"], dtype=np.float64), doc["bandwidth"])
        w = [fn["w"] for fn in doc["functions"]]
        b = [fn["b"] for fn in doc["functions"]]
        constant = [fn.get("constant", False) for fn in doc["functions"]]
        if not _number_rows(w + [b]):
            raise ModelFormatError(f"corrupt model {path}: w and b must hold JSON numbers")
        if not all(type(c) is bool for c in constant):
            raise ModelFormatError(f"corrupt model {path}: constant must be true or false")
        model = HashModel(np.array(w, dtype=np.float64).T, b, constant, mode, doc["d"], kcfg)
        if model.m != doc["m"]:
            raise ModelFormatError(f"corrupt model {path}: m={doc['m']} but {model.m} functions")
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt model {path}: {exc}") from None
    return model
