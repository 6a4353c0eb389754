"""Hash function learning: one linear classifier per code bit.

Each bit column of the learned code matrix becomes the target of a binary
classification problem over the training features (raw, or RBF responses
against an anchor set). The resulting sign classifiers are the hash
functions applied to unseen points. Every bit has its own seeded hinge
SGD; since all bits read the same features, `train_model` runs the SGDs of
all bits in lockstep, one step of each per pass over a sample position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codegen import CodeMatrix
from .data import Dataset, KernelConfig, derive_seed, kernel_matrix
from .packed import PackedCodes, pack_signs

__all__ = [
    "LinearHash",
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


@dataclass
class LinearHash:
    """One sign hash: x -> sign(w . x + b), with sign(0) = +1.

    `constant` marks classifiers produced from a single-valued target
    column, where no real decision boundary exists.
    """

    w: np.ndarray
    b: float
    constant: bool = False

    def __post_init__(self):
        self.w = np.ascontiguousarray(self.w, dtype=np.float64)
        if self.w.ndim != 1:
            raise ValueError("w must be a vector")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b)):
            raise ValueError("weights must be finite")
        self.w.flags.writeable = False

    def scores(self, feats: np.ndarray) -> np.ndarray:
        return feats @ self.w + self.b

    def apply(self, feats: np.ndarray) -> np.ndarray:
        """Sign outputs (+1/-1) for a feature matrix."""
        return np.where(self.scores(feats) >= 0.0, 1, -1).astype(np.int8)


@dataclass
class HashModel:
    """Ordered per-bit hash functions plus the feature preprocessing step."""

    functions: list[LinearHash]
    feature_mode: str
    d: int
    kernel_cfg: KernelConfig | None = None

    def __post_init__(self):
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {FEATURE_MODES}")
        if (self.kernel_cfg is not None) != (self.feature_mode == "kernel"):
            raise ValueError("kernel_cfg must be present exactly when feature_mode is 'kernel'")
        if not self.functions:
            raise ValueError("need at least one hash function")
        p = self.d if self.feature_mode == "raw" else self.kernel_cfg.q
        for fn in self.functions:
            if fn.w.shape != (p,):
                raise ValueError(f"hash weight length {fn.w.shape} does not match p={p}")
        if self.kernel_cfg is not None and self.kernel_cfg.d != self.d:
            raise ValueError("anchor dimension does not match d")

    @property
    def m(self) -> int:
        return len(self.functions)


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
        if self.c is not None and not self.c > 0:
            raise ValueError("c must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def hinge_objective(feats: np.ndarray, column: np.ndarray, w: np.ndarray, b: float, reg: float) -> float:
    """L2-regularized mean hinge loss (the quantity SGD minimizes)."""
    margins = column * (feats @ w + b)
    return 0.5 * reg * float(w @ w) + float(np.mean(np.maximum(0.0, 1.0 - margins)))


def _reg(c: float | None, n: int) -> float:
    """L2 coefficient 1 / (c * n), with c defaulting to 1000 / n."""
    c = c if c is not None else 1000.0 / n
    return 1.0 / (c * n)


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


def train_bit_classifier(
    feats: np.ndarray, column: np.ndarray, cfg: ClassifierConfig
) -> LinearHash:
    """Train one sign hash on (features, bit column) by seeded subgradient SGD.

    The one-column case of the lockstep SGD that `train_model` runs for all
    bits: epoch passes over a reshuffled sample order with step size
    1 / (reg * (t + t0)), a snapshot after every epoch, and the snapshot
    with the lowest regularized hinge objective returned. The zero
    classifier is always a candidate, so the returned objective never
    exceeds that baseline.
    """
    feats = np.asarray(feats, dtype=np.float64)
    column = np.asarray(column, dtype=np.float64)
    n, p = feats.shape
    if column.shape != (n,):
        raise ValueError(f"column length {column.shape} does not match n={n}")
    if not np.isin(column, (-1.0, 1.0)).all():
        raise ValueError("column entries must be -1 or +1")

    if np.all(column == column[0]):
        return LinearHash(np.zeros(p), float(column[0]), constant=True)
    w, b = _sgd_hinge(feats, column[None, :], _reg(cfg.c, n), cfg.epochs, [cfg.seed])
    return LinearHash(w[0], float(b[0]))


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
    if mode not in FEATURE_MODES:
        raise ValueError(f"feature mode must be one of {FEATURE_MODES}")
    feats = _feature_matrix(ds.features, mode, kcfg)
    p = feats.shape[1]
    bits = codes.bits.T.astype(np.float64)  # m x n, entries +/-1
    constant = np.all(bits == bits[:, :1], axis=1)
    functions = [
        LinearHash(np.zeros(p), float(col[0]), constant=True) if const else None
        for col, const in zip(bits, constant)
    ]
    active = np.flatnonzero(~constant)
    if active.size:
        seeds = [derive_seed(ccfg.seed, int(k)) for k in active]
        w, b = _sgd_hinge(feats, bits[active], _reg(ccfg.c, ds.n), ccfg.epochs, seeds)
        for k, w_k, b_k in zip(active, w, b):
            functions[k] = LinearHash(w_k, float(b_k))
    return HashModel(functions, mode, ds.d, kcfg)


def encode(model: HashModel, points: np.ndarray) -> PackedCodes:
    """Hash a point matrix into packed codes (bit k set iff hash k is +1)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: points have d={points.shape[1]}, model d={model.d}")
    feats = _feature_matrix(points, model.feature_mode, model.kernel_cfg)
    weights = np.stack([fn.w for fn in model.functions], axis=1)
    biases = np.array([fn.b for fn in model.functions])
    scores = feats @ weights + biases
    return pack_signs(scores >= 0.0)


def save_model(model: HashModel, path) -> None:
    """Serialize to versioned JSON; float round-trips are exact."""
    doc = {
        "version": MODEL_VERSION,
        "m": model.m,
        "d": model.d,
        "feature_mode": model.feature_mode,
        "functions": [
            {"w": fn.w.tolist(), "b": fn.b, "constant": fn.constant} for fn in model.functions
        ],
    }
    if model.kernel_cfg is not None:
        doc["bandwidth"] = model.kernel_cfg.bandwidth
        doc["anchors"] = model.kernel_cfg.anchors.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> HashModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"corrupt model {path}: {exc}") from None
    try:
        if doc["version"] != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {doc['version']}")
        mode = doc["feature_mode"]
        kcfg = None
        if mode == "kernel":
            kcfg = KernelConfig(np.array(doc["anchors"], dtype=np.float64), doc["bandwidth"])
        functions = [
            LinearHash(np.array(fn["w"], dtype=np.float64), float(fn["b"]), bool(fn.get("constant", False)))
            for fn in doc["functions"]
        ]
        model = HashModel(functions, mode, int(doc["d"]), kcfg)
        if model.m != doc["m"]:
            raise ModelFormatError(f"corrupt model {path}: m={doc['m']} but {model.m} functions")
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model {path}: {exc}") from None
    return model
