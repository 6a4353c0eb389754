"""Datasets, pairwise supervision, and RBF kernel preprocessing.

This module needs numpy alone. Pairwise distances are computed by
_sq_distances in row blocks, one dimension at a time, which gives exactly
the values of scipy's cdist, so serving commands never import scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "PairSupervision",
    "KernelConfig",
    "DataFormatError",
    "EmptyDatasetError",
    "load_dataset",
    "generate_clusters",
    "supervision_from_labels",
    "supervision_from_distance",
    "save_supervision",
    "load_supervision",
    "rbf_bandwidth",
    "sample_anchors",
    "kernel_matrix",
]


# Rows of x per block of _sq_distances; its scratch buffer is this many rows by q.
_BLOCK_ROWS = 256

# Bytes per block when load_dataset scans a CSV, and the only bytes its
# np.loadtxt read accepts: ASCII digits, signs, points, exponents, commas
# and blanks.
_SCAN_BYTES = 1 << 20
_FAST_BYTES = b"0123456789+-.eE, \t\r\n"

# Nearest neighbours per point that rbf_bandwidth averages over (at most n-1).
_BANDWIDTH_NEIGHBORS = 100


class DataFormatError(ValueError):
    """Malformed dataset, supervision, or kernel configuration input."""


class EmptyDatasetError(DataFormatError):
    """A dataset CSV with no rows: empty, or every line blank."""


@dataclass
class Dataset:
    """Feature matrix (n x d, float64) with optional integer class labels."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise DataFormatError("features must be a non-empty 2-D matrix")
        if not np.isfinite(self.features).all():
            raise DataFormatError("features contain non-finite values")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise DataFormatError(
                    f"labels length {self.labels.shape} does not match n={self.n}"
                )
            self.labels.flags.writeable = False
        self.features.flags.writeable = False

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def has_labels(self) -> bool:
        return self.labels is not None


def load_dataset(path, has_labels: bool = False) -> Dataset:
    """Parse a headerless CSV of reals (optional trailing integer label column).

    Blank lines are ignored; any malformed cell is reported with its 1-based
    file row number. A file with no rows raises EmptyDatasetError. The file
    is read by one np.loadtxt call; _parse_rows reads it instead wherever
    that read is refused, so only _parse_rows words errors.
    """
    ds = _load_fast(path, has_labels)
    return ds if ds is not None else _parse_rows(path, has_labels)


def _load_fast(path, has_labels: bool) -> Dataset | None:
    """The dataset from one np.loadtxt read, or None to leave the file to _parse_rows.

    Only files made of _FAST_BYTES are read here, so no numpy version's
    treatment of other text (digit separators, '#', quotes, non-ASCII digits
    or spaces, a BOM) can matter; on these bytes loadtxt parses a cell as
    float() and int() do. A cell loadtxt refuses, any warning or a non-finite
    feature leaves the file to _parse_rows, which also reads the valid
    inputs loadtxt refuses, such as lines of spaces.
    """
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_SCAN_BYTES), b""):
            if block.translate(None, _FAST_BYTES):
                return None
    with open(path, "r", encoding="ascii") as fh:
        width = next((line.count(",") + 1 for line in fh if line.strip()), None)
    if width is None or (has_labels and width < 2):
        return None
    if has_labels:
        dtype, ndmin = [("x", np.float64, (width - 1,)), ("y", np.int64)], 1
    else:
        dtype, ndmin = np.float64, 2
    try:
        with warnings.catch_warnings():
            # numpy 2.0 may read the label "3.0" as 3 with a DeprecationWarning; int() refuses it.
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, encoding="utf-8", ndmin=ndmin
            )
        # Dataset raises DataFormatError, a ValueError, on a non-finite feature.
        if has_labels:
            return Dataset(table["x"], table["y"])
        return Dataset(table)
    except (ValueError, Warning):
        return None


def _parse_rows(path, has_labels: bool) -> Dataset:
    """load_dataset's row-by-row parser: the reference result and every error message."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        cells = [c.strip() for c in text.split(",")]
        if width is None:
            width = len(cells)
            if has_labels and width < 2:
                raise DataFormatError(f"row {lineno}: need at least one feature and a label")
        elif len(cells) != width:
            raise DataFormatError(f"ragged row {lineno}: expected {width} cells, got {len(cells)}")
        if "_" in text:
            # float() and int() read digit separators ("1_000" as 1000); the format has none.
            col = next(c for c, cell in enumerate(cells) if "_" in cell)
            if has_labels and col == width - 1:
                raise DataFormatError(f"non-integer label {cells[col]!r} in row {lineno}")
            raise DataFormatError(f"non-numeric cell {cells[col]!r} in row {lineno}")
        if has_labels:
            label_cell = cells[-1]
            cells = cells[:-1]
            try:
                label = int(label_cell)
            except ValueError:
                raise DataFormatError(f"non-integer label {label_cell!r} in row {lineno}") from None
            if not -(2**63) <= label < 2**63:
                raise DataFormatError(f"label {label_cell!r} outside int64 in row {lineno}")
            labels.append(label)
        values = []
        for cell in cells:
            try:
                v = float(cell)
            except ValueError:
                raise DataFormatError(f"non-numeric cell {cell!r} in row {lineno}") from None
            if not math.isfinite(v):
                raise DataFormatError(f"non-finite value {cell!r} in row {lineno}")
            values.append(v)
        rows.append(values)

    if not rows:
        raise EmptyDatasetError(f"empty file: {path}")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels) if has_labels else None)


def generate_clusters(n: int, clusters: int, d: int, spread: float, seed: int) -> Dataset:
    """Labeled Gaussian blobs around fixed well-separated centers.

    Centers are placed deterministically (evenly on the unit circle in the
    first two dimensions, or at integer positions when d == 1); only the
    per-point noise consumes the seed.
    """
    if clusters < 2:
        raise ValueError("clusters must be >= 2")
    if n < clusters:
        raise ValueError("n must be >= clusters")
    if d < 1:
        raise ValueError("d must be >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")

    centers = np.zeros((clusters, d))
    if d == 1:
        centers[:, 0] = np.arange(clusters, dtype=np.float64)
    else:
        angles = 2.0 * np.pi * np.arange(clusters) / clusters
        centers[:, 0] = np.cos(angles)
        centers[:, 1] = np.sin(angles)

    counts = np.full(clusters, n // clusters)
    counts[: n % clusters] += 1
    rng = np.random.default_rng(seed)
    feats = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for c in range(clusters):
        feats[row : row + counts[c]] = centers[c] + spread * rng.standard_normal((counts[c], d))
        labels[row : row + counts[c]] = c
        row += counts[c]
    return Dataset(feats, labels)


class PairSupervision:
    """Symmetric affinity relation on point pairs, held as pairs or as labels.

    Pair form: each stored entry (i, j, y) has i < j and a finite y != 0
    (positive means similar), and stands for both orders; absent pairs carry
    no relation. Label form (labels, no entries): all n(n-1)/2 pairs,
    y = +1 on same-class pairs and -1 otherwise, with only the labels
    stored. arrays() builds its pairs on every call and nothing keeps them;
    ksh and bre code inference reads only the labels.
    """

    def __init__(self, n: int, i=(), j=(), y=(), labels=None):
        self.n = n
        self.labels = None if labels is None else np.ascontiguousarray(labels, dtype=np.int64)
        self._pairs = None
        if self.labels is not None:
            if len(i) or len(j) or len(y):
                raise DataFormatError("give either labels or pair entries, not both")
            if self.labels.shape != (n,):
                raise DataFormatError("labels must hold one entry per point")
            self.labels.flags.writeable = False
            return
        i, j = (np.ascontiguousarray(a, dtype=np.int64) for a in (i, j))
        y = np.ascontiguousarray(y, dtype=np.float64)
        if not (i.shape == j.shape == y.shape):
            raise DataFormatError("supervision arrays must have equal length")
        if not np.isfinite(y).all():
            raise DataFormatError("affinities must be finite")
        if not y.all():
            raise DataFormatError("affinities must be nonzero")
        if i.size:
            if i.min() < 0 or j.max() >= n:
                raise DataFormatError("pair index out of range")
            if np.any(i >= j):
                raise DataFormatError("pairs must be stored with i < j")
            keys = np.sort(i * n + j)
            if np.any(keys[1:] == keys[:-1]):
                raise DataFormatError("duplicate pair")
        for arr in (i, j, y):
            arr.flags.writeable = False
        self._pairs = (i, j, y)

    @classmethod
    def from_entries(cls, n: int, entries) -> "PairSupervision":
        """Build from (i, j, y) triples in any order; a repeated pair must repeat its value."""
        table = np.array(list(entries) or np.empty((0, 3)), dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != 3:
            raise DataFormatError("entries must be (i, j, y) triples")
        ids = table[:, :2]
        if not (np.isfinite(ids).all() and (ids == np.trunc(ids)).all()):
            raise DataFormatError("pair ids must be integers")
        a, b, y = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]
        if np.any(a == b):
            raise DataFormatError(f"self-pair ({a[a == b][0]},{a[a == b][0]}) is not allowed")
        # NaN != NaN, so a non-finite value would otherwise read as a conflict.
        if not np.isfinite(y).all():
            raise DataFormatError("affinities must be finite")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((hi, lo))
        lo, hi, y = lo[order], hi[order], y[order]
        repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        conflict = repeat & (y[1:] != y[:-1])
        if conflict.any():
            k = np.argmax(conflict)
            raise DataFormatError(f"conflicting values for pair ({lo[k]}, {hi[k]})")
        last = np.ones(lo.size, dtype=bool)
        last[:-1] = ~repeat
        return cls(n, lo[last], hi[last], y[last])

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2 if self._pairs is None else self._pairs[0].size

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The supervised pairs as (i, j, y), sorted by (i, j) in the label form."""
        if self._pairs is not None:
            return self._pairs
        i, j = np.triu_indices(self.n, 1)
        return i, j, _label_affinity(self.labels, i, j)


def derive_seed(seed: int, *key: int) -> int:
    """The seed of the independent stream that key names under seed (SeedSequence spawn)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _sample_partners(n: int, pairs_per_point: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point partner sampling without replacement; sorted unique (i, j) arrays, i < j."""
    if pairs_per_point < 1:
        raise ValueError("pairs_per_point must be >= 1")
    if pairs_per_point > n - 1:
        raise ValueError(f"pairs_per_point {pairs_per_point} exceeds n-1 = {n - 1}")
    if pairs_per_point == n - 1:
        return np.triu_indices(n, k=1)
    rng = np.random.default_rng(seed)
    a = np.repeat(np.arange(n, dtype=np.int64), pairs_per_point)
    b = np.concatenate([rng.choice(n - 1, size=pairs_per_point, replace=False) for _ in range(n)])
    b += b >= a
    # Sort and compare neighbours: np.unique (numpy 2.4) is far slower at this size.
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    return keys // n, keys % n


def supervision_from_labels(ds: Dataset, pairs_per_point: int, seed: int) -> PairSupervision:
    """Affinity +1 for same-class pairs, -1 otherwise, on sampled partners.

    With every pair supervised the result is in label form and stores no pair.
    """
    if not ds.has_labels:
        raise ValueError("dataset has no labels")
    if ds.n > 1 and pairs_per_point != ds.n - 1:
        i, j = _sample_partners(ds.n, pairs_per_point, seed)
        if i.size < ds.n * (ds.n - 1) // 2:
            return PairSupervision(ds.n, i, j, _label_affinity(ds.labels, i, j))
    return PairSupervision(ds.n, labels=ds.labels)


def _label_affinity(labels: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return np.where(labels[i] == labels[j], 1.0, -1.0)


def _sq_distances(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and of a (n x q, d >= 1).

    Each entry sums (x[:, t] - a[:, t])**2 over t in dimension order, as
    cdist(x, a, "sqeuclidean") does, so the values are the same bit for bit.
    The sum runs over row blocks, with one scratch buffer of at most
    _BLOCK_ROWS x q, so the n x q result is the only large array.
    """
    n, q = x.shape[0], a.shape[0]
    cols = np.ascontiguousarray(a.T)  # d x q: each dimension's values, contiguous
    out = np.empty((n, q))
    scratch = np.empty((min(n, _BLOCK_ROWS), q))
    for start in range(0, n, _BLOCK_ROWS):
        rows = x[start : start + _BLOCK_ROWS]
        block = out[start : start + _BLOCK_ROWS]
        buf = scratch[: rows.shape[0]]
        np.subtract(rows[:, :1], cols[0], out=block)
        np.square(block, out=block)
        for t in range(1, x.shape[1]):
            np.subtract(rows[:, t : t + 1], cols[t], out=buf)
            np.square(buf, out=buf)
            block += buf
    return out


def _self_distances(features: np.ndarray) -> np.ndarray:
    """n x n Euclidean distances between the rows, with inf on the diagonal."""
    dist = _sq_distances(features, features)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    return dist


def _quantile_index(percentile: float, count: int) -> int:
    """Index of the cutoff value in an ascending list of `count` distances."""
    k = math.ceil(percentile * count / 100.0)
    return min(max(k, 1), count) - 1


def supervision_from_distance(
    ds: Dataset, percentile: float, pairs_per_point: int, seed: int
) -> PairSupervision:
    """Euclidean pseudo-labels: +1 when a pair falls inside either endpoint's
    top-percentile distance quantile, -1 otherwise.

    The per-point cutoff is the value at index ceil(percentile/100 * (n-1)) - 1
    of that point's ascending distance list; ties at the cutoff count as +1.
    Labelling through the larger of the two cutoffs keeps the relation
    symmetric regardless of which endpoint sampled the pair.
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must lie in (0, 100)")
    if ds.n < 2:
        raise ValueError("need at least 2 points for distance supervision")
    i, j = _sample_partners(ds.n, pairs_per_point, seed)

    dist = _self_distances(ds.features)
    pair_dist = dist[i, j]
    kth = _quantile_index(percentile, ds.n - 1)
    dist.partition(kth, axis=1)
    cutoff = dist[:, kth]
    y = np.where(pair_dist <= np.maximum(cutoff[i], cutoff[j]), 1.0, -1.0)
    return PairSupervision(ds.n, i, j, y)


def save_supervision(sup: PairSupervision, path) -> None:
    """Write supervision as CSV triples "i,j,y"."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, v in zip(*sup.arrays()):
            fh.write(f"{int(a)},{int(b)},{float(v)!r}\n")


def load_supervision(path, n: int) -> PairSupervision:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            cells = text.split(",")
            if len(cells) != 3:
                raise DataFormatError(f"supervision row {lineno}: expected 3 cells")
            try:
                # int() and float() read digit separators ("1_0" as 10); the format has none.
                if "_" in text:
                    raise ValueError(text)
                entries.append((int(cells[0]), int(cells[1]), float(cells[2])))
            except ValueError:
                raise DataFormatError(f"supervision row {lineno}: malformed cell") from None
    return PairSupervision.from_entries(n, entries)


def rbf_bandwidth(ds: Dataset, t: float) -> float:
    """t times the mean distance to each point's k nearest neighbours.

    k is _BANDWIDTH_NEIGHBORS clamped to n-1. Errors out when the mean
    distance is zero (all points coincide), since a zero bandwidth is unusable.
    """
    if ds.n < 2:
        raise ValueError("need at least 2 points to estimate a bandwidth")
    if t <= 0:
        raise ValueError("t must be positive")
    k = min(_BANDWIDTH_NEIGHBORS, ds.n - 1)
    dist = _self_distances(ds.features)
    # Sort only the k smallest of each row. The view has the strides of a
    # full sorted copy, so the mean sums in the same order.
    dist.partition(k - 1, axis=1)
    nearest = dist[:, :k]
    nearest.sort(axis=1)
    mean_dist = float(nearest.mean())
    if mean_dist == 0.0:
        raise ValueError("degenerate bandwidth: all points coincide")
    return t * mean_dist


@dataclass
class KernelConfig:
    """RBF anchor set and bandwidth for kernel-transferred features."""

    anchors: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.anchors = np.ascontiguousarray(self.anchors, dtype=np.float64)
        if self.anchors.ndim != 2 or self.anchors.shape[0] < 1 or self.anchors.shape[1] < 1:
            raise DataFormatError("anchors must be a non-empty 2-D matrix")
        if not np.isfinite(self.anchors).all():
            raise DataFormatError("anchors contain non-finite values")
        if not (self.bandwidth > 0):
            raise DataFormatError("bandwidth must be positive")
        self.anchors.flags.writeable = False

    @property
    def q(self) -> int:
        return self.anchors.shape[0]

    @property
    def d(self) -> int:
        return self.anchors.shape[1]


def sample_anchors(ds: Dataset, q: int, seed: int) -> np.ndarray:
    """Uniform sample of q training rows (without replacement), in row order."""
    if not 1 <= q <= ds.n:
        raise ValueError(f"anchor count must be in [1, {ds.n}]")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=q, replace=False))
    return ds.features[idx].copy()


def kernel_matrix(points: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Row-wise RBF responses exp(-||x - anchor||^2 / (2 sigma^2))."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != cfg.d:
        raise ValueError(f"dimension mismatch: points have d={points.shape[1]}, anchors d={cfg.d}")
    # In place, so the n x q distances are the only large array.
    out = _sq_distances(points, cfg.anchors)
    np.negative(out, out=out)
    out /= 2.0 * cfg.bandwidth**2
    return np.exp(out, out=out)

