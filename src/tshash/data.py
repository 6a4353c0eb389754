"""Datasets, pairwise supervision, and RBF kernel preprocessing.

This module needs numpy alone, so serving commands never import scipy.
Kernel features take their squared distances from one matrix product about
the anchors' mean (kernel_matrix), which matches scipy's cdist to rounding.
The distances among the training points, whose values the bandwidth
estimate and distance supervision compare with cutoffs, are computed
exactly as cdist computes them, one dimension at a time (_sq_distances);
those two read them one row block at a time (_self_distance_blocks) and
keep only what they select from each block, so no n x n matrix is built.
Every blocked loop in the package takes its blocks from _row_blocks.
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
    "rbf_bandwidth",
    "sample_anchors",
    "kernel_matrix",
]


# Entries per row block of _row_blocks (512 KiB of float64): a block of rows
# `width` wide holds max(1, this // width) rows.
_BLOCK_ENTRIES = 1 << 16

# Bytes per block when load_dataset scans a CSV, and the only bytes its
# np.loadtxt read accepts: ASCII digits, signs, points, exponents, commas
# and blanks.
_SCAN_BYTES = 1 << 20
_FAST_BYTES = b"0123456789+-.eE, \t\r\n"

# Nearest neighbours per point that rbf_bandwidth averages over (at most n-1).
_BANDWIDTH_NEIGHBORS = 100

_INT64_MAX = np.iinfo(np.int64).max


class DataFormatError(ValueError):
    """Malformed dataset, supervision, or kernel configuration input."""


class EmptyDatasetError(DataFormatError):
    """A dataset CSV with no rows: empty, or every line blank."""


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending; sorts a in place.

    Sorts and keeps the first value of each run: np.unique (numpy 2.4) is
    far slower on the pair keys and relevant ids this serves.
    """
    a.sort()
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _integer_ids(values, what: str) -> np.ndarray:
    """values as a contiguous int64 array; DataFormatError for booleans and for
    non-integral or out-of-int64 values.

    The dtype decides first: a signed integer array is cast without a scan,
    and a contiguous int64 one is returned as it is; only uint64 and
    non-integer arrays are scanned.
    """
    arr = np.asarray(values)
    if arr.dtype == np.bool_:
        raise DataFormatError(f"{what} must be integers, not booleans")
    if arr.dtype.kind not in "iu":
        floats = arr.astype(np.float64)
        if not (np.isfinite(floats).all() and (floats == np.trunc(floats)).all()):
            raise DataFormatError(f"{what} must be integers")
        in_range = arr.size == 0 or (floats.min() >= -(2.0**63) and floats.max() < 2.0**63)
    else:
        in_range = arr.dtype != np.uint64 or arr.size == 0 or arr.max() <= _INT64_MAX
    if not in_range:
        raise DataFormatError(f"{what} must lie in the int64 range [-2**63, 2**63 - 1]")
    return np.ascontiguousarray(arr, dtype=np.int64)


@dataclass(eq=False)
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
            self.labels = _integer_ids(self.labels, "labels")
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
    if not (np.isfinite(spread) and spread >= 0):
        raise ValueError("spread must be finite and >= 0")

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
        # A huge spread overflows to inf here; Dataset rejects the non-finite features.
        with np.errstate(over="ignore"):
            feats[row : row + counts[c]] = centers[c] + spread * rng.standard_normal((counts[c], d))
        labels[row : row + counts[c]] = c
        row += counts[c]
    return Dataset(feats, labels)


class PairSupervision:
    """Symmetric affinity relation on point pairs, held as pairs or as labels.

    Pair form: each stored entry (i, j, y) has i < j and y = +1 (similar)
    or -1 (dissimilar), and stands for both orders; absent pairs carry no
    relation. Label form (labels, no entries): all n(n-1)/2 pairs,
    y = +1 on same-class pairs and -1 otherwise, with only the labels
    stored. arrays() builds its pairs on every call and nothing keeps them;
    ksh and bre code inference reads only the labels.
    """

    def __init__(self, n: int, i=(), j=(), y=(), labels=None):
        self.n = n
        self.labels = None if labels is None else _integer_ids(labels, "labels")
        self._pairs = None
        if self.labels is not None:
            if len(i) or len(j) or len(y):
                raise DataFormatError("give either labels or pair entries, not both")
            if self.labels.shape != (n,):
                raise DataFormatError("labels must hold one entry per point")
            self.labels.flags.writeable = False
            return
        i, j = (_integer_ids(a, "pair ids") for a in (i, j))
        y = np.ascontiguousarray(y, dtype=np.float64)
        if not (i.shape == j.shape == y.shape):
            raise DataFormatError("supervision arrays must have equal length")
        if not np.all(np.abs(y) == 1.0):
            raise DataFormatError("affinities must be -1 or +1")
        if i.size:
            if i.min() < 0 or j.max() >= n:
                raise DataFormatError("pair index out of range")
            if np.any(i >= j):
                raise DataFormatError("pairs must be stored with i < j")
            if _sorted_distinct(i * n + j).size < i.size:
                raise DataFormatError("duplicate pair")
        for arr in (i, j, y):
            arr.flags.writeable = False
        self._pairs = (i, j, y)

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
    keys = _sorted_distinct(np.minimum(a, b) * n + np.maximum(a, b))
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


def _row_blocks(n: int, width: int):
    """Yield slices covering range(n) in order, max(1, _BLOCK_ENTRIES // width) rows each.

    Every blocked loop takes its blocks here, so a block of rows `width`
    entries wide holds at most _BLOCK_ENTRIES entries, or one row when a row
    is wider. The last block may be shorter.
    """
    step = max(1, _BLOCK_ENTRIES // width)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _sq_distances(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and of a (n x q, d >= 1).

    Each entry sums (x[:, t] - a[:, t])**2 over t in dimension order, as
    cdist(x, a, "sqeuclidean") does, so the values are the same bit for bit.
    Beside the n x q result it holds one scratch buffer of the same shape,
    so callers bound its memory by the rows they pass.

    It serves the self-distances of _self_distance_blocks only. Their users
    compare distances with cutoffs, where the rounding of a matrix product,
    which also differs between d(x, y) and d(y, x), could flip a label;
    kernel_matrix, whose values no cutoff reads, uses the product.
    """
    cols = np.ascontiguousarray(a.T)  # d x q: each dimension's values, contiguous
    out = np.subtract(x[:, :1], cols[0])
    np.square(out, out=out)
    buf = np.empty_like(out)
    for t in range(1, x.shape[1]):
        np.subtract(x[:, t : t + 1], cols[t], out=buf)
        np.square(buf, out=buf)
        out += buf
    return out


def _self_distance_blocks(features: np.ndarray):
    """Yield (start, block): the Euclidean distances of rows start.. to every row.

    The blocks take their rows from _row_blocks(n, n), and hold inf at each
    row's own column. Each is a fresh array that the caller
    may reorder in place. The values are cdist's bit for bit (_sq_distances),
    so this serves self-distances only: the bandwidth estimate and distance
    supervision.
    """
    n = features.shape[0]
    for rows in _row_blocks(n, n):
        block = _sq_distances(features[rows], features)
        np.sqrt(block, out=block)
        own = np.arange(block.shape[0])
        block[own, own + rows.start] = np.inf
        yield rows.start, block


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

    kth = _quantile_index(percentile, ds.n - 1)
    pair_dist = np.empty(i.size)
    cutoff = np.empty(ds.n)
    for start, block in _self_distance_blocks(ds.features):
        stop = start + block.shape[0]
        # The pairs are sorted by i, so the block's rows hold one run of them.
        lo, hi = np.searchsorted(i, (start, stop))
        pair_dist[lo:hi] = block[i[lo:hi] - start, j[lo:hi]]
        block.partition(kth, axis=1)
        cutoff[start:stop] = block[:, kth]
    y = np.where(pair_dist <= np.maximum(cutoff[i], cutoff[j]), 1.0, -1.0)
    return PairSupervision(ds.n, i, j, y)


def rbf_bandwidth(ds: Dataset, t: float) -> float:
    """t times the mean distance to each point's k nearest neighbours.

    k is _BANDWIDTH_NEIGHBORS clamped to n-1. Errors out when the mean
    distance is zero (all points coincide), since a zero bandwidth is unusable.
    """
    if ds.n < 2:
        raise ValueError("need at least 2 points to estimate a bandwidth")
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    k = min(_BANDWIDTH_NEIGHBORS, ds.n - 1)
    # Each row's k smallest, sorted, go into the first k columns of an
    # n x (k+1) buffer. That view is strided like the k-slice of a fully
    # sorted n x n matrix, so its mean sums in the same order, bit for bit.
    nearest = np.empty((ds.n, k + 1))
    for start, block in _self_distance_blocks(ds.features):
        block.partition(k - 1, axis=1)
        part = block[:, :k]
        part.sort(axis=1)
        nearest[start : start + block.shape[0], :k] = part
    mean_dist = float(nearest[:, :k].mean())
    if mean_dist == 0.0:
        raise ValueError("degenerate bandwidth: all points coincide")
    return t * mean_dist


@dataclass(eq=False)
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
        # An infinite bandwidth makes every feature 1, and so every code the same.
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise DataFormatError("bandwidth must be positive and finite")
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
    """Row-wise RBF responses exp(-||x - anchor||^2 / (2 sigma^2)).

    With c the anchors' mean, the squared distances are
    ||x - c||^2 + ||a - c||^2 - 2 (x - c).(a - c), clamped at 0: one matrix
    product plus the row norms. Centring keeps the cancellation small when
    the data lie far from the origin; the values match cdist's to within
    about 1e-15, not bit for bit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != cfg.d:
        raise ValueError(f"dimension mismatch: points have d={points.shape[1]}, anchors d={cfg.d}")
    centre = cfg.anchors.mean(axis=0)
    x = points - centre
    a = cfg.anchors - centre
    # In place, so the n x q distances are the only large array beside x.
    out = x @ a.T
    out *= -2.0
    out += np.vecdot(x, x)[:, None]
    out += np.vecdot(a, a)
    np.maximum(out, 0.0, out=out)
    out /= -2.0 * cfg.bandwidth**2
    return np.exp(out, out=out)

