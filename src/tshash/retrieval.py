"""Hamming-space ranking over packed codes and retrieval quality metrics.

A database point's id is its row in the database codes. Rankings sort by
ascending Hamming distance with ties broken by ascending id, which makes
every downstream metric deterministic. Four metrics are reported:
precision at K, mean average precision over the full ranking, area under
the precision-recall curve sampled at the m+1 integer distance
thresholds, and precision within a fixed Hamming radius.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .data import _integer_ids
from .packed import PackedCodes

__all__ = [
    "CodeDatabase",
    "GroundTruth",
    "EvalReport",
    "hamming_distances",
    "rank",
    "evaluate",
    "save_ground_truth",
    "load_ground_truth",
    "write_report_json",
    "write_report_csv",
    "write_pr_csv",
]

DEFAULT_K = 300
DEFAULT_RADIUS = 2
# Top-k selection takes a dozen numpy calls, about 20 us whatever N is; one
# radix sort of all N costs about 5 ns a point. The two met between 2,000 and
# 10,000 points (m = 8 to 64, 2-core Xeon), so smaller databases sort all N.
_SELECT_MIN_N = 4096


@dataclass
class CodeDatabase:
    """Packed codes for N database points; a point's id is its row."""

    codes: PackedCodes

    @property
    def n(self) -> int:
        return self.codes.n

    @property
    def m(self) -> int:
        return self.codes.m


def _sorted_unique(ids) -> np.ndarray:
    """Sorted int64 array of the distinct ids; np.unique (numpy 2.4) is far slower.

    Raises DataFormatError, a ValueError, for a boolean array and for a
    fractional or non-finite id (data._integer_ids).
    """
    # Always a copy, even of sorted int64 ids: the caller's array is never
    # aliased, and load_ground_truth's parsed lines are freed as one block
    # that each query's N-length ranking buffers then reuse. Held as given,
    # they leave those buffers at the heap top, which glibc trims and faults
    # back in on every query: `evaluate` of 1,000 queries over 50,000 points
    # took 1.0 s instead of 0.6 s (2-core Xeon, about 165,000 page faults).
    ids = _integer_ids(ids if isinstance(ids, np.ndarray) else list(ids), "relevant ids").copy()
    if (ids[1:] > ids[:-1]).all():
        return ids
    ids.sort()
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    return ids[keep]


@dataclass
class GroundTruth:
    """Per-query database ids counted as true neighbors.

    Each query's ids are held as a sorted int64 array without repeats; the
    constructor accepts any iterables of integer ids and raises ValueError
    for a boolean mask or a fractional or non-finite id. Ids that are already
    strictly increasing are not sorted again. The ids are always copied: a
    caller's array is never held or changed. A query's ids may be empty;
    such queries are excluded from ranking-quality averages but still
    counted in the report.
    """

    relevant: list[np.ndarray]

    def __post_init__(self):
        self.relevant = [_sorted_unique(s) for s in self.relevant]

    @property
    def n_queries(self) -> int:
        return len(self.relevant)


@dataclass
class EvalReport:
    precision_at_k: float
    map: float
    pr_auc: float
    prec_within_r2: float
    k: int
    radius: int
    m: int
    n_queries: int
    n_empty_relevant: int
    # macro-averaged PR curve at distance thresholds 0..m
    pr_precision: np.ndarray = field(repr=False)
    pr_recall: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("precision_at_k", "map", "pr_auc", "prec_within_r2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v!r} outside [0, 1]")


def hamming_distances(db: CodeDatabase, query_words: np.ndarray) -> np.ndarray:
    """Distances from one packed query to every database code.

    The dtype is np.min_scalar_type(m), uint8 for m <= 255 and uint16 above,
    which is the key type the ranking sorts on.
    """
    q = np.asarray(query_words, dtype=np.uint64).reshape(-1)
    words = db.codes.words
    if q.shape[0] != words.shape[1]:
        raise ValueError("query word count does not match database")
    if q.shape[0] == 1:
        return np.bitwise_count(words[:, 0] ^ q[0])
    return np.bitwise_count(words ^ q).sum(axis=1, dtype=np.min_scalar_type(db.m))


def _kth_distance(dists: np.ndarray, k: int) -> tuple[int, int]:
    """The smallest t with at least k distances <= t, and how many there are.

    Gallops up from the minimum, then bisects. Every probe stays within
    [min, max]: numpy 2.0 may reject a Python int outside the key dtype.
    """
    lo, top = int(dists.min()), int(dists.max())
    t, step = lo, 1
    count = np.count_nonzero(dists <= t)
    while count < k:
        lo = t + 1
        t = min(t + step, top)
        step *= 2
        count = np.count_nonzero(dists <= t)
    # The answer lies in [lo, t], and count is the count at t.
    while lo < t:
        mid = (lo + t) // 2
        c = np.count_nonzero(dists <= mid)
        if c >= k:
            t, count = mid, c
        else:
            lo = mid + 1
    return t, count


def _ranked_order(
    db: CodeDatabase, query_words: np.ndarray, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Ids by ascending distance, id-ascending on ties, and every distance.

    With k None the order covers all N points. With k given it is the first
    k of that order: the k nearest lie within the k-th smallest distance t,
    so only the points within t are sorted, unless they are more than half
    of N or N is below _SELECT_MIN_N, when sorting all N costs no more.
    """
    dists = hamming_distances(db, query_words)
    if k and dists.size >= _SELECT_MIN_N and 2 * k <= dists.size:
        t, count = _kth_distance(dists, k)
        if 2 * count <= dists.size:
            cand = np.flatnonzero(dists <= t)  # ascending ids: the stable sort keeps ties in id order
            return cand[np.argsort(dists[cand], kind="stable")[:k]], dists
    # Distances are at most m; a stable sort of 8- or 16-bit keys is a radix sort.
    return np.argsort(dists, kind="stable")[:k], dists


def rank(db: CodeDatabase, query_words: np.ndarray, k: int) -> np.ndarray:
    """Top-k database ids by ascending distance, id-ascending on ties."""
    if not 0 <= k <= db.n:
        raise ValueError(f"k={k} outside [0, N={db.n}]")
    order, _ = _ranked_order(db, query_words, k)
    return order


def _query_stats(db: CodeDatabase, qwords, relevant, k, radius, m, rel_db, one_to_n):
    """AP, P@k, radius precision and the PR-curve precision and recall rows of
    one query whose relevant set is nonempty.

    Past the ranking, the work is over the R relevant points: their
    distances, read through the sorted ids, give the PR counts, and hits,
    their 0-based ranks in ascending order, give AP and P@k. The i-th hit
    is preceded by i relevant points, and searchsorted(hits, k) of them lie
    in the top k, so no N-length cumulative sum is needed. `rel_db` is an
    all-False mask of N entries, set here and cleared before returning;
    `one_to_n` is the float64 arange(1, N + 1). The caller allocates both once.
    """
    order, dists = _ranked_order(db, qwords)
    # n_ret[t] points lie within distance t, n_rel_ret[t] of them relevant.
    # The order sorts the distances, so n_ret is a search of the sorted keys.
    thresholds = np.arange(m + 1, dtype=dists.dtype)
    n_ret = np.searchsorted(dists, thresholds, side="right", sorter=order).astype(np.float64)
    n_rel_ret = np.cumsum(np.bincount(np.take(dists, relevant), minlength=m + 1)).astype(np.float64)
    t = min(radius, m)
    prec_r2 = float(n_rel_ret[t] / n_ret[t]) if n_ret[t] else 0.0

    rel_db[relevant] = True
    hits = np.flatnonzero(np.take(rel_db, order))
    rel_db[relevant] = False
    ap = float(np.mean(one_to_n[: hits.size] / (hits + 1.0)))
    p_at_k = float(np.searchsorted(hits, k) / k)

    prec_curve = np.divide(n_rel_ret, n_ret, out=np.zeros(m + 1), where=n_ret > 0)
    recall_curve = n_rel_ret / relevant.size
    return ap, p_at_k, prec_r2, prec_curve, recall_curve


def evaluate(
    db: CodeDatabase,
    queries: PackedCodes,
    gt: GroundTruth,
    k: int = DEFAULT_K,
    radius: int = DEFAULT_RADIUS,
) -> EvalReport:
    """Score a query set against the database.

    Averaging conventions: precision at K and MAP average over queries
    with nonempty relevant sets; radius precision averages over all
    queries with empty retrieval counting as 0, and a query with an empty
    relevant set has radius precision 0; the PR curve is the
    per-threshold macro average over the scored queries, with empty
    retrieval at a threshold counting as precision 0. PR area is the
    trapezoid over the m+1 curve points.
    """
    if queries.m != db.m:
        raise ValueError(f"code length mismatch: queries m={queries.m}, database m={db.m}")
    if gt.n_queries != queries.n:
        raise ValueError(f"ground truth covers {gt.n_queries} queries, codes cover {queries.n}")
    if queries.n == 0:
        raise ValueError("no queries to evaluate")
    if not 1 <= k <= db.n:
        raise ValueError(f"k={k} outside [1, N={db.n}]")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    for qi, relevant in enumerate(gt.relevant):
        if relevant.size and (relevant[0] < 0 or relevant[-1] >= db.n):
            raise ValueError(f"ground truth for query {qi} names unknown database ids")

    m, nq = db.m, queries.n
    scored = np.array([relevant.size > 0 for relevant in gt.relevant])
    if not scored.any():
        raise ValueError("every query has an empty relevant set; MAP is undefined")

    ap, p_at_k, prec_r2 = np.zeros(nq), np.zeros(nq), np.zeros(nq)
    prec, recall = np.zeros((nq, m + 1)), np.zeros((nq, m + 1))
    rel_db, one_to_n = np.zeros(db.n, dtype=bool), np.arange(1, db.n + 1, dtype=np.float64)
    for qi in np.flatnonzero(scored):
        ap[qi], p_at_k[qi], prec_r2[qi], prec[qi], recall[qi] = _query_stats(
            db, queries.words[qi], gt.relevant[qi], k, radius, m, rel_db, one_to_n
        )

    prec_curve = prec[scored].mean(axis=0)
    recall_curve = recall[scored].mean(axis=0)
    return EvalReport(
        precision_at_k=float(p_at_k[scored].mean()),
        map=float(ap[scored].mean()),
        pr_auc=float(np.trapezoid(prec_curve, recall_curve)),
        prec_within_r2=float(prec_r2.mean()),
        k=k,
        radius=radius,
        m=m,
        n_queries=nq,
        n_empty_relevant=int(nq - scored.sum()),
        pr_precision=prec_curve,
        pr_recall=recall_curve,
    )


def save_ground_truth(gt: GroundTruth, path) -> None:
    """One line per query: space-separated relevant db ids, empty line = empty set."""
    with open(path, "w", encoding="utf-8") as fh:
        for relevant in gt.relevant:
            fh.write(" ".join(map(str, relevant.tolist())))
            fh.write("\n")


_INT64_MAX = np.iinfo(np.int64).max
_LONE_SIGN = re.compile(r"[+-](?!\d)")


def load_ground_truth(path) -> GroundTruth:
    relevant = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # fromstring parses in C. It reads an unstripped blank line or a lone sign as 0, joins
            # a lone sign to the next id, and saturates an id past int64 instead of failing.
            text = line.strip()
            try:
                ids = np.fromstring(text, dtype=np.int64, sep=" ")
            except ValueError:
                ids = None
            lone_sign = ("-" in text or "+" in text) and _LONE_SIGN.search(text)
            if ids is None or lone_sign or _INT64_MAX in ids:
                raise ValueError(f"malformed ground truth at line {lineno}: {text!r}")
            if ids.size and ids.min() < 0:
                raise ValueError(f"malformed ground truth at line {lineno}: negative id")
            relevant.append(ids)
    return GroundTruth(relevant)


_METRIC_FIELDS = ("precision_at_k", "map", "pr_auc", "prec_within_r2")


def write_report_json(report: EvalReport, path) -> None:
    doc = {name: getattr(report, name) for name in _METRIC_FIELDS}
    doc.update(
        k=report.k,
        radius=report.radius,
        m=report.m,
        n_queries=report.n_queries,
        n_empty_relevant=report.n_empty_relevant,
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_report_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name in _METRIC_FIELDS:
            writer.writerow([name, repr(getattr(report, name))])


def write_pr_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "precision", "recall"])
        for t in range(report.m + 1):
            writer.writerow([t, repr(float(report.pr_precision[t])), repr(float(report.pr_recall[t]))])
