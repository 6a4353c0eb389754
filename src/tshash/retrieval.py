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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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
    "load_report_json",
]

DEFAULT_K = 300
DEFAULT_RADIUS = 2


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

    Raises ValueError for a boolean array and for a fractional or non-finite id.
    """
    arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    if arr.dtype == np.bool_:
        raise ValueError("relevant ids must be integers, not a boolean mask")
    if arr.dtype.kind not in "iu":
        values = arr.astype(np.float64)
        if not (np.isfinite(values).all() and (values == np.trunc(values)).all()):
            raise ValueError("relevant ids must be integers")
    ids = arr.astype(np.int64)
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
    strictly increasing are not sorted again. A query's ids may be empty;
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
    # per-query values for the queries with nonempty relevant sets
    scored_queries: np.ndarray = field(repr=False)
    per_query_ap: np.ndarray = field(repr=False)

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


def _ranked_order(db: CodeDatabase, query_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dists = hamming_distances(db, query_words)
    # Distances are at most m; a stable sort of 8- or 16-bit keys is a radix sort.
    return np.argsort(dists, kind="stable"), dists


def rank(db: CodeDatabase, query_words: np.ndarray, k: int) -> np.ndarray:
    """Top-k database ids by ascending distance, id-ascending on ties."""
    if not 0 <= k <= db.n:
        raise ValueError(f"k={k} outside [0, N={db.n}]")
    order, _ = _ranked_order(db, query_words)
    return order[:k]


def _query_stats(db: CodeDatabase, qwords, relevant, k, radius, m):
    """Metric ingredients for one query; ranking parts None when relevant is empty.

    Past the ranking, the work is over the R relevant points: their
    distances, read through the sorted ids, give the PR counts, and hits,
    their 0-based ranks in ascending order, give AP and P@k. The i-th hit
    is preceded by i relevant points, and searchsorted(hits, k) of them lie
    in the top k, so no N-length cumulative sum is needed.
    """
    order, dists = _ranked_order(db, qwords)
    # n_ret[t] points lie within distance t, n_rel_ret[t] of them relevant
    n_ret = np.cumsum(np.bincount(dists, minlength=m + 1)).astype(np.float64)
    n_rel_ret = np.cumsum(np.bincount(np.take(dists, relevant), minlength=m + 1)).astype(np.float64)
    t = min(radius, m)
    prec_r2 = float(n_rel_ret[t] / n_ret[t]) if n_ret[t] else 0.0

    if not relevant.size:
        return None, None, prec_r2, None, None

    rel_db = np.zeros(db.n, dtype=bool)
    rel_db[relevant] = True
    hits = np.flatnonzero(np.take(rel_db, order))
    ap = float(np.mean(np.arange(1, hits.size + 1) / (hits + 1.0)))
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
    threads: int = 1,
) -> EvalReport:
    """Score a query set against the database.

    Averaging conventions: precision at K and MAP average over queries
    with nonempty relevant sets; radius precision averages over all
    queries with empty retrieval counting as 0; the PR curve is the
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

    m = db.m

    def work(qi: int):
        return _query_stats(db, queries.words[qi], gt.relevant[qi], k, radius, m)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            stats = list(pool.map(work, range(queries.n)))
    else:
        stats = [work(qi) for qi in range(queries.n)]

    scored = [qi for qi, s in enumerate(stats) if s[0] is not None]
    if not scored:
        raise ValueError("every query has an empty relevant set; MAP is undefined")

    aps = np.array([stats[qi][0] for qi in scored])
    pks = np.array([stats[qi][1] for qi in scored])
    prec_r2 = float(np.mean([s[2] for s in stats]))
    prec_curve = np.mean([stats[qi][3] for qi in scored], axis=0)
    recall_curve = np.mean([stats[qi][4] for qi in scored], axis=0)
    auc = float(np.trapezoid(prec_curve, recall_curve))

    return EvalReport(
        precision_at_k=float(np.mean(pks)),
        map=float(np.mean(aps)),
        pr_auc=auc,
        prec_within_r2=prec_r2,
        k=k,
        radius=radius,
        m=m,
        n_queries=queries.n,
        n_empty_relevant=queries.n - len(scored),
        pr_precision=prec_curve,
        pr_recall=recall_curve,
        scored_queries=np.array(scored, dtype=np.int64),
        per_query_ap=aps,
    )


def save_ground_truth(gt: GroundTruth, path) -> None:
    """One line per query: space-separated relevant db ids, empty line = empty set."""
    with open(path, "w", encoding="utf-8") as fh:
        for relevant in gt.relevant:
            fh.write(" ".join(map(str, relevant.tolist())))
            fh.write("\n")


_INT64_MAX = np.iinfo(np.int64).max


def load_ground_truth(path) -> GroundTruth:
    relevant = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # fromstring parses in C. It reads an unstripped blank line as [0],
            # and it saturates an id past int64 at the maximum instead of failing.
            text = line.strip()
            try:
                ids = np.fromstring(text, dtype=np.int64, sep=" ")
            except ValueError:
                ids = None
            if ids is None or _INT64_MAX in ids:
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


def load_report_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
