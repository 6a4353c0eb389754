"""Hamming-space ranking over packed codes and retrieval quality metrics.

Rankings sort by ascending Hamming distance with ties broken by ascending
database id, which makes every downstream metric deterministic and
invariant to database row order. Four metrics are reported: precision at
K, mean average precision over the full ranking, area under the
precision-recall curve sampled at the m+1 integer distance thresholds,
and precision within a fixed Hamming radius.
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
    """Packed codes for N database points plus their source row ids."""

    codes: PackedCodes
    ids: np.ndarray | None = None

    def __post_init__(self):
        if self.ids is None:
            self.ids = np.arange(self.codes.n, dtype=np.int64)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        if self.ids.shape != (self.codes.n,):
            raise ValueError(f"ids length {self.ids.shape} does not match N={self.codes.n}")
        if len(np.unique(self.ids)) != self.codes.n:
            raise ValueError("database ids must be unique")
        self.ids.flags.writeable = False

    @property
    def n(self) -> int:
        return self.codes.n

    @property
    def m(self) -> int:
        return self.codes.m


@dataclass
class GroundTruth:
    """Per-query sets of database ids counted as true neighbors.

    Sets may be empty; queries with empty sets are excluded from
    ranking-quality averages but still counted in the report.
    """

    relevant: list[frozenset[int]]

    def __post_init__(self):
        self.relevant = [frozenset(int(i) for i in s) for s in self.relevant]

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
    """Distances from one packed query to every database code."""
    q = np.asarray(query_words, dtype=np.uint64).reshape(-1)
    if q.shape[0] != db.codes.words.shape[1]:
        raise ValueError("query word count does not match database")
    return np.bitwise_count(db.codes.words ^ q).sum(axis=1, dtype=np.int64)


def _ranked_order(db: CodeDatabase, query_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dists = hamming_distances(db, query_words)
    order = np.lexsort((db.ids, dists))
    return order, dists


def rank(db: CodeDatabase, query_words: np.ndarray, k: int) -> np.ndarray:
    """Top-k database ids by ascending distance, id-ascending on ties."""
    if not 0 <= k <= db.n:
        raise ValueError(f"k={k} outside [0, N={db.n}]")
    order, _ = _ranked_order(db, query_words)
    return db.ids[order[:k]]


def _query_stats(db: CodeDatabase, qwords, relset, k, radius, m):
    """Metric ingredients for one query; ranking parts None when relset is empty."""
    order, dists = _ranked_order(db, qwords)
    rel_db = np.isin(db.ids, np.fromiter(relset, dtype=np.int64, count=len(relset)))

    within = dists <= radius
    n_within = int(within.sum())
    prec_r2 = float((within & rel_db).sum() / n_within) if n_within else 0.0

    if not relset:
        return None, None, prec_r2, None, None

    rel_sorted = rel_db[order]
    cum = np.cumsum(rel_sorted)
    hits = np.flatnonzero(rel_sorted)
    ap = float(np.mean(cum[hits] / (hits + 1.0)))
    p_at_k = float(cum[k - 1] / k) if k > 0 else 0.0

    n_ret = np.cumsum(np.bincount(dists, minlength=m + 1)[: m + 1]).astype(np.float64)
    n_rel_ret = np.cumsum(np.bincount(dists[rel_db], minlength=m + 1)[: m + 1]).astype(np.float64)
    prec_curve = np.divide(n_rel_ret, n_ret, out=np.zeros(m + 1), where=n_ret > 0)
    recall_curve = n_rel_ret / len(relset)
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
    known = set(db.ids.tolist())
    for qi, relset in enumerate(gt.relevant):
        if not relset <= known:
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
        for relset in gt.relevant:
            fh.write(" ".join(str(i) for i in sorted(relset)))
            fh.write("\n")


def load_ground_truth(path) -> GroundTruth:
    sets = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                sets.append(frozenset())
                continue
            try:
                ids = frozenset(int(tok) for tok in line.split())
            except ValueError:
                raise ValueError(f"malformed ground truth at line {lineno}: {line!r}") from None
            if any(i < 0 for i in ids):
                raise ValueError(f"malformed ground truth at line {lineno}: negative id")
            sets.append(ids)
    return GroundTruth(sets)


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
