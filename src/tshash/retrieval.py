"""Hamming-space ranking over packed codes and retrieval quality metrics.

A database point's id is its row in the database codes. Rankings sort by
ascending Hamming distance with ties broken by ascending id, which makes
every downstream metric deterministic. Every ranking orders one key per
point, dist << shift | id << 1 | flag, whose layout the CodeDatabase fixes
when it is built; the keys are unique and sort in (distance, id) order.
Top-k ranking partitions the keys at k and sorts the k smallest
(_ranked_order); evaluation sets the flag of the relevant points and sorts
all N keys (_query_stats). Four metrics are reported: precision at K, mean
average precision over the full ranking, area under the precision-recall
curve sampled at the m+1 integer distance thresholds, and precision within
a fixed Hamming radius.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .data import _INT64_MAX, _integer_ids, _sorted_distinct
from .packed import PackedCodes

__all__ = [
    "CodeDatabase",
    "GroundTruth",
    "EvalReport",
    "hamming_distances",
    "rank",
    "evaluate",
    "load_ground_truth",
    "write_report_json",
    "write_report_csv",
    "write_pr_csv",
]

DEFAULT_K = 300
DEFAULT_RADIUS = 2


@dataclass(eq=False)
class CodeDatabase:
    """Packed codes for N database points; a point's id is its row.

    It also holds the layout of the sort keys dist << shift | id << 1 | flag
    that every ranking orders (key_dtype and shift, from _key_layout) and the
    read-only id keys id << 1, built once with the database.
    """

    codes: PackedCodes
    key_dtype: type = field(init=False, repr=False)
    shift: int = field(init=False, repr=False)
    id_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.key_dtype, self.shift = _key_layout(self.n, self.m)
        self.id_keys = np.arange(0, 2 * self.n, 2, dtype=self.key_dtype)
        self.id_keys.flags.writeable = False

    @property
    def n(self) -> int:
        return self.codes.n

    @property
    def m(self) -> int:
        return self.codes.m


def _sorted_unique(ids) -> np.ndarray:
    """Sorted int64 copy of the distinct ids (data._sorted_distinct).

    Always a copy, even of sorted int64 ids, so the caller's array is never
    aliased. Raises DataFormatError, a ValueError, for a boolean array and
    for a fractional, non-finite or out-of-int64 id (data._integer_ids).
    """
    ids = _integer_ids(ids if isinstance(ids, np.ndarray) else list(ids), "relevant ids").copy()
    if (ids[1:] > ids[:-1]).all():
        return ids
    return _sorted_distinct(ids)


@dataclass(eq=False)
class GroundTruth:
    """Per-query database ids counted as true neighbors.

    Each query's ids are held as a read-only sorted int64 array without
    repeats; the constructor accepts any iterables of integer ids and raises
    ValueError for a boolean mask or a fractional, non-finite or out-of-int64
    id. Ids that are already strictly increasing are not sorted again. The
    ids are always copied, so a caller's array is never held or changed, and
    an object given for several queries is copied once: those queries share
    one array. A query's ids may be empty; such queries are excluded from
    ranking-quality averages but still counted in the report.
    """

    relevant: list[np.ndarray]

    def __post_init__(self):
        # id(given) -> (given, ids); holding `given` keeps its id from being reused.
        held = {}
        relevant = []
        for given in self.relevant:
            entry = held.get(id(given))
            if entry is None:
                ids = _sorted_unique(given)
                ids.flags.writeable = False
                entry = held[id(given)] = (given, ids)
            relevant.append(entry[1])
        self.relevant = relevant

    @property
    def n_queries(self) -> int:
        return len(self.relevant)


@dataclass(eq=False)
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


def hamming_distances(
    db: CodeDatabase,
    query_words: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Distances from one packed query to every database code.

    The dtype is np.min_scalar_type(m), uint8 for m <= 255 and uint16 above,
    the narrowest that holds every distance. `out`, if given, is an N-length
    array of that dtype that receives the distances, and `scratch` an array
    of the database words' shape and dtype that receives their XOR with the
    query. Given both, the call allocates nothing N-length for codes of one
    word (m <= 64); longer codes still allocate their per-word bit counts.
    """
    q = np.asarray(query_words, dtype=np.uint64).reshape(-1)
    words = db.codes.words
    if q.shape[0] != words.shape[1]:
        raise ValueError("query word count does not match database")
    xor = np.bitwise_xor(words, q, out=scratch)
    if q.shape[0] == 1:
        return np.bitwise_count(xor[:, 0], out=out)
    return np.bitwise_count(xor).sum(axis=1, dtype=np.min_scalar_type(db.m), out=out)


def _key_layout(n: int, m: int) -> tuple[type, int]:
    """The dtype and shift of the sort keys dist << shift | id << 1 | flag.

    The low `shift` bits hold id << 1 | flag, below 2n. Every key lies below
    (m + 1) << shift, the bound evaluate searches for at distance m, and the
    keys are uint32 when that bound fits; uint64 keys sort about half as fast.
    """
    shift = (2 * n - 1).bit_length()
    return (np.uint32 if (m + 1) << shift < 1 << 32 else np.uint64), shift


def _ranked_order(db: CodeDatabase, query_words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest ids (intp), by ascending distance and id on ties, and their distances.

    The keys dist << shift | id << 1 are unique and ordered as the ranking
    is, so partitioning them at k - 1 and sorting the k smallest gives the
    top k; the ids and distances are read back from those keys.
    """
    dists = hamming_distances(db, query_words)
    keys = np.left_shift(dists, db.shift, dtype=db.key_dtype)
    keys |= db.id_keys
    if 0 < k < keys.size:
        keys.partition(k - 1)
    top = keys[:k]
    top.sort()
    ids = (top & ((1 << db.shift) - 1)) >> 1
    return ids.astype(np.intp), top >> db.shift


def rank(db: CodeDatabase, query_words: np.ndarray, k: int) -> np.ndarray:
    """Top-k database ids by ascending distance, id-ascending on ties."""
    if not 0 <= k <= db.n:
        raise ValueError(f"k={k} outside [0, N={db.n}]")
    order, _ = _ranked_order(db, query_words, k)
    return order


class _RankBuffers:
    """The N-length arrays that evaluate ranks every query in, allocated once."""

    def __init__(self, db: CodeDatabase):
        n, m = db.n, db.m
        self.xor = np.empty_like(db.codes.words)
        self.dists = np.empty(n, np.min_scalar_type(m))
        self.keys = np.empty(n, db.key_dtype)
        # The keys of the points within distance t lie below bounds[t].
        self.bounds = np.arange(1, m + 2, dtype=db.key_dtype) << db.shift
        self.odd = np.empty(n, dtype=bool)
        self.one_to_n = np.arange(1, n + 1, dtype=np.float64)


def _query_stats(db: CodeDatabase, buf: _RankBuffers, qwords, relevant, k):
    """AP, P@k and the PR-curve precision and recall rows of one query whose
    relevant set is nonempty.

    One in-place sort of the keys dist << shift | id << 1 | relevant ranks
    the query in _ranked_order's (distance, id) order, as ids are unique.
    Counting keys below each bound gives n_ret, the odd (relevant) keys'
    positions give hits, the 0-based ranks of the relevant points in
    ascending order, and the hits below n_ret[t] give n_rel_ret. The i-th
    hit is preceded by i relevant points, and searchsorted(hits, k) of them
    lie in the top k, so no N-length cumulative sum is needed.
    """
    m = db.m
    dists = hamming_distances(db, qwords, out=buf.dists, scratch=buf.xor)
    keys = buf.keys
    np.copyto(keys, dists)
    keys <<= db.shift
    keys |= db.id_keys
    keys[relevant] |= 1
    keys.sort()
    # n_ret[t] points lie within distance t, n_rel_ret[t] of them relevant.
    n_ret = np.searchsorted(keys, buf.bounds)
    np.bitwise_and(keys, 1, out=buf.odd, casting="unsafe")
    hits = np.flatnonzero(buf.odd)
    n_rel_ret = np.searchsorted(hits, n_ret).astype(np.float64)
    n_ret = n_ret.astype(np.float64)

    ap = float(np.mean(buf.one_to_n[: hits.size] / (hits + 1.0)))
    p_at_k = float(np.searchsorted(hits, k) / k)

    prec_curve = np.divide(n_rel_ret, n_ret, out=np.zeros(m + 1), where=n_ret > 0)
    recall_curve = n_rel_ret / relevant.size
    return ap, p_at_k, prec_curve, recall_curve


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
    queries with empty retrieval counting as 0, and a query with an empty
    relevant set has radius precision 0; the PR curve is the
    per-threshold macro average over the scored queries, with empty
    retrieval at a threshold counting as precision 0. PR area is the
    trapezoid over the m+1 curve points.

    The scored queries are ranked on w = min(threads, their number,
    os.cpu_count()) workers: worker i takes scored queries i, i + w,
    i + 2w, ... and ranks them in its own _RankBuffers. The calling thread
    is worker 0, so w = 1 starts no thread. The ranking's sort and scans
    run in numpy, which releases the GIL. Each query's values go to its own
    rows and are averaged in query order after the join, so the report
    does not depend on the thread count.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
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

    ap, p_at_k = np.zeros(nq), np.zeros(nq)
    prec, recall = np.zeros((nq, m + 1)), np.zeros((nq, m + 1))
    todo = np.flatnonzero(scored)
    workers = min(threads, todo.size, os.cpu_count() or 1)

    def rank_part(part):
        buf = _RankBuffers(db)
        for qi in todo[part::workers]:
            ap[qi], p_at_k[qi], prec[qi], recall[qi] = _query_stats(
                db, buf, queries.words[qi], gt.relevant[qi], k
            )

    if workers == 1:
        rank_part(0)
    else:
        # here, not at the top: it costs every other command about 11 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            parts = [pool.submit(rank_part, part) for part in range(1, workers)]
            rank_part(0)
            for part in parts:
                part.result()

    prec_curve = prec[scored].mean(axis=0)
    recall_curve = recall[scored].mean(axis=0)
    return EvalReport(
        precision_at_k=float(p_at_k[scored].mean()),
        map=float(ap[scored].mean()),
        pr_auc=float(np.trapezoid(prec_curve, recall_curve)),
        prec_within_r2=float(prec[:, min(radius, m)].mean()),
        k=k,
        radius=radius,
        m=m,
        n_queries=nq,
        n_empty_relevant=int(nq - scored.sum()),
        pr_precision=prec_curve,
        pr_recall=recall_curve,
    )


_LONE_SIGN = re.compile(r"[+-](?!\d)")


def load_ground_truth(path) -> GroundTruth:
    """Read a ground-truth file; ValueError names the first malformed line.

    A repeated line, as in label ground truth with one distinct line per
    class, is parsed once, and its queries share one array. Lines are told
    apart by their SHA-256 digest, so the text of every distinct line (as
    much as the file) is not held while reading.
    """
    import hashlib  # here, not at the top: it costs every other command about 4 ms

    parsed: dict[bytes, np.ndarray] = {}
    relevant = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            digest = hashlib.sha256(line.encode()).digest()
            ids = parsed.get(digest)
            if ids is None:
                ids = parsed[digest] = _parse_ids(line.strip(), lineno)
            relevant.append(ids)
    return GroundTruth(relevant)


def _parse_ids(text: str, lineno: int) -> np.ndarray:
    # fromstring parses in C. It reads an unstripped blank line or a lone sign as 0, joins
    # a lone sign to the next id, and saturates an id past int64 instead of failing.
    try:
        ids = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:
        ids = None
    lone_sign = ("-" in text or "+" in text) and _LONE_SIGN.search(text)
    if ids is None or lone_sign or _INT64_MAX in ids:
        raise ValueError(f"malformed ground truth at line {lineno}: {text!r}")
    if ids.size and ids.min() < 0:
        raise ValueError(f"malformed ground truth at line {lineno}: negative id")
    return ids


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
