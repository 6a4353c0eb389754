"""Naive reference implementations used to cross-check the package.

Everything here is deliberately slow and literal: per-bit loops, full
enumeration, float arithmetic, Python-level sorting. Nothing imports the
implementation's fast paths beyond the shared loss formulas. Distances
come from scipy's cdist, which the package itself does not use. The
reference_* retrieval routines are the exception: they keep the package's
former vectorized code, so that its faster replacement can be held to ==.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist


# ---------------------------------------------------------------- losses

def direct_pair_loss(tag: str, m: int, s: int, y: float) -> float:
    """Literal per-pair loss formulas, written independently of the package."""
    d_h = (m - s) / 2.0
    if tag == "ksh":
        return float((s - m * y) ** 2)
    if tag == "bre":
        yprime = 0.0 if y > 0 else 1.0
        return float((d_h / m - yprime) ** 2)
    if tag == "splh":
        return float(math.exp(-y * s / m))
    if tag == "ee":
        if y > 0:
            return float(d_h)
        if y < 0:
            return float(100.0 * math.exp(-d_h / m))
        return 0.0
    if tag == "exph":
        shift = m if y < 0 else 0.0
        return float(math.exp((y * d_h + shift) / m))
    raise ValueError(tag)


def total_objective(tag: str, m: int, bits: np.ndarray, pairs) -> float:
    """Doubled sum of pair losses over stored unordered pairs (i<j)."""
    total = 0.0
    for (a, b, y) in pairs:
        s = int(np.dot(bits[a].astype(int), bits[b].astype(int)))
        total += direct_pair_loss(tag, m, s, y)
    return 2.0 * total


# ---------------------------------------------------------- supervision

def sample_partners(n: int, pairs_per_point: int, seed: int) -> set[tuple[int, int]]:
    """Per-point partner sampling into a set of (i, j) tuples with i < j.

    The same rng.choice call per point, in the same order, as the package.
    """
    if pairs_per_point < 1:
        raise ValueError("pairs_per_point must be >= 1")
    if pairs_per_point > n - 1:
        raise ValueError(f"pairs_per_point {pairs_per_point} exceeds n-1 = {n - 1}")
    pairs: set[tuple[int, int]] = set()
    if pairs_per_point == n - 1:
        for a in range(n):
            for b in range(a + 1, n):
                pairs.add((a, b))
        return pairs
    rng = np.random.default_rng(seed)
    for a in range(n):
        others = rng.choice(n - 1, size=pairs_per_point, replace=False)
        others = others + (others >= a)
        for b in others:
            pairs.add((a, int(b)) if a < b else (int(b), a))
    return pairs


# ------------------------------------------------------------ distances

def cdist_distance_labels(features: np.ndarray, percentile: float, i, j) -> np.ndarray:
    """Labels of the pairs (i, j) under distance supervision, from a full cdist."""
    n = features.shape[0]
    dist = cdist(features, features)
    np.fill_diagonal(dist, np.inf)
    pair_dist = dist[i, j]
    kth = min(max(math.ceil(percentile * (n - 1) / 100.0), 1), n - 1) - 1
    cutoff = np.sort(dist, axis=1)[:, kth]
    return np.where(pair_dist <= np.maximum(cutoff[i], cutoff[j]), 1.0, -1.0)


def cdist_bandwidth(features: np.ndarray, t: float, k: int) -> float:
    """t times the mean distance to each point's k nearest neighbours (k < n)."""
    dist = cdist(features, features)
    np.fill_diagonal(dist, np.inf)
    return t * float(np.sort(dist, axis=1)[:, :k].mean())


def cdist_kernel_matrix(points: np.ndarray, anchors: np.ndarray, bandwidth: float) -> np.ndarray:
    """RBF responses exp(-||x - anchor||^2 / (2 sigma^2))."""
    return np.exp(-cdist(points, anchors, "sqeuclidean") / (2.0 * bandwidth**2))


# ------------------------------------------------------------ classifiers

def hinge_sgd(feats: np.ndarray, column: np.ndarray, c: float | None, epochs: int, seed: int):
    """One bit's seeded hinge SGD, one sample at a time; returns (w, b).

    The column must hold both signs. Step size 1 / (reg * (t + t0)) with
    reg = 1 / (c n) and t0 = 1 / reg, one fresh permutation per epoch, and
    the lowest-objective end-of-epoch snapshot, the zero classifier first.
    """
    feats = np.asarray(feats, dtype=np.float64)
    column = np.asarray(column, dtype=np.float64)
    n, p = feats.shape
    c = c if c is not None else 1000.0 / n
    reg = 1.0 / (c * n)

    def objective(w, b):
        total = 0.0
        for x, y in zip(feats, column):
            total += max(0.0, 1.0 - y * (x @ w + b))
        return 0.5 * reg * float(w @ w) + total / n

    rng = np.random.default_rng(seed)
    w = np.zeros(p)
    b = 0.0
    best_w, best_b = w.copy(), b
    best_obj = objective(w, b)
    t0 = 1.0 / reg
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(n):
            t += 1
            lr = 1.0 / (reg * (t + t0))
            x = feats[idx]
            y = column[idx]
            if y * (x @ w + b) < 1.0:
                w *= 1.0 - lr * reg
                w += (lr * y) * x
                b += lr * y
            else:
                w *= 1.0 - lr * reg
        obj = objective(w, b)
        if obj < best_obj:
            best_obj = obj
            best_w, best_b = w.copy(), b
    return best_w, best_b


# ------------------------------------------------------------------ bqp

def bqp_objective(a_dense: np.ndarray, z: np.ndarray) -> float:
    return float(z.astype(float) @ a_dense @ z.astype(float))


def brute_force_bqp(a_dense: np.ndarray) -> tuple[float, np.ndarray]:
    """Exhaustive minimum of z'Az over all sign vectors (first minimizer)."""
    n = a_dense.shape[0]
    best_val, best_z = math.inf, None
    for combo in itertools.product((-1, 1), repeat=n):
        z = np.array(combo, dtype=float)
        val = bqp_objective(a_dense, z)
        if val < best_val:
            best_val, best_z = val, np.array(combo, dtype=np.int8)
    return best_val, best_z


# ------------------------------------------------------------ retrieval

def naive_hamming(bits_a: np.ndarray, bits_b: np.ndarray) -> int:
    """Per-position loop over 0/1 bit vectors."""
    assert len(bits_a) == len(bits_b)
    d = 0
    for x, v in zip(bits_a, bits_b):
        if int(x) != int(v):
            d += 1
    return d


def naive_rank(db_bits: np.ndarray, db_ids, query_bits: np.ndarray):
    """Full stable sort by (float distance, id)."""
    rows = []
    for row, rid in enumerate(db_ids):
        rows.append((float(naive_hamming(db_bits[row], query_bits)), int(rid)))
    return sorted(rows, key=lambda item: (item[0], item[1]))


def reference_hamming_distances(db_words: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Row sums of per-word popcounts as int64, the package's former distance routine."""
    q = np.asarray(query_words, dtype=np.uint64).reshape(-1)
    return np.bitwise_count(db_words ^ q).sum(axis=1, dtype=np.int64)


def reference_ranked_order(db, query_words):
    dists = reference_hamming_distances(db.codes.words, query_words)
    order = np.argsort(dists.astype(np.min_scalar_type(db.m)), kind="stable")
    return order, dists


def reference_query_stats(db, qwords, relevant, k, radius, m):
    """The package's former per-query metric ingredients, kept verbatim.

    Full-length relevance mask, cumulative sum and radius mask over int64
    distances; the package's _query_stats must match it with ==.
    """
    order, dists = reference_ranked_order(db, qwords)
    rel_db = np.zeros(db.n, dtype=bool)
    rel_db[relevant] = True

    within = dists <= radius
    n_within = int(within.sum())
    prec_r2 = float((within & rel_db).sum() / n_within) if n_within else 0.0

    if not relevant.size:
        return None, None, prec_r2, None, None

    rel_sorted = rel_db[order]
    cum = np.cumsum(rel_sorted)
    hits = np.flatnonzero(rel_sorted)
    ap = float(np.mean(cum[hits] / (hits + 1.0)))
    p_at_k = float(cum[k - 1] / k) if k > 0 else 0.0

    n_ret = np.cumsum(np.bincount(dists, minlength=m + 1)[: m + 1]).astype(np.float64)
    n_rel_ret = np.cumsum(np.bincount(dists[rel_db], minlength=m + 1)[: m + 1]).astype(np.float64)
    prec_curve = np.divide(n_rel_ret, n_ret, out=np.zeros(m + 1), where=n_ret > 0)
    recall_curve = n_rel_ret / relevant.size
    return ap, p_at_k, prec_r2, prec_curve, recall_curve


def naive_metrics(db_bits, db_ids, query_bits_list, relevant_sets, k, radius, m):
    """The four retrieval metrics, computed by definition with loops."""
    aps, pks, r2s = [], [], []
    prec_rows, rec_rows = [], []
    for qbits, relevant in zip(query_bits_list, relevant_sets):
        relset = {int(i) for i in relevant}
        ranking = naive_rank(db_bits, db_ids, qbits)
        within = [(dist, rid) for dist, rid in ranking if dist <= radius]
        if within:
            r2s.append(sum(1 for _, rid in within if rid in relset) / len(within))
        else:
            r2s.append(0.0)
        if not relset:
            continue
        hits = 0
        precisions = []
        for pos, (dist, rid) in enumerate(ranking, start=1):
            if rid in relset:
                hits += 1
                precisions.append(hits / pos)
        aps.append(sum(precisions) / len(relset))
        topk = ranking[:k]
        pks.append(sum(1 for _, rid in topk if rid in relset) / k)
        ret_by_dist = [0] * (m + 1)
        rel_by_dist = [0] * (m + 1)
        for dist, rid in ranking:
            ret_by_dist[int(dist)] += 1
            if rid in relset:
                rel_by_dist[int(dist)] += 1
        prec_t, rec_t = [], []
        ret_cum = rel_cum = 0
        for thr in range(m + 1):
            ret_cum += ret_by_dist[thr]
            rel_cum += rel_by_dist[thr]
            prec_t.append(rel_cum / ret_cum if ret_cum else 0.0)
            rec_t.append(rel_cum / len(relset))
        prec_rows.append(prec_t)
        rec_rows.append(rec_t)
    if not aps:
        raise ValueError("all relevant sets empty")
    prec_curve = [sum(col) / len(col) for col in zip(*prec_rows)]
    rec_curve = [sum(col) / len(col) for col in zip(*rec_rows)]
    auc = 0.0
    for t in range(1, m + 1):
        auc += 0.5 * (prec_curve[t] + prec_curve[t - 1]) * (rec_curve[t] - rec_curve[t - 1])
    return {
        "precision_at_k": sum(pks) / len(pks),
        "map": sum(aps) / len(aps),
        "pr_auc": auc,
        "prec_within_r2": sum(r2s) / len(r2s),
        "pr_precision": prec_curve,
        "pr_recall": rec_curve,
    }
