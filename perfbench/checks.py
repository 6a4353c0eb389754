"""Independent checks of the files each tshash CLI stage writes.

Nothing here imports tshash: the codes format is decoded from its
documented layout and query answers are recomputed by brute force, so a
defect in the package cannot hide behind the same defect in the check.
"""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np

_TSHC_HEADER = struct.Struct("<4sIQI")  # magic, version, n, m
_EVAL_METRICS = ("precision_at_k", "map", "pr_auc", "prec_within_r2")


class CheckError(Exception):
    """A stage wrote output that is malformed or wrong."""


def read_codes(path, n: int, m: int) -> np.ndarray:
    """Decode a .tshc file, requiring its header to say n codes of m bits."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _TSHC_HEADER.size:
        raise CheckError(f"{path}: truncated header")
    magic, version, got_n, got_m = _TSHC_HEADER.unpack_from(blob)
    if magic != b"TSHC" or version != 1:
        raise CheckError(f"{path}: bad magic {magic!r} or version {version}")
    if (got_n, got_m) != (n, m):
        raise CheckError(f"{path}: header says n={got_n} m={got_m}, expected n={n} m={m}")
    words = (m + 63) // 64
    body = blob[_TSHC_HEADER.size :]
    if len(body) != n * words * 8:
        raise CheckError(f"{path}: {len(body)} payload bytes, expected {n * words * 8}")
    return np.frombuffer(body, dtype="<u8").reshape(n, words)


def check_trace(path, rows: int) -> float:
    """Require `rows` trace rows with a non-increasing objective; return the last."""
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if not table or table[0][:3] != ["sweep", "bit", "objective"]:
        raise CheckError(f"{path}: missing sweep,bit,objective header")
    body = table[1:]
    if len(body) != rows:
        raise CheckError(f"{path}: {len(body)} rows, expected {rows}")
    objective = [float(r[2]) for r in body]
    if not all(math.isfinite(v) for v in objective):
        raise CheckError(f"{path}: non-finite objective")
    for prev, cur in zip(objective, objective[1:]):
        if cur > prev:
            raise CheckError(f"{path}: objective rose from {prev!r} to {cur!r}")
    return objective[-1]


def check_eval(path, n_queries: int, k: int) -> float:
    """Require the eval report to cover n_queries with metrics in [0, 1]; return MAP."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("n_queries") != n_queries or doc.get("k") != k:
        raise CheckError(
            f"{path}: n_queries={doc.get('n_queries')} k={doc.get('k')}, "
            f"expected {n_queries} and {k}"
        )
    for name in _EVAL_METRICS:
        v = doc.get(name)
        if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            raise CheckError(f"{path}: {name}={v!r} outside [0, 1]")
    return float(doc["map"])


def reference_topk(db: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k database rows per query: popcount distance, ties by ascending id.

    Returns (ids, distances), each of shape (n_queries, k).
    """
    n = db.shape[0]
    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    dists = np.empty((queries.shape[0], k), dtype=np.int64)
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, queries.shape[0], chunk):
        q = queries[lo : lo + chunk]
        dist = np.bitwise_count(db[None, :, :] ^ q[:, None, :]).sum(axis=2, dtype=np.int64)
        key = dist * n + np.arange(n)  # distance first, then id: a stable order
        part = np.argpartition(key, k - 1, axis=1)[:, :k]
        order = np.take_along_axis(part, np.argsort(np.take_along_axis(key, part, axis=1), axis=1), axis=1)
        ids[lo : lo + chunk] = order
        dists[lo : lo + chunk] = np.take_along_axis(dist, order, axis=1)
    return ids, dists


def check_query(path, db: np.ndarray, queries: np.ndarray, k: int) -> None:
    """Require every `query` output row to match the brute-force reference."""
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != ["query", "rank", "id", "distance"]:
        raise CheckError(f"{path}: missing query,rank,id,distance header")
    ref_ids, ref_dists = reference_topk(db, queries, k)
    expected = [
        [str(qi), str(pos), str(ref_ids[qi, pos]), str(ref_dists[qi, pos])]
        for qi in range(queries.shape[0])
        for pos in range(k)
    ]
    got = table[1:]
    if len(got) != len(expected):
        raise CheckError(f"{path}: {len(got)} rows, expected {len(expected)}")
    for row, want in zip(got, expected):
        if row != want:
            raise CheckError(f"{path}: row {row} differs from reference {want}")
