"""In-process tracing of the tshash layers, installed from outside.

`Tracer.install` replaces public functions in the module namespaces where
their callers look them up (for example `tshash.codegen.spectral_relax`,
which `learn_codes` resolves at call time) with wrappers that record a span
(name, start, end, parent) and a few counts. `uninstall` puts the originals
back. No file of the package is modified; the wrappers exist only in the
process that installs them.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent))

    def _wrap(self, module, attr: str, name: str, after=None, catch_warnings=False):
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                if catch_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                    if any(issubclass(w.category, RuntimeWarning) for w in caught):
                        tracer.counts["codegen.spectral_fallbacks"] += 1
                else:
                    result = original(*args, **kwargs)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def install(self, cli, codegen, data, hashfn, retrieval) -> None:
        """Wrap each layer's public entry points where the CLI and codegen call them."""
        w = self._wrap
        w(data, "load_dataset", "data.load_dataset")
        w(data, "supervision_from_labels", "data.supervision", _count_pairs)
        w(data, "supervision_from_distance", "data.supervision", _count_pairs)
        w(data, "rbf_bandwidth", "data.bandwidth")
        w(data, "sample_anchors", "data.sample_anchors")
        w(hashfn, "kernel_matrix", "data.kernel_matrix")
        w(codegen, "learn_codes", "codegen.learn_codes", _count_trace)
        # The four bit-update phases, as learn_codes resolves them.
        w(codegen, "BqpInstance", "codegen.bqp_build")
        # A spectral call that warns has fallen back to a random vector. The
        # CLI's default filter would show only the first such warning.
        w(codegen, "spectral_relax", "codegen.spectral", catch_warnings=True)
        w(codegen, "box_relax", "codegen.box")
        w(codegen, "quadratic_coeffs", "loss.quadratic_coeffs")
        w(codegen, "pair_loss", "loss.pair_loss")
        w(hashfn, "train_model", "hashfn.train_model")
        w(hashfn, "train_bit_classifier", "hashfn.bit_fit", _count_constant)
        w(hashfn, "save_model", "hashfn.save_model")
        w(hashfn, "load_model", "hashfn.load_model")
        w(hashfn, "encode", "hashfn.encode")
        w(cli, "read_codes_file", "packed.read", _count_file_bytes)
        w(cli, "write_codes_file", "packed.write", _count_file_bytes)
        w(retrieval, "load_ground_truth", "retrieval.load_ground_truth")
        w(retrieval, "evaluate", "retrieval.evaluate", _count_empty)
        w(retrieval, "hamming_distances", "retrieval.hamming")
        for attr in ("write_report_json", "write_report_csv", "write_pr_csv"):
            w(retrieval, attr, "retrieval.write_report")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def busy(self) -> dict[str, float]:
        """Total span time per name (threads add up)."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def calls(self) -> Counter[str]:
        return Counter(s.name for s in self.spans)

    def child_time(self) -> dict[int, float]:
        """Time covered by each span's direct children."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] += s.duration
        return out

    def as_rows(self) -> list[list]:
        return [[s.id, s.name, s.start, s.end, s.parent] for s in self.spans]


def _count_pairs(counts, args, sup) -> None:
    counts["data.pairs"] += len(sup)


def _count_trace(counts, args, result) -> None:
    objective = [entry.objective for entry in result[1]]
    counts["codegen.bit_updates"] += len(objective)
    counts["codegen.later_rows"] += max(len(objective) - 1, 0)
    counts["codegen.improving_rows"] += sum(b < a for a, b in zip(objective, objective[1:]))


def _count_constant(counts, args, fn) -> None:
    counts["hashfn.constant_bits"] += int(fn.constant)


def _count_file_bytes(counts, args, result) -> None:
    counts["packed.bytes"] += os.path.getsize(args[0])


def _count_empty(counts, args, report) -> None:
    counts["retrieval.empty_relevant"] += report.n_empty_relevant
