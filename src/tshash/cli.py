"""Command-line front end wiring the pipeline end to end.

Subcommands: gen-data (synthetic clusters), train (codes + hash model),
encode (hash a CSV into packed codes), eval (retrieval metrics), query
(interactive top-k lookup). Exit codes: 0 success, 2 usage errors,
1 runtime errors. All randomness flows from the --seed flag, split per
role with a counter-based splitter, so identical command lines produce
byte-identical output files. eval --threads N ranks the queries on up to
N threads (no more than the CPU count), with the same output at every N;
train accepts --threads and ignores it. Apart from eval, tshash starts no
thread of its own; numpy's BLAS may use several unless the usual BLAS
environment variables limit it. Only train on the pair form of the bit
problem loads scipy, and of it only scipy.sparse, for the CSR matrix and
its products (the Lanczos solver is numpy, so ARPACK and scipy.linalg stay
unloaded); label-form train with ksh or bre, and every other subcommand,
run on numpy alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import codegen, data, hashfn, retrieval
from .loss import LOSS_TAGS, LossKind
from .packed import PackedCodes, read_codes_file, words_per_code, write_codes_file

USAGE_EXIT = 2
RUNTIME_EXIT = 1

# spawn keys for per-role seed derivation from the single --seed flag
ROLE_SUPERVISION = 0
ROLE_CODES = 1
ROLE_CLASSIFIERS = 2
ROLE_ANCHORS = 3


class UsageError(ValueError):
    """Bad arguments or argument combinations; exits with code 2."""


class StageError(RuntimeError):
    """Runtime failure annotated with the pipeline stage that raised it."""


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except (UsageError, StageError, BrokenPipeError):
        raise
    except Exception as exc:
        raise StageError(f"{name}: {exc}") from exc


def cmd_gen_data(args) -> int:
    # numpy's own message for a negative seed does not name the flag.
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    with _stage("data"):
        # generate_clusters checks the ranges, before any file is opened.
        try:
            ds = data.generate_clusters(args.n, args.clusters, args.d, args.spread, args.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        with open(args.out, "w", encoding="utf-8") as fh:
            for row, label in zip(ds.features, ds.labels):
                cells = [repr(float(v)) for v in row] + [str(int(label))]
                fh.write(",".join(cells) + "\n")
        manifest = {
            "n": args.n,
            "clusters": args.clusters,
            "d": args.d,
            "spread": args.spread,
            "seed": args.seed,
        }
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return 0


def _load_for(args, labeled: bool):
    with _stage("data"):
        return data.load_dataset(args.data, has_labels=labeled)


def _build_supervision(args, ds) -> data.PairSupervision:
    ppp = args.pairs_per_point
    if ppp is None:
        ppp = ds.n - 1 if ds.n <= 2000 else 100
    else:
        if ppp < 1:
            raise UsageError("--pairs-per-point must be >= 1")
        ppp = min(ppp, ds.n - 1)
    seed = data.derive_seed(args.seed, ROLE_SUPERVISION)
    with _stage("supervision"):
        if args.supervision == "labels":
            return data.supervision_from_labels(ds, ppp, seed)
        return data.supervision_from_distance(ds, args.percentile, ppp, seed)


def cmd_train(args) -> int:
    if args.bits < 1:
        raise UsageError("--bits must be >= 1")
    if args.sweeps < 1:
        raise UsageError("--sweeps must be >= 1")
    if args.c is not None and not (np.isfinite(args.c) and args.c > 0):
        raise UsageError("--c must be positive and finite")
    if args.epochs < 1:
        raise UsageError("--epochs must be >= 1")
    if args.anchors < 1:
        raise UsageError("--anchors must be >= 1")
    if not (np.isfinite(args.bandwidth_t) and args.bandwidth_t > 0):
        raise UsageError("--bandwidth-t must be positive and finite")
    if not 0 < args.percentile < 100:
        raise UsageError("--percentile must lie in (0, 100)")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")

    labeled = args.labeled or args.supervision == "labels"
    ds = _load_for(args, labeled)
    sup = _build_supervision(args, ds)

    with _stage("codes"):
        kind = LossKind(args.loss, args.bits)
        cfg = codegen.TrainConfig(
            loss=kind, sweeps=args.sweeps, seed=data.derive_seed(args.seed, ROLE_CODES)
        )
        codes, trace = codegen.learn_codes(sup, cfg)

    trace_path = args.trace_out or args.model_out + ".trace.csv"
    with _stage("trace"):
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("sweep,bit,objective\n")
            for entry in trace:
                fh.write(f"{entry.sweep},{entry.bit},{entry.objective!r}\n")

    with _stage("model"):
        kcfg = None
        if args.feature == "kernel":
            q = min(args.anchors, ds.n)
            anchors = data.sample_anchors(ds, q, data.derive_seed(args.seed, ROLE_ANCHORS))
            bw = data.rbf_bandwidth(ds, args.bandwidth_t)
            kcfg = data.KernelConfig(anchors, bw)
        ccfg = hashfn.ClassifierConfig(
            c=args.c, epochs=args.epochs, seed=data.derive_seed(args.seed, ROLE_CLASSIFIERS)
        )
        model = hashfn.train_model(ds, codes, args.feature, kcfg, ccfg)
        hashfn.save_model(model, args.model_out)
    return 0


def cmd_encode(args) -> int:
    with _stage("model"):
        model = hashfn.load_model(args.model)
    with _stage("data"):
        try:
            ds = data.load_dataset(args.data, has_labels=args.labeled)
        except data.EmptyDatasetError:
            ds = None
    with _stage("codes"):
        if ds is None:
            # nothing to hash; emit a header-only codes file
            codes = PackedCodes(np.zeros((0, words_per_code(model.m)), dtype=np.uint64), model.m)
        else:
            codes = hashfn.encode(model, ds.features)
        write_codes_file(args.out, codes)
    return 0


def _load_code_files(args):
    """The database and query codes of eval or query, checked against each other and --k."""
    with _stage("codes"):
        db_codes = read_codes_file(args.db)
        query_codes = read_codes_file(args.queries)
    if db_codes.m != query_codes.m:
        raise StageError(f"{args.command}: database m={db_codes.m} but queries m={query_codes.m}")
    if not 1 <= args.k <= db_codes.n:
        raise UsageError(f"--k must lie in [1, {db_codes.n}]")
    return db_codes, query_codes


def cmd_eval(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    if args.radius < 0:
        raise UsageError("--radius must be >= 0")
    db_codes, query_codes = _load_code_files(args)
    with _stage("ground-truth"):
        gt = retrieval.load_ground_truth(args.ground_truth)
    with _stage("eval"):
        db = retrieval.CodeDatabase(db_codes)
        report = retrieval.evaluate(
            db, query_codes, gt, k=args.k, radius=args.radius, threads=args.threads
        )
        retrieval.write_report_json(report, args.out_prefix + ".json")
        retrieval.write_report_csv(report, args.out_prefix + ".csv")
        retrieval.write_pr_csv(report, args.out_prefix + ".pr.csv")
    return 0


def cmd_query(args) -> int:
    db_codes, query_codes = _load_code_files(args)
    with _stage("query"):
        db = retrieval.CodeDatabase(db_codes)
        out = sys.stdout
        out.write("query,rank,id,distance\n")
        for qi in range(query_codes.n):
            order, dists = retrieval._ranked_order(db, query_codes.words[qi], args.k)
            for pos, (row, dist) in enumerate(zip(order.tolist(), dists.tolist())):
                out.write(f"{qi},{pos},{row},{dist}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tshash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled Gaussian-cluster CSV")
    p.add_argument("out", help="output CSV path (manifest written alongside)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--spread", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="infer codes and train the hash model")
    p.add_argument("data", help="training CSV")
    p.add_argument("--model-out", required=True)
    p.add_argument("--trace-out", default=None, help="objective trace CSV (default MODEL.trace.csv)")
    p.add_argument("--loss", required=True, choices=LOSS_TAGS)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--sweeps", type=int, default=1)
    p.add_argument("--feature", choices=hashfn.FEATURE_MODES, default="kernel")
    p.add_argument("--anchors", type=int, default=300, help="kernel anchor count (capped at n)")
    p.add_argument("--bandwidth-t", type=float, default=1.0)
    p.add_argument("--c", type=float, default=None, help="classifier cost (default 1000/n)")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--supervision", choices=("labels", "distance"), default="labels")
    p.add_argument("--percentile", type=float, default=2.0)
    p.add_argument("--pairs-per-point", type=int, default=None,
                   help="partners sampled per point, capped at n-1 (default: all when n <= 2000, else 100)")
    p.add_argument("--labeled", action="store_true",
                   help="last CSV column is an integer label (implied by --supervision labels)")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored: tshash starts no thread, though numpy's BLAS may")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="hash a CSV into a packed codes file")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("out")
    p.add_argument("--labeled", action="store_true", help="last CSV column is an integer label")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="score query codes against database codes")
    p.add_argument("db", help="database codes file")
    p.add_argument("queries", help="query codes file")
    p.add_argument("ground_truth", help="one line per query: space-separated relevant db row ids")
    p.add_argument("--out-prefix", required=True, help="writes PREFIX.json, PREFIX.csv, PREFIX.pr.csv")
    p.add_argument("--k", type=int, default=retrieval.DEFAULT_K)
    p.add_argument("--radius", type=int, default=retrieval.DEFAULT_RADIUS)
    p.add_argument("--threads", type=int, default=1,
                   help="rank queries on this many threads, capped at the CPU count; "
                        "the output does not depend on it")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("query", help="print top-k database ids per query")
    p.add_argument("db")
    p.add_argument("queries")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except BrokenPipeError:
        # a downstream reader (e.g. head) closed stdout; not our failure
        with contextlib.suppress(Exception):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
