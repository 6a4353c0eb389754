import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tshash
from tshash import cli
from tshash.hashfn import encode, load_model
from tshash.packed import pack_signs, read_codes_file, write_codes_file
from tshash.data import load_dataset


def run(argv):
    return cli.main(argv)


def gen(tmp_path, name="train.csv", n=60, clusters=3, d=2, spread=0.1, seed=1):
    path = tmp_path / name
    code = run([
        "gen-data", str(path), "--n", str(n), "--clusters", str(clusters),
        "--d", str(d), "--spread", str(spread), "--seed", str(seed),
    ])
    assert code == 0
    return path


def train(tmp_path, data, extra=(), seed=5, loss="bre", bits=8):
    model = tmp_path / "model.json"
    code = run([
        "train", str(data), "--model-out", str(model), "--loss", loss,
        "--bits", str(bits), "--seed", str(seed), "--anchors", "40", *extra,
    ])
    assert code == 0
    return model


class TestGenData:
    def test_writes_labeled_csv_and_manifest(self, tmp_path):
        path = gen(tmp_path, n=30, clusters=3)
        ds = load_dataset(path, has_labels=True)
        assert ds.n == 30 and set(ds.labels.tolist()) == {0, 1, 2}
        manifest = json.loads((tmp_path / "train.csv.manifest.json").read_text())
        assert manifest["n"] == 30 and manifest["seed"] == 1

    def test_zero_spread_puts_points_on_centers(self, tmp_path):
        path = gen(tmp_path, n=9, clusters=3, spread=0.0)
        ds = load_dataset(path, has_labels=True)
        for lab in range(3):
            rows = ds.features[ds.labels == lab]
            assert np.ptp(rows, axis=0).max() == 0.0

    def test_same_seed_gives_identical_files(self, tmp_path):
        a = gen(tmp_path, name="a.csv", seed=9)
        b = gen(tmp_path, name="b.csv", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_clusters_is_usage_error(self, tmp_path):
        # --d 0 goes through the same up-front range checks
        for bad in (["--clusters", "1"], ["--clusters", "3", "--d", "0"]):
            code = run(["gen-data", str(tmp_path / "x.csv"), "--n", "10",
                        *bad, "--seed", "0"])
            assert code == 2

    def test_n_below_clusters_is_usage_error(self, tmp_path):
        code = run(["gen-data", str(tmp_path / "x.csv"), "--n", "2",
                    "--clusters", "3", "--seed", "0"])
        assert code == 2

    # A negative seed, which SeedSequence refuses, and a spread that would
    # make non-finite features are refused before any file is written.
    @pytest.mark.parametrize("bad", [["--seed", "-1"], ["--spread", "inf"], ["--spread", "nan"]])
    def test_negative_seed_or_non_finite_spread_is_usage_error(self, tmp_path, capsys, bad):
        argv = ["gen-data", str(tmp_path / "x.csv"), "--n", "10", "--clusters", "2", "--seed", "0", *bad]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not list(tmp_path.iterdir())

    def test_overflowing_spread_is_usage_error_without_warning(self, tmp_path):
        # The features overflow to inf, which Dataset refuses; numpy's overflow
        # warning must not reach stderr first. A child shows stderr as a user sees it.
        src = str(Path(tshash.__file__).resolve().parents[1])
        argv = ["gen-data", str(tmp_path / "x.csv"), "--n", "10", "--clusters", "2",
                "--seed", "0", "--spread", "1e308"]
        proc = subprocess.run([sys.executable, "-m", "tshash.cli", *argv], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "usage error: features contain non-finite values\n"
        assert not list(tmp_path.iterdir())


class TestTrain:
    def test_writes_model_and_monotone_trace(self, tmp_path):
        data = gen(tmp_path)
        model_path = train(tmp_path, data)
        model = load_model(model_path)
        assert model.m == 8 and model.feature_mode == "kernel"
        lines = (tmp_path / "model.json.trace.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep,bit,objective"
        objs = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(objs) == 8
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    def test_invalid_loss_token_lists_choices(self, tmp_path, capsys):
        data = gen(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["train", str(data), "--model-out", str(tmp_path / "m.json"),
                 "--loss", "foo", "--bits", "4", "--seed", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "ksh" in err and "exph" in err

    def test_two_point_single_bit_agreement(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("0.0,7\n1.0,7\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        code = run(["train", str(data), "--model-out", str(model_path),
                    "--loss", "ksh", "--bits", "1", "--seed", "3",
                    "--feature", "raw", "--supervision", "labels"])
        assert code == 0
        trace = (tmp_path / "m.json.trace.csv").read_text().strip().splitlines()
        assert float(trace[-1].split(",")[2]) == 0.0
        model = load_model(model_path)
        ds = load_dataset(data, has_labels=True)
        bits = encode(model, ds.features).signs()
        assert bits[0, 0] == bits[1, 0]  # similar pair gets matching codes

    def test_two_point_dissimilar_codes_differ(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("0.0,1\n1.0,2\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        code = run(["train", str(data), "--model-out", str(model_path),
                    "--loss", "ksh", "--bits", "1", "--seed", "3",
                    "--feature", "raw", "--supervision", "labels"])
        assert code == 0
        model = load_model(model_path)
        ds = load_dataset(data, has_labels=True)
        bits = encode(model, ds.features).signs()
        assert bits[0, 0] != bits[1, 0]

    def test_distance_supervision_on_unlabeled_data(self, tmp_path):
        data = tmp_path / "plain.csv"
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{float(x)!r},{float(y)!r}" for x, y in rng.normal(size=(30, 2))) + "\n"
        data.write_text(rows, encoding="utf-8")
        code = run(["train", str(data), "--model-out", str(tmp_path / "m.json"),
                    "--loss", "ksh", "--bits", "4", "--seed", "2",
                    "--supervision", "distance", "--percentile", "10",
                    "--anchors", "30"])
        assert code == 0

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = run(["train", str(tmp_path / "nope.csv"), "--model-out",
                    str(tmp_path / "m.json"), "--loss", "ksh", "--bits", "4",
                    "--seed", "0"])
        assert code == 1
        assert "data:" in capsys.readouterr().err

    # A negative seed reached SeedSequence outside any stage (a traceback);
    # c = inf and bandwidth t = inf failed only at the model stage.
    @pytest.mark.parametrize("bad", [["--seed", "-1"], ["--c", "inf"], ["--bandwidth-t", "inf"]])
    def test_negative_seed_or_non_finite_option_is_usage_error(self, tmp_path, capsys, bad):
        data = gen(tmp_path)
        code = run(["train", str(data), "--model-out", str(tmp_path / "m.json"),
                    "--loss", "ksh", "--bits", "4", "--seed", "0", *bad])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "m.json.trace.csv").exists()

    def test_bad_bits_is_usage_error(self, tmp_path):
        # --epochs 0 must also be refused before any training starts
        data = gen(tmp_path)
        for bad in (["--bits", "0"], ["--bits", "4", "--epochs", "0"]):
            code = run(["train", str(data), "--model-out", str(tmp_path / "m.json"),
                        "--loss", "ksh", *bad, "--seed", "0"])
            assert code == 2
            assert not (tmp_path / "m.json.trace.csv").exists()


def child(code, *args):
    """Run Python code in a fresh interpreter on this package; return its stdout."""
    src = str(Path(tshash.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


# Runs cli.main on each (argv, stdout file) pair of argv[1] with every scipy
# import made to fail, and prints the exit codes.
SCIPY_BLOCKED_CLI = """
import contextlib, json, sys
sys.modules["scipy"] = None
from tshash import cli
codes = []
for argv, out in json.loads(sys.argv[1]):
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


# As SCIPY_BLOCKED_CLI, with only scipy.sparse.linalg (ARPACK and
# scipy.linalg behind it) made to fail.
SPARSE_LINALG_BLOCKED_CLI = SCIPY_BLOCKED_CLI.replace('"scipy"', '"scipy.sparse.linalg"')


class TestImports:
    @pytest.mark.parametrize("module", ["tshash", "tshash.cli"])
    def test_import_loads_no_scipy(self, module):
        # encode, eval and query never train, so they must not pay for scipy
        probe = f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        assert child(probe).strip() == "[]"

    def test_serving_commands_run_without_scipy(self, tmp_path, capsys):
        data, model, codes, gt, prefix = pipeline(tmp_path)
        assert run(["query", str(codes), str(codes), "--k", "5"]) == 0
        query_out = capsys.readouterr().out
        b_codes, b_prefix = tmp_path / "blocked.tshc", str(tmp_path / "blocked")
        commands = [
            (["encode", str(model), str(data), str(b_codes), "--labeled"], os.devnull),
            (["eval", str(b_codes), str(b_codes), str(gt), "--out-prefix", b_prefix,
              "--k", "20"], os.devnull),
            (["query", str(b_codes), str(b_codes), "--k", "5"], str(tmp_path / "query.out")),
        ]
        assert json.loads(child(SCIPY_BLOCKED_CLI, json.dumps(commands))) == [0, 0, 0]
        assert b_codes.read_bytes() == codes.read_bytes()
        for ext in (".json", ".csv", ".pr.csv"):
            assert Path(b_prefix + ext).read_bytes() == Path(prefix + ext).read_bytes()
        assert (tmp_path / "query.out").read_text(encoding="utf-8") == query_out

    @pytest.mark.parametrize("loss", ["ksh", "bre"])
    def test_label_form_train_runs_without_scipy(self, tmp_path, loss):
        # Full label supervision with ksh or bre takes the low-rank bit
        # problem, whose spectral step is numpy's eigh.
        data = gen(tmp_path)
        model = train(tmp_path, data, loss=loss)
        blocked = tmp_path / "blocked.json"
        argv = ["train", str(data), "--model-out", str(blocked), "--loss", loss,
                "--bits", "8", "--seed", "5", "--anchors", "40"]
        assert json.loads(child(SCIPY_BLOCKED_CLI, json.dumps([(argv, os.devnull)]))) == [0]
        assert blocked.read_bytes() == model.read_bytes()
        trace = Path(str(model) + ".trace.csv").read_bytes()
        assert Path(str(blocked) + ".trace.csv").read_bytes() == trace


    def test_pair_form_train_runs_without_sparse_linalg(self, tmp_path):
        # The pair form's Lanczos runs in numpy on scipy.sparse products.
        probe = "import sys, scipy.sparse; print('scipy.sparse.linalg' in sys.modules)"
        if child(probe).strip() != "False":
            pytest.skip("this scipy loads scipy.sparse.linalg with scipy.sparse")
        data = gen(tmp_path, n=120)
        extra = ("--supervision", "distance", "--pairs-per-point", "10")
        model = train(tmp_path, data, extra=extra, loss="exph")
        blocked = tmp_path / "blocked.json"
        argv = ["train", str(data), "--model-out", str(blocked), "--loss", "exph",
                "--bits", "8", "--seed", "5", "--anchors", "40", *extra]
        assert json.loads(child(SPARSE_LINALG_BLOCKED_CLI, json.dumps([(argv, os.devnull)]))) == [0]
        assert blocked.read_bytes() == model.read_bytes()
        trace = Path(str(model) + ".trace.csv").read_bytes()
        assert Path(str(blocked) + ".trace.csv").read_bytes() == trace


class TestEncode:
    def test_round_trip_matches_in_memory(self, tmp_path):
        data = gen(tmp_path)
        model_path = train(tmp_path, data)
        out = tmp_path / "codes.tshc"
        assert run(["encode", str(model_path), str(data), str(out), "--labeled"]) == 0
        model = load_model(model_path)
        ds = load_dataset(data, has_labels=True)
        want = encode(model, ds.features)
        got = read_codes_file(out)
        assert got.m == want.m and np.array_equal(got.words, want.words)

    def test_empty_dataset_writes_header_only_file(self, tmp_path):
        data = gen(tmp_path)
        model_path = train(tmp_path, data)
        empty = tmp_path / "empty.csv"
        empty.write_text("\n", encoding="utf-8")
        out = tmp_path / "codes.tshc"
        assert run(["encode", str(model_path), str(empty), str(out)]) == 0
        got = read_codes_file(out)
        assert got.n == 0 and got.m == 8

    def test_unreadable_dataset_is_data_error(self, tmp_path, capsys):
        data = gen(tmp_path)
        model_path = train(tmp_path, data)
        out = str(tmp_path / "c.tshc")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1.0,2.0\n\xff,1.0\n")
        assert run(["encode", str(model_path), str(bad), out]) == 1
        assert "error: data: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert run(["encode", str(model_path), str(tmp_path / "nope.csv"), out]) == 1
        assert "error: data:" in capsys.readouterr().err

    def test_truncated_model_is_corrupt(self, tmp_path, capsys):
        data = gen(tmp_path)
        model_path = train(tmp_path, data)
        model_path.write_text(model_path.read_text()[:25], encoding="utf-8")
        code = run(["encode", str(model_path), str(data), str(tmp_path / "c.tshc"),
                    "--labeled"])
        assert code == 1
        assert "corrupt model" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_bandwidth_is_model_error(self, tmp_path, capsys, token):
        data = gen(tmp_path)
        model_path = train(tmp_path, data)
        doc = json.loads(model_path.read_text())
        doc["bandwidth"] = float(token.replace("Infinity", "inf"))
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        assert f'"bandwidth": {token}' in model_path.read_text()
        code = run(["encode", str(model_path), str(data), str(tmp_path / "c.tshc"), "--labeled"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: corrupt model") and "bandwidth" in err

    def test_dimension_mismatch_is_runtime_error(self, tmp_path, capsys):
        data = gen(tmp_path)
        model_path = train(tmp_path, data)
        wide = tmp_path / "wide.csv"
        wide.write_text("1.0,2.0,3.0\n", encoding="utf-8")
        code = run(["encode", str(model_path), str(wide), str(tmp_path / "c.tshc")])
        assert code == 1
        assert "dimension" in capsys.readouterr().err


def pipeline(tmp_path, seed=5, threads=1, tag=""):
    data = gen(tmp_path, name=f"train{tag}.csv", seed=1)
    model = tmp_path / f"model{tag}.json"
    assert run(["train", str(data), "--model-out", str(model), "--loss", "bre",
                "--bits", "8", "--seed", str(seed), "--anchors", "40",
                "--threads", str(threads)]) == 0
    codes = tmp_path / f"codes{tag}.tshc"
    assert run(["encode", str(model), str(data), str(codes), "--labeled"]) == 0
    gt = tmp_path / f"gt{tag}.txt"
    ds = load_dataset(data, has_labels=True)
    with open(gt, "w", encoding="utf-8") as fh:
        for lab in ds.labels:
            fh.write(" ".join(str(i) for i in np.flatnonzero(ds.labels == lab)) + "\n")
    prefix = str(tmp_path / f"report{tag}")
    assert run(["eval", str(codes), str(codes), str(gt), "--out-prefix", prefix,
                "--k", "20", "--threads", str(threads)]) == 0
    return data, model, codes, gt, prefix


class TestEval:
    def test_perfect_self_retrieval(self, tmp_path):
        *_, prefix = pipeline(tmp_path)
        doc = json.loads(Path(prefix + ".json").read_text(encoding="utf-8"))
        assert doc["map"] == 1.0

    def test_k_above_database_size_is_usage_error(self, tmp_path):
        data, model, codes, gt, _ = pipeline(tmp_path)
        code = run(["eval", str(codes), str(codes), str(gt),
                    "--out-prefix", str(tmp_path / "r2"), "--k", "9999"])
        assert code == 2

    def test_m_mismatch_is_runtime_error(self, tmp_path, capsys):
        data, model, codes, gt, _ = pipeline(tmp_path)
        other_model = tmp_path / "m16.json"
        assert run(["train", str(data), "--model-out", str(other_model), "--loss",
                    "bre", "--bits", "16", "--seed", "0", "--anchors", "40"]) == 0
        other_codes = tmp_path / "c16.tshc"
        assert run(["encode", str(other_model), str(data), str(other_codes),
                    "--labeled"]) == 0
        code = run(["eval", str(codes), str(other_codes), str(gt),
                    "--out-prefix", str(tmp_path / "r3"), "--k", "5"])
        assert code == 1

    def test_random_ground_truth_density_matches_precision(self, tmp_path):
        # against random codes, P@K concentrates near the relevance density
        rng = np.random.default_rng(4)
        from tshash.packed import pack_signs, write_codes_file
        db = tmp_path / "db.tshc"
        qs = tmp_path / "qs.tshc"
        write_codes_file(db, pack_signs(rng.choice([-1, 1], size=(400, 16))))
        write_codes_file(qs, pack_signs(rng.choice([-1, 1], size=(40, 16))))
        gt = tmp_path / "gt.txt"
        density = 0.3
        with open(gt, "w", encoding="utf-8") as fh:
            for _ in range(40):
                rel = np.flatnonzero(rng.random(400) < density)
                fh.write(" ".join(str(i) for i in rel) + "\n")
        prefix = str(tmp_path / "rand")
        assert run(["eval", str(db), str(qs), str(gt), "--out-prefix", prefix,
                    "--k", "100"]) == 0
        doc = json.loads(Path(prefix + ".json").read_text(encoding="utf-8"))
        assert abs(doc["precision_at_k"] - density) < 0.08

    def test_zero_threads_is_usage_error(self, tmp_path, capsys):
        # eval ranks on --threads threads, and train ignores the flag; both
        # refuse --threads 0 before they read any input.
        missing = str(tmp_path / "missing")
        assert run(["train", missing, "--model-out", missing, "--loss", "ksh",
                    "--bits", "4", "--seed", "0", "--threads", "0"]) == 2
        assert run(["eval", missing, missing, missing, "--out-prefix", missing,
                    "--threads", "0"]) == 2
        assert capsys.readouterr().err.count("--threads must be >= 1") == 2

    def test_malformed_ground_truth_is_runtime_error(self, tmp_path, capsys):
        data, model, codes, gt, _ = pipeline(tmp_path)
        gt.write_text("0 zap\n", encoding="utf-8")
        code = run(["eval", str(codes), str(codes), str(gt),
                    "--out-prefix", str(tmp_path / "r4"), "--k", "5"])
        assert code == 1


class TestQuery:
    def test_prints_topk_rows(self, tmp_path, capsys):
        *_, codes, gt, prefix = pipeline(tmp_path)
        assert run(["query", str(codes), str(codes), "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "query,rank,id,distance"
        assert len(lines) == 1 + 60 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "0"  # self-match at distance 0

    @pytest.mark.parametrize("n", [40, 5000])
    def test_k_cuts_through_tied_distances(self, tmp_path, capsys, n):
        # Three distinct codes over n points: every distance is shared by
        # many points, so k=12 ends inside a run of ties.
        rng = np.random.default_rng(12)
        pool = rng.choice([-1, 1], size=(3, 16)).astype(np.int8)
        db_signs = pool[rng.integers(0, 3, n)]
        q_signs = np.vstack([pool, -pool[:1]])
        db, qs = tmp_path / "db.tshc", tmp_path / "q.tshc"
        write_codes_file(db, pack_signs(db_signs))
        write_codes_file(qs, pack_signs(q_signs))
        assert run(["query", str(db), str(qs), "--k", "12"]) == 0
        want = ["query,rank,id,distance"]
        for qi, q in enumerate(q_signs):
            dists = (db_signs != q).sum(axis=1)
            ranked = sorted(range(n), key=lambda i: (dists[i], i))[:12]
            assert dists[ranked[-1]] in np.delete(dists, ranked)  # the cut splits a run of ties
            want += [f"{qi},{pos},{i},{dists[i]}" for pos, i in enumerate(ranked)]
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_closed_pipe_is_not_an_error(self, tmp_path, capsys, monkeypatch):
        *_, codes, gt, prefix = pipeline(tmp_path)

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["query", str(codes), str(codes), "--k", "3"]) == 0
        monkeypatch.undo()
        assert "error" not in capsys.readouterr().err


class TestDeterminism:
    def test_end_to_end_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        files_a = pipeline(out_a, seed=11, threads=1)
        files_b = pipeline(out_b, seed=11, threads=3)
        for fa, fb in zip(files_a[:4], files_b[:4]):
            assert fa.read_bytes() == fb.read_bytes()
        for suffix in (".json", ".csv", ".pr.csv"):
            assert (files_a[4] + suffix).encode() != b""
            pa = tmp_path / "a" / ("report" + suffix)
            pb = tmp_path / "b" / ("report" + suffix)
            assert pa.read_bytes() == pb.read_bytes()
