import argparse
import csv
import json
import sys
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depfuse import cli, text
from depfuse.cli import build_parser, main, parse_config_file
from depfuse.corpus import SplitSpec, parse_corpus, split_dataset
from depfuse.errors import ConfigError
from depfuse.features import default_lexicon
from depfuse.model import vocab_fingerprint
from depfuse.pipeline import RunConfig


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    assert main(["gen-synth", "--n", "20", "--seed", "7", "--out", str(path)]) == 0
    return path


def train_args(corpus, out_dir, extra=()):
    return [
        "train",
        "--corpus",
        str(corpus),
        "--out-dir",
        str(out_dir),
        "--seed",
        "7",
        "--epochs",
        "2",
        "--max-len",
        "32",
        "--d1",
        "8",
        "--d2",
        "8",
        "--d-k",
        "8",
        "--mlp-hidden",
        "8",
        *extra,
    ]


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    assert main(train_args(corpus, out_dir)) == 0
    return out_dir


class TestGenSynth:
    def test_line_count_and_sidecar(self, corpus):
        lines = corpus.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 40
        sidecar = Path(str(corpus) + ".spec.json")
        assert sidecar.exists()
        spec = json.loads(sidecar.read_text())
        assert spec["n_per_class"] == 20 and spec["seed"] == 7

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        again = tmp_path / "again.jsonl"
        assert main(["gen-synth", "--n", "20", "--seed", "7", "--out", str(again)]) == 0
        assert again.read_bytes() == corpus.read_bytes()

    def test_n_zero_is_usage_error(self, tmp_path):
        code = main(["gen-synth", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
        assert code == 2


class TestFeaturize:
    def test_csv_shape_and_header(self, corpus, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["featurize", "--corpus", str(corpus), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 41
        assert lines[0] == (
            "user_id,label,p_original,p_late_night,posts_per_week,"
            "posting_time_sd,p_negative,image_freq"
        )
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_bad_line_reported_not_fatal(self, corpus, tmp_path, capsys):
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_bytes(corpus.read_bytes() + b"{broken\n")
        out = tmp_path / "f.csv"
        assert main(["featurize", "--corpus", str(dirty), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 41
        assert "parse issue: line 41" in capsys.readouterr().err

    def test_missing_corpus_exit_2(self, corpus, tmp_path):
        assert main(["featurize", "--corpus", str(tmp_path / "nope.jsonl")]) == 2
        # A directory where a file belongs is unreadable input, not a crash.
        assert main(["featurize", "--corpus", str(tmp_path)]) == 2
        assert main(["featurize", "--corpus", str(corpus), "--lexicon", str(tmp_path)]) == 2


class TestTrain:
    def test_artifacts_written(self, trained):
        assert (trained / "checkpoint.json").exists()
        history = (trained / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,train_loss,val_acc,val_f1,seconds"
        assert len(history) == 3
        report = json.loads((trained / "metrics.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_rerun_byte_identical(self, corpus, trained, tmp_path):
        other = tmp_path / "run2"
        assert main(train_args(corpus, other)) == 0
        for name in ("checkpoint.json", "history.csv", "metrics.json"):
            assert (other / name).read_bytes() == (trained / name).read_bytes()

    def test_fusion_flag_changes_model(self, corpus, trained, tmp_path):
        other = tmp_path / "concat"
        assert main(train_args(corpus, other, ("--fusion", "concat"))) == 0
        a = json.loads((trained / "checkpoint.json").read_text())
        b = json.loads((other / "checkpoint.json").read_text())
        assert a["config"]["fusion"] == "cross_attention"
        assert b["config"]["fusion"] == "concat"
        assert "attn_wq" in a["params"] and "attn_wq" not in b["params"]

    def test_contradictory_config_exit_2(self, corpus, tmp_path):
        args = train_args(corpus, tmp_path / "bad", ("--refine-layers", "1", "--refine-heads", "3"))
        assert main(args) == 2


class TestEval:
    def test_validation_slice_reproduces_training_metrics(self, corpus, trained, tmp_path):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--corpus",
                str(corpus),
                "--split",
                "validation",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (trained / "metrics.json").read_bytes()

    def test_missing_checkpoint_exit_2(self, corpus, tmp_path):
        for checkpoint in (tmp_path / "no.json", tmp_path):
            code = main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus)])
            assert code == 2, checkpoint

    def test_wrong_corpus_fails_vocab_hash(self, trained, tmp_path):
        other = tmp_path / "other.jsonl"
        assert main(["gen-synth", "--n", "20", "--seed", "8", "--out", str(other)]) == 0
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--corpus",
                str(other),
                "--split",
                "validation",
                "--seed",
                "7",
            ]
        )
        assert code == 2

    def test_corrupt_checkpoint_exit_3(self, corpus, trained, tmp_path):
        broken = tmp_path / "broken.json"
        original = (trained / "checkpoint.json").read_text()

        def edited(change):
            payload = json.loads(original)
            change(payload)
            return json.dumps(payload)

        def nan_first(entry):
            entry["data"] = [float("nan")] + entry["data"][1:]

        texts = [
            original[:50],
            "[1, 2]",
            edited(lambda c: c["params"].update(mlp_b2=[0.0, 0.0])),
            edited(lambda c: c.update(vocab=[1])),
            edited(lambda c: c.update(normalizer=[1])),
            edited(lambda c: c.update(params=5)),
            edited(lambda c: c["config"].update(d1="8")),
            edited(lambda c: nan_first(c["params"]["mlp_w1"])),
            edited(lambda c: c.update(normalizer=None)),
            edited(lambda c: c.update(vocab=None, vocab_sha256=vocab_fingerprint(None))),
        ]
        for text in texts:
            broken.write_text(text)
            code = main(["eval", "--checkpoint", str(broken), "--corpus", str(corpus)])
            assert code == 3, text[:50]

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000, '{"version": 1' + "0" * 5_000 + "}"],
        ids=["nested-past-recursion-limit", "int-past-digit-limit"],
    )
    def test_checkpoint_past_decoder_limits_exit_3(self, corpus, tmp_path, capsys, text):
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        code = main(["predict", "--checkpoint", str(broken), "--corpus", str(corpus)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: unreadable checkpoint"), err

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
    def test_checkpoint_version_other_than_the_integer_1_exit_3(
        self, corpus, trained, tmp_path, capsys, version
    ):
        payload = json.loads((trained / "checkpoint.json").read_text())
        payload["version"] = version
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        code = main(["predict", "--checkpoint", str(broken), "--corpus", str(corpus)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err == [f"error: unsupported checkpoint version {version!r} in {broken}"], err

    def test_schema_of_stdout_report(self, corpus, trained, capsys):
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--corpus",
                str(corpus),
            ]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"accuracy", "precision", "recall", "f1", "confusion"}


class TestCsvQuoting:
    IDS = ["u,1", 'u"2\nx', "u3\r", "plain"]

    def test_ids_read_back_through_csv_reader(self, corpus, trained, tmp_path):
        lines = corpus.read_text(encoding="utf-8").strip().split("\n")[: len(self.IDS)]
        objs = [dict(json.loads(line), user_id=uid) for line, uid in zip(lines, self.IDS)]
        odd = tmp_path / "odd.jsonl"
        odd.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
        feats, preds = tmp_path / "f.csv", tmp_path / "p.csv"
        assert main(["featurize", "--corpus", str(odd), "--out", str(feats)]) == 0
        assert main(["predict", "--checkpoint", str(trained / "checkpoint.json"),
                     "--corpus", str(odd), "--out", str(preds)]) == 0
        for path, width in ((feats, 8), (preds, 3)):
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert [row[0] for row in rows[1:]] == self.IDS
            assert all(len(row) == width for row in rows)
            # Ids that need no quotes are written as they were.
            last_line = "plain," + ",".join(rows[-1][1:])
            assert path.read_text(encoding="utf-8").endswith("\n" + last_line + "\n")


class TestLoneSurrogate:
    def test_line_reported_and_skipped(self, corpus, trained, tmp_path, capsys):
        lines = corpus.read_text(encoding="utf-8").strip().split("\n")[:2]
        bad = dict(json.loads(lines[1]), user_id="u\ud800x")
        odd = tmp_path / "sur.jsonl"
        # json.dumps escapes the surrogate as ASCII, so the file is valid UTF-8.
        odd.write_text(lines[0] + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        good_id = json.loads(lines[0])["user_id"]
        feats, preds = tmp_path / "f.csv", tmp_path / "p.csv"
        capsys.readouterr()
        assert main(["featurize", "--corpus", str(odd), "--out", str(feats)]) == 0
        assert main(["predict", "--checkpoint", str(trained / "checkpoint.json"),
                     "--corpus", str(odd), "--out", str(preds)]) == 0
        err = capsys.readouterr().err
        assert err.count("parse issue: line 2: field user_id holds a lone surrogate") == 2
        for path in (feats, preds):
            rows = path.read_text(encoding="utf-8").strip().split("\n")[1:]
            assert [row.split(",")[0] for row in rows] == [good_id]


class TestPredict:
    def test_prediction_csv(self, corpus, trained, tmp_path):
        out = tmp_path / "preds.csv"
        code = main(
            [
                "predict",
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--corpus",
                str(corpus),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "user_id,prob_depressed,prediction"
        assert len(lines) == 41
        for line in lines[1:]:
            _, prob, pred = line.split(",")
            prob = float(prob)
            assert 0.0 <= prob <= 1.0
            assert pred == ("1" if prob > 0.5 else "0")


@pytest.fixture
def tokenize_calls(monkeypatch):
    """The text of every tokenize call, counted through each depfuse module's
    binding of ``depfuse.text.tokenize``."""
    original = text.tokenize
    calls = []

    def counted(value):
        calls.append(value)
        return original(value)

    for name, module in list(sys.modules.items()):
        if name == "depfuse" or name.startswith("depfuse."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def user_texts(records):
    return Counter(
        t for r in records for t in (r.nickname, r.profile, *(w.text for w in r.tweets))
    )


class TestTokenizeCalls:
    """Each verb tokenizes every text it reads once; building the scorer
    tokenizes each lexicon term once."""

    @pytest.fixture
    def records(self, corpus):
        records, issues = parse_corpus(corpus.read_bytes())
        assert issues == []
        return records

    def test_featurize_once_per_tweet(self, corpus, records, tmp_path, tokenize_calls):
        assert main(["featurize", "--corpus", str(corpus), "--out", str(tmp_path / "f.csv")]) == 0
        tweets = Counter(w.text for r in records for w in r.tweets)
        assert Counter(tokenize_calls) == tweets + Counter(default_lexicon())

    @pytest.mark.parametrize("split", ["all", "validation"])
    def test_eval_once_per_text(self, corpus, trained, records, split, tmp_path, tokenize_calls):
        # --split validation rebuilds the vocabulary from the training slice
        # and reads the validation slice: every user's texts, once.
        argv = ["eval", "--checkpoint", str(trained / "checkpoint.json"),
                "--corpus", str(corpus), "--split", split, "--seed", "7",
                "--out", str(tmp_path / "m.json")]
        assert main(argv) == 0
        assert Counter(tokenize_calls) == user_texts(records) + Counter(default_lexicon())

    def test_predict_once_per_text(self, corpus, trained, records, tmp_path, tokenize_calls):
        argv = ["predict", "--checkpoint", str(trained / "checkpoint.json"),
                "--corpus", str(corpus), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 0
        assert Counter(tokenize_calls) == user_texts(records) + Counter(default_lexicon())

    def test_train_once_per_text_plus_vocabulary(self, corpus, records, tmp_path, tokenize_calls):
        assert main(train_args(corpus, tmp_path / "run", ["--epochs", "1"])) == 0
        train_records, _ = split_dataset(records, SplitSpec(ratio=0.8, seed=7))
        assert Counter(tokenize_calls) == (
            user_texts(train_records) + user_texts(records) + Counter(default_lexicon())
        )


class TestAblate:
    def test_variants_and_summary(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "ablation"
        args = ["ablate", "--corpus", str(corpus), "--out-dir", str(out_dir), "--seed", "7",
                "--epochs", "1", "--max-len", "32", "--d1", "8", "--d2", "8", "--d-k", "8",
                "--mlp-hidden", "8", "--refine-heads", "2"]
        assert main(args) == 0
        variants = sorted(p.name for p in out_dir.iterdir() if p.is_dir())
        assert variants == [
            "concat_refine0", "concat_refine2", "cross_attention_refine0", "cross_attention_refine2"
        ]
        for name in variants:
            assert (out_dir / name / "metrics.json").exists(), name
        summary = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 5 and summary[0] == "variant,accuracy,precision,recall,f1"
        assert len(capsys.readouterr().out.strip().split("\n")) == 6

    def test_parse_issues_reported(self, corpus, tmp_path, capsys):
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_bytes(corpus.read_bytes() + b"not json\n")
        args = ["ablate", "--corpus", str(dirty), "--out-dir", str(tmp_path / "ablation"),
                "--seed", "7", "--epochs", "1", "--max-len", "32", "--d1", "8", "--d2", "8",
                "--d-k", "8", "--mlp-hidden", "8", "--refine-heads", "2"]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err.count("parse issue: line 41: invalid JSON: Expecting value") == 1, err

    def test_missing_corpus_exit_2(self, tmp_path):
        args = ["ablate", "--corpus", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)]
        assert main(args) == 2


class TestExitCodes:
    def test_numerical_failure_maps_to_4(self, corpus, tmp_path, monkeypatch):
        from depfuse.errors import NumericalError

        def explode(config):
            raise NumericalError("matmul produced a non-finite value")

        monkeypatch.setattr("depfuse.cli.run_training", explode)
        assert main(train_args(corpus, tmp_path / "x")) == 4

    def test_real_divergence_exits_4_with_one_error_line(self, tmp_path, capsys):
        # The matmul that overflows would also print numpy's RuntimeWarning
        # and its source line; the finite check's error is the only report.
        tiny = tmp_path / "tiny.jsonl"
        assert main(["gen-synth", "--n", "3", "--seed", "1", "--out", str(tiny)]) == 0
        capsys.readouterr()
        argv = ["train", "--corpus", str(tiny), "--out-dir", str(tmp_path / "r"), "--lr", "1e300"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert [str(w.message) for w in caught] == []
        assert len(err) == 1 and err[0].startswith("error:"), err


def assert_usage_error(argv, capsys):
    """``argv`` is refused with exit code 2 and an error line, not a
    traceback; returns the error output."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "Traceback" not in err, (code, err)
    return err


class TestRefusedSettings:
    # NaN passes a plain "> 0" test, so the learning rate must also be finite.
    @pytest.mark.parametrize(
        "flags",
        [["--min-freq", "0"], ["--max-len", "4"], ["--lr", "nan"], ["--lr", "inf"]],
        ids=["min-freq-0", "max-len-4", "lr-nan", "lr-inf"],
    )
    def test_exit_2(self, corpus, tmp_path, capsys, flags):
        assert_usage_error(train_args(corpus, tmp_path / "run", flags), capsys)


class TestRefusedBeforeTheCorpusIsRead:
    # ablate takes no --refine-layers: its variants with two blocks meet the
    # heads that do not divide d1.
    @pytest.mark.parametrize(
        "verb, flags, setting",
        [
            ("train", ["--lr", "nan"], "learning_rate"),
            ("ablate", ["--lr", "nan"], "learning_rate"),
            ("train", ["--refine-layers", "1", "--refine-heads", "3"], "refine_heads"),
            ("ablate", ["--refine-heads", "3"], "refine_heads"),
            ("train", ["--out-dir", "{blocker}/r"], "out_dir"),
            ("ablate", ["--out-dir", "{blocker}/r"], "out_dir"),
            ("train", ["--min-freq", "0"], "min_freq"),
            ("train", ["--ratio", "1.5"], "ratio"),
            ("train", ["--threshold", "2"], "threshold"),
        ],
        ids=[
            "train-lr", "ablate-lr", "train-heads", "ablate-heads", "train-out", "ablate-out",
            "train-min-freq", "train-ratio", "train-threshold",
        ],
    )
    def test_exit_2(self, corpus, tmp_path, capsys, monkeypatch, verb, flags, setting):
        def parse_corpus(*_args):
            raise AssertionError("the corpus was read before the settings were checked")

        monkeypatch.setattr("depfuse.pipeline.parse_corpus", parse_corpus)
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")
        flags = [flag.format(blocker=blocker) for flag in flags]
        argv = [verb, *train_args(corpus, tmp_path / "run", flags)[1:]]
        assert setting in assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "verb, flags, setting",
        [
            ("featurize", ["--threshold", "2"], "threshold"),
            ("eval", ["--threshold", "2"], "threshold"),
            ("eval", ["--split", "validation", "--ratio", "1.5"], "ratio"),
            ("predict", ["--threshold", "2"], "threshold"),
        ],
        ids=["featurize-threshold", "eval-threshold", "eval-ratio", "predict-threshold"],
    )
    def test_reading_verbs_exit_2(
        self, corpus, trained, capsys, monkeypatch, verb, flags, setting
    ):
        def parse_corpus(*_args):
            raise AssertionError("the corpus was read before the settings were checked")

        monkeypatch.setattr("depfuse.pipeline.parse_corpus", parse_corpus)
        argv = [verb, "--corpus", str(corpus), *flags]
        if verb != "featurize":
            argv += ["--checkpoint", str(trained / "checkpoint.json")]
        assert setting in assert_usage_error(argv, capsys)


class TestOutputUnderRegularFile:
    @pytest.mark.parametrize(
        "verb", ["train", "ablate", "gen-synth", "featurize", "eval", "predict"]
    )
    def test_exit_2(self, corpus, trained, tmp_path, capsys, verb):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")
        read = ["--corpus", str(corpus), "--seed", "7"]
        checkpoint = ["--checkpoint", str(trained / "checkpoint.json")]
        argv = {
            "train": train_args(corpus, blocker / "r"),
            "ablate": ["ablate", *train_args(corpus, blocker / "r")[1:]],
            "gen-synth": ["gen-synth", "--n", "2", "--out", str(blocker / "x")],
            "featurize": ["featurize", *read, "--out", str(blocker / "x")],
            "eval": ["eval", *read, *checkpoint, "--out", str(blocker / "x")],
            "predict": ["predict", *read, *checkpoint, "--out", str(blocker / "x")],
        }[verb]
        assert_usage_error(argv, capsys)


class TestConfigFile:
    def test_precedence_defaults_file_flags(self, corpus, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 9\nepochs = 1\nd1 = 8\nd2 = 8\nd_k = 8\nmlp_hidden = 8\nmax_len = 32\n")
        out_a = tmp_path / "a"
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(config),
                    "--corpus",
                    str(corpus),
                    "--out-dir",
                    str(out_a),
                ]
            )
            == 0
        )
        a = json.loads((out_a / "checkpoint.json").read_text())
        assert a["config"]["d1"] == 8  # file overrides default (32)

        out_b = tmp_path / "b"
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(config),
                    "--corpus",
                    str(corpus),
                    "--out-dir",
                    str(out_b),
                    "--d1",
                    "16",
                    "--refine-heads",
                    "4",
                ]
            )
            == 0
        )
        b = json.loads((out_b / "checkpoint.json").read_text())
        assert b["config"]["d1"] == 16  # flag overrides file

    def test_unknown_key_rejected(self, corpus, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("nonsense = 1\n")
        assert main(["featurize", "--config", str(config), "--corpus", str(corpus)]) == 2
        config.write_bytes(b"seed = 1 # \xff\n")
        assert main(["featurize", "--config", str(config), "--corpus", str(corpus)]) == 2
        assert main(["featurize", "--config", str(tmp_path), "--corpus", str(corpus)]) == 2

    def test_comments_and_blank_lines(self, tmp_path, corpus, capsys):
        config = tmp_path / "ok.cfg"
        config.write_text("# comment\n\nthreshold = 0.9  # trailing\n")
        assert main(["featurize", "--config", str(config), "--corpus", str(corpus)]) == 0


FEAT = ("featurize", "train", "eval", "predict")
VERBS = ("gen-synth",) + FEAT
TRAIN = ("train",)


def _int_key(flag, verbs=TRAIN):
    return ("3", 3, [([flag, "3"], 3, verbs)])


def _bool_key(flag):
    negated = "--no-" + flag[2:]
    return ("off", False, [([flag], True, TRAIN), ([negated], False, TRAIN)])


# Every config key: its text in a config file, the value that text parses to,
# and each flag spelling with the value it sets and the verbs that accept it.
SURFACE = {
    "corpus": ("c.jsonl", "c.jsonl", [(["--corpus", "c.jsonl"], "c.jsonl", FEAT)]),
    "out_dir": ("d", "d", [(["--out-dir", "d"], "d", TRAIN), (["--out", "d"], "d", TRAIN)]),
    "lexicon": ("l.txt", "l.txt", [(["--lexicon", "l.txt"], "l.txt", FEAT)]),
    "threshold": ("0.25", 0.25, [(["--threshold", "0.25"], 0.25, FEAT)]),
    "ratio": ("0.6", 0.6, [(["--ratio", "0.6"], 0.6, ("train", "eval"))]),
    "seed": _int_key("--seed", VERBS),
    "min_freq": _int_key("--min-freq"),
    "max_len": _int_key("--max-len"),
    "d1": _int_key("--d1"),
    "d2": _int_key("--d2"),
    "d_k": _int_key("--d-k"),
    "refine_layers": _int_key("--refine-layers"),
    "refine_heads": _int_key("--refine-heads"),
    "mlp_hidden": _int_key("--mlp-hidden"),
    "fusion": ("concat", "concat", [(["--fusion", "concat"], "concat", TRAIN)]),
    "value_projection": (
        "separate", "separate", [(["--value-projection", "separate"], "separate", TRAIN)]
    ),
    "outer_relu": _bool_key("--outer-relu"),
    "fusion_query": ("stats", "stats", [(["--fusion-query", "stats"], "stats", TRAIN)]),
    "learning_rate": ("0.01", 0.01, [(["--lr", "0.01"], 0.01, TRAIN)]),
    "batch_size": _int_key("--batch-size"),
    "epochs": _int_key("--epochs"),
    "early_stop_patience": _int_key("--early-stop-patience"),
    "shuffle_each_epoch": _bool_key("--shuffle-each-epoch"),
    "timing": _bool_key("--timing"),
    "n": _int_key("--n", ("gen-synth",)),
    "out": ("o", "o", [(["--out", "o"], "o", ("gen-synth", "featurize", "eval", "predict"))]),
    "checkpoint": ("k.json", "k.json", [(["--checkpoint", "k.json"], "k.json", ("eval", "predict"))]),
    "split": ("train", "train", [(["--split", "validation"], "validation", ("eval",))]),
}
ACCEPTED = {
    (argv[0], verb) for _, _, spellings in SURFACE.values() for argv, _, verbs in spellings
    for verb in verbs
}


@pytest.mark.parametrize(
    "key", [f.name for f in fields(RunConfig)] + ["n", "out", "checkpoint", "split"]
)
def test_config_key_and_flags(key, tmp_path):
    text, value, spellings = SURFACE[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n")
    parsed = parse_config_file(config)
    assert parsed == {key: value} and type(parsed[key]) is type(value)
    parser = build_parser()
    for argv, expected, verbs in spellings:
        for verb in VERBS:
            if (argv[0], verb) in ACCEPTED:
                if verb in verbs:
                    args = parser.parse_args([verb, *argv])
                    assert getattr(args, key) == expected, (verb, argv)
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args([verb, *argv])


def typed_values(key):
    """Config text for ``key``: mostly of its type, near its valid range."""
    f = cli._SETTINGS[key]
    kind = cli._kind(f)
    if kind is bool:
        return st.sampled_from(["true", "off", "Yes", "0", "2", "truthy"])
    if kind is int:
        return st.integers(-3, 300).map(str) | st.just("9" * 5000)
    if kind is float:
        return st.floats().map(repr) | st.sampled_from(["1e400", "0x1p-2", "1_0"])
    return st.sampled_from(f.metadata.get("choices") or ["c.jsonl"]) | st.text(max_size=8)


@st.composite
def config_files(draw):
    """Config file bytes: settings lines over every key, with values of the
    key's type or junk, plus comments, blanks, lines that are not settings,
    and sometimes trailing bytes that are not UTF-8."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["typed"] * 6 + ["untyped", "comment", "junk"]))
        if kind in ("typed", "untyped"):
            key = draw(st.sampled_from(sorted(cli._SETTINGS)))
            value = draw(typed_values(key) if kind == "typed" else st.text(max_size=8))
            lines.append(f"{key} = {value}")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["", "# note", "  # seed = x"])))
        else:
            lines.append(draw(st.text(max_size=20)))
    tail = draw(st.sampled_from([b""] * 4 + [b"\xff", b"\nseed = 1\xc3", b"\x80\n"]))
    return "\n".join(lines).encode("utf-8") + tail


def test_fuzzed_config_file_gives_settings_or_config_error(tmp_path):
    path = tmp_path / "fuzz.cfg"
    outcomes = Counter()

    @given(config_files())
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def check(data):
        path.write_bytes(data)
        try:
            run_config, _ = cli.settings(argparse.Namespace(config=str(path)))
            run_config.validate()
            outcomes["accepted"] += 1
        except ConfigError:
            outcomes["refused"] += 1

    check()
    # Both outcomes occur, so the fuzz reaches validate() with parsed values.
    assert outcomes["accepted"] and outcomes["refused"], outcomes
