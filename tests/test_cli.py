import json
import shutil

import numpy as np
import pytest

from toxiclass import cli
from toxiclass import metrics as MT
from toxiclass import models as M
from toxiclass.config import RunConfig, load_config
from toxiclass.corpus import LABELS, Vocabulary, encode
from toxiclass.errors import ConfigError


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg["train.batch_size"] == 16
        assert cfg["thresholds.binary"] == 0.5
        assert cfg["multilabel.conv_stack"] == ((512, 4), (256, 3), (128, 2))
        assert cfg["data.path"] is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig()["no.such.key"]
        with pytest.raises(ConfigError):
            RunConfig().set_text("no.such.key", "1")

    def test_bad_value_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.set_text("train.epochs", "many")
        with pytest.raises(ConfigError):
            cfg.set_text("embedding.trainable", "maybe")

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("1", True), ("yes", True), ("on", True), (" TRUE ", True),
        ("false", False), ("0", False), ("no", False), ("off", False), ("Off", False),
    ])
    def test_boolean_spellings(self, text, value):
        cfg = RunConfig()
        cfg.set_text("embedding.trainable", text)
        assert cfg["embedding.trainable"] is value

    def test_conv_stack_syntax(self):
        cfg = RunConfig()
        cfg.set_text("multilabel.conv_stack", "32x3, 16x2")
        assert cfg["multilabel.conv_stack"] == ((32, 3), (16, 2))

    def test_optional_values(self):
        cfg = RunConfig()
        cfg.set_text("data.toxic_field", "none")
        assert cfg["data.toxic_field"] is None
        cfg.set_text("data.label_fields", "none")
        assert cfg["data.label_fields"] is None
        cfg.set_text("data.label_fields", "a, b")
        assert cfg["data.label_fields"] == ("a", "b")

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "\n"
            "train.epochs = 7\n"
            "binary.dense_hidden = 32, 16\n"
            "output.dir = somewhere\n",
            encoding="utf-8",
        )
        cfg = load_config(path, overrides=["train.epochs=9", "seed=4"])
        assert cfg["train.epochs"] == 9  # override beats file
        assert cfg["binary.dense_hidden"] == (32, 16)
        assert str(cfg.output_dir()) == "somewhere"
        assert cfg["seed"] == 4

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs 7\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_builders_round_trip(self):
        cfg = RunConfig()
        cfg.set_text("binary.lstm_units", "5")
        cfg.set_text("multilabel.conv_stack", "8x3")
        cfg.set_text("train.learning_rate", "0.25")
        assert cfg.binary_model_config().lstm_units == 5
        assert cfg.multilabel_model_config().conv_stack == ((8, 3),)
        assert cfg.training_config().learning_rate == 0.25
        assert cfg.split_spec().train_fraction == 0.60
        assert cfg.format_spec().text_field == "text"


# six signature words per class, plus neutral filler
SIG = {
    "vulgar": ("vix", "vox"),
    "hate": ("hax", "hox"),
    "religious": ("rel", "rix"),
    "threat": ("thx", "tox"),
    "troll": ("trl", "trx"),
    "insult": ("inx", "isx"),
}
FILL = ("river", "cloud", "stone", "light", "grass", "plain", "brook", "field")


def _make_corpus_csv(path, n=120):
    header = "id,text," + "toxic," + ",".join(LABELS)
    rows = [header]
    for i in range(n):
        toxic = i % 2
        if toxic:
            c = (i // 2) % 6
            labels = [0] * 6
            labels[c] = 1
            words = list(SIG[LABELS[c]]) * 2
            if i % 4 == 1:
                c2 = (c + 1) % 6
                labels[c2] = 1
                words += list(SIG[LABELS[c2]])
            words.append(FILL[i % len(FILL)])
        else:
            labels = [0] * 6
            words = [FILL[(i + j) % len(FILL)] for j in range(4)]
        rows.append(f"d{i}," + " ".join(words) + f",{toxic},"
                    + ",".join(str(v) for v in labels))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A prepared, split and trained run that the command tests share."""
    root = tmp_path_factory.mktemp("cli_run")
    csv_path = root / "corpus.csv"
    _make_corpus_csv(csv_path)
    cfg_path = root / "run.cfg"
    cfg_path.write_text(
        f"data.path = {csv_path}\n"
        "data.toxic_field = toxic\n"
        "data.id_field = id\n"
        "tokenize.max_len = 12\n"
        "embedding.dim = 8\n"
        "binary.lstm_units = 6\n"
        "binary.dense_hidden = 6\n"
        "binary.dropout = 0.1\n"
        "multilabel.conv_stack = 8x3\n"
        "multilabel.bilstm_units = 4\n"
        "train.batch_size = 8\n"
        "train.patience = 100\n"
        "explain.samples = 200\n"
        f"output.dir = {root / 'out'}\n"
        "seed = 0\n",
        encoding="utf-8",
    )
    base = ["--config", str(cfg_path)]
    assert cli.main(base + ["prepare"]) == 0
    assert cli.main(base + ["split"]) == 0
    assert cli.main(base + ["--set", "train.learning_rate=0.05",
                            "--set", "train.epochs=20", "train-binary"]) == 0
    assert cli.main(base + ["--set", "train.learning_rate=0.02",
                            "--set", "train.epochs=8", "train-multilabel"]) == 0
    return {"root": root, "cfg": cfg_path, "base": base,
            "out": root / "out", "csv": csv_path}


class TestPrepareAndSplit:
    def test_prepared_artifacts(self, workspace):
        pdir = workspace["out"] / "prepared"
        docs = [json.loads(l) for l in
                (pdir / "documents.jsonl").read_text().splitlines()]
        assert len(docs) == 120
        assert all(set(d) == {"id", "text", "toxic", "labels"} for d in docs)
        meta = json.loads((pdir / "meta.json").read_text())
        assert meta["num_documents"] == 120
        assert meta["labels"] == list(LABELS)
        assert (pdir / "vocab.txt").exists()

    def test_split_artifacts(self, workspace):
        sdir = workspace["out"] / "splits"
        folds = {name: (sdir / f"{name}.ids").read_text().split()
                 for name in ("train", "val", "test")}
        sizes = {k: len(v) for k, v in folds.items()}
        assert sum(sizes.values()) == 120
        assert abs(sizes["train"] - 72) <= 1
        assert abs(sizes["val"] - 29) <= 1
        assert abs(sizes["test"] - 19) <= 1
        all_ids = folds["train"] + folds["val"] + folds["test"]
        assert len(set(all_ids)) == 120

    def test_prepare_is_deterministic(self, workspace, tmp_path):
        base = workspace["base"]
        alt = tmp_path / "out2"
        assert cli.main(base + ["--set", f"output.dir={alt}", "prepare"]) == 0
        assert cli.main(base + ["--set", f"output.dir={alt}", "split"]) == 0
        for rel in ("prepared/documents.jsonl", "prepared/vocab.txt",
                    "prepared/meta.json", "splits/train.ids",
                    "splits/val.ids", "splits/test.ids"):
            assert (alt / rel).read_bytes() \
                == (workspace["out"] / rel).read_bytes(), rel

    def test_prepare_with_reserved_tokens_in_text(self, workspace, tmp_path):
        csv_path = tmp_path / "reserved.csv"
        _make_corpus_csv(csv_path, n=12)
        with open(csv_path, "a", encoding="utf-8") as fh:
            fh.write("r1,river <pad> cloud <unk>,0," + ",".join("0" * 6) + "\n")
        alt = tmp_path / "out"
        assert cli.main(workspace["base"] + ["--set", f"data.path={csv_path}",
                                             "--set", f"output.dir={alt}",
                                             "prepare"]) == 0
        tokens = (alt / "prepared" / "vocab.txt").read_text(
            encoding="utf-8").splitlines()
        assert tokens[:2] == ["<pad>", "<unk>"]
        assert "<pad>" not in tokens[2:] and "<unk>" not in tokens[2:]


class TestTrainAndEvaluate:
    def test_history_artifacts(self, workspace):
        for kind in ("binary", "multilabel"):
            hist = json.loads(
                (workspace["out"] / f"{kind}_history.json").read_text())
            assert hist["best_epoch"] >= 0
            assert hist["history"][0]["epoch"] == 0
            assert all(h["val_loss"] > 0 for h in hist["history"])
            assert (workspace["out"] / f"{kind}.ckpt").exists()

    def test_evaluate_binary_report(self, workspace):
        assert cli.main(workspace["base"] + ["evaluate", "--stage", "binary"]) == 0
        rep = json.loads((workspace["out"] / "report_binary.json").read_text())
        assert rep["stage"] == "binary" and rep["threshold"] == 0.5
        conf = rep["confusion"]
        assert conf["tp"] + conf["fp"] + conf["fn"] + conf["tn"] == rep["n"]
        # the corpus is cleanly separable, so a converged gate is exact
        assert rep["accuracy"] == 1.0
        assert rep["precision"] == rep["recall"] == rep["f1"] == 1.0
        assert rep["auc"] == 1.0
        csv_lines = (workspace["out"] / "confusion_binary.csv").read_text().splitlines()
        assert csv_lines[0] == "label,tp,fp,fn,tn" and len(csv_lines) == 2
        roc = (workspace["out"] / "roc_binary.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr" and len(roc) >= 3

    def test_evaluate_multilabel_report(self, workspace):
        assert cli.main(workspace["base"]
                        + ["evaluate", "--stage", "multilabel"]) == 0
        rep = json.loads((workspace["out"] / "report_multilabel.json").read_text())
        assert rep["stage"] == "multilabel"
        assert 0.0 <= rep["accuracy"] <= 1.0
        assert 0.0 <= rep["weighted_f1"] <= 1.0
        assert len(rep["per_class"]) == 6
        assert [m["label"] for m in rep["per_class"]] == list(LABELS)
        conf = (workspace["out"] / "confusion_multilabel.csv").read_text().splitlines()
        assert len(conf) == 7  # header + one row per label
        roc = (workspace["out"] / "roc_multilabel.csv").read_text().splitlines()
        assert roc[0] == "label,threshold,fpr,tpr"

    def test_evaluate_without_checkpoint(self, workspace, tmp_path, capsys):
        alt = tmp_path / "fresh"
        assert cli.main(workspace["base"]
                        + ["--set", f"output.dir={alt}",
                           "evaluate", "--stage", "binary"]) == 3
        assert "data error" in capsys.readouterr().err

    def test_malformed_checkpoint_header(self, workspace, tmp_path, capsys,
                                         rewrite_header):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        rewrite_header(alt / "binary.ckpt", {"drop": "kind"})
        assert cli.main(workspace["base"]
                        + ["--set", f"output.dir={alt}",
                           "evaluate", "--stage", "binary"]) == 3
        err = capsys.readouterr().err
        assert "malformed header" in err and "binary.ckpt" in err

    @pytest.mark.parametrize("command", [
        ["evaluate", "--stage", "multilabel"],
        ["explain", "--text", "hax hox", "--stage", "multilabel",
         "--label", "hate"],
    ])
    @pytest.mark.parametrize("max_len", [2, 20])
    def test_seq_len_must_match_tagger(self, workspace, capsys, command,
                                       max_len):
        # 2 is too short for the 8x3 conv stack, 20 is longer than the
        # checkpoint's 12
        assert cli.main(workspace["base"]
                        + ["--set", f"tokenize.max_len={max_len}"]
                        + command) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{max_len}" in err and "12" in err


class TestClassify:
    def test_classify_file(self, workspace):
        in_path = workspace["root"] / "to_classify.txt"
        in_path.write_text(
            "vix vox vix vox river\n"
            "river cloud stone light\n"
            "hax hox hax hox\n"
            "\n"
            "trl trx trl trx cloud\n",
            encoding="utf-8",
        )
        assert cli.main(workspace["base"]
                        + ["classify", "--input", str(in_path)]) == 0
        rows = [json.loads(l) for l in
                (workspace["out"] / "classified.jsonl").read_text().splitlines()]
        assert [r["id"] for r in rows] == ["1", "2", "3", "5"]  # blank skipped
        for r in rows:
            assert r["labels"], "verdict must never be empty"
            if r["labels"] == ["Non-toxic"]:
                assert r["p_toxic"] < 0.5
                assert r["label_probs"] is None
            else:
                assert r["p_toxic"] >= 0.5
                assert len(r["label_probs"]) == 6
                assert "Non-toxic" not in r["labels"]
        assert rows[1]["labels"] == ["Non-toxic"]  # pure filler text
        assert rows[0]["labels"] != ["Non-toxic"]  # signature-heavy text
        # the batched command gives each line what scoring it alone gives
        cfg = load_config(workspace["cfg"])
        pipe = cli._load_pipeline(cfg, cli._load_vocab(cfg))
        lines = in_path.read_text(encoding="utf-8").splitlines()
        for r in rows:
            alone = pipe.classify(lines[int(r["id"]) - 1])
            assert r["labels"] == alone["labels"]
            assert r["p_toxic"] == pytest.approx(alone["p_toxic"], rel=0, abs=1e-12)
            assert (r["label_probs"] is None) == (alone["label_probs"] is None)
            if alone["label_probs"] is not None:
                assert r["label_probs"] == pytest.approx(alone["label_probs"],
                                                         rel=0, abs=1e-12)

    @pytest.mark.parametrize("max_len", [2, 20])
    def test_seq_len_must_match_tagger(self, workspace, capsys, max_len):
        in_path = workspace["root"] / "seq_len.txt"
        in_path.write_text("vix vox vix vox river\n", encoding="utf-8")
        assert cli.main(workspace["base"]
                        + ["--set", f"tokenize.max_len={max_len}",
                           "classify", "--input", str(in_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{max_len}" in err and "12" in err

    def test_missing_input_file(self, workspace, capsys):
        assert cli.main(workspace["base"]
                        + ["classify", "--input", "no_such.txt"]) == 3
        assert "data error" in capsys.readouterr().err


class TestExplain:
    def test_binary_explanation(self, workspace, capsys):
        assert cli.main(workspace["base"]
                        + ["explain", "--text", "vix vox river cloud",
                           "--stage", "binary"]) == 0
        out = capsys.readouterr().out
        assert "toxic" in out
        data = json.loads(
            (workspace["out"] / "explanation_binary_toxic.json").read_text())
        assert data["class_name"] == "toxic"
        assert data["n_samples"] == 200
        assert 1 <= len(data["features"]) <= 6
        words = [w for w, _ in data["features"]]
        assert set(words) <= {"vix", "vox", "river", "cloud"}

    def test_multilabel_explanation(self, workspace):
        assert cli.main(workspace["base"]
                        + ["explain", "--text", "hax hox river stone",
                           "--stage", "multilabel", "--label", "hate"]) == 0
        data = json.loads(
            (workspace["out"] / "explanation_multilabel_hate.json").read_text())
        assert data["class_name"] == "hate"
        assert data["class_index"] == LABELS.index("hate")

    def test_unknown_label(self, workspace, capsys):
        assert cli.main(workspace["base"]
                        + ["explain", "--text", "hax hox",
                           "--stage", "multilabel", "--label", "sarcasm"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_label_checked_before_reading_files(self, tmp_path, capsys):
        assert cli.main(["--set", f"output.dir={tmp_path / 'out'}",
                         "explain", "--text", "hax hox",
                         "--stage", "multilabel", "--label", "bogus"]) == 2
        assert "--label must be one of" in capsys.readouterr().err


class TestStats:
    def test_stats_output(self, workspace, capsys):
        assert cli.main(workspace["base"] + ["stats"]) == 0
        printed = capsys.readouterr().out
        assert "total 120" in printed and "toxic 60" in printed
        data = json.loads((workspace["out"] / "stats.json").read_text())
        assert data["total"] == 120
        assert data["toxic"] == 60 and data["non_toxic"] == 60
        assert sum(data["per_class"].values()) \
            == sum(int(k) * v for k, v in data["cardinality"].items())
        assert data["cardinality"]["2"] == 30  # every i % 4 == 1 doc

    def test_stats_requires_data_path(self, capsys):
        assert cli.main(["--set", "data.path=none", "stats"]) == 2
        assert "config error" in capsys.readouterr().err


class TestKappa:
    def _write(self, path, rows):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                        encoding="utf-8")

    def test_kappa_values_match_direct_computation(self, workspace, tmp_path):
        tox_a = [1, 1, 0, 0, 1, 0, 1, 0, 1, 1]
        tox_b = [1, 0, 0, 0, 1, 1, 1, 0, 1, 0]
        gold = [1, 1, 0, 0, 1, 0, 1, 1, 1, 1]
        lab_a = [[(i + c) % 2 for c in range(6)] for i in range(10)]
        lab_b = [[(i + c + i % 3) % 2 for c in range(6)] for i in range(10)]
        a_path, b_path, e_path = (tmp_path / "a.jsonl", tmp_path / "b.jsonl",
                                  tmp_path / "e.jsonl")
        self._write(a_path, [{"id": i, "toxic": t, "labels": l}
                             for i, (t, l) in enumerate(zip(tox_a, lab_a))])
        self._write(b_path, [{"id": i, "toxic": t, "labels": l}
                             for i, (t, l) in enumerate(zip(tox_b, lab_b))])
        self._write(e_path, [{"id": i, "toxic": t}
                             for i, t in enumerate(gold)])
        assert cli.main(workspace["base"]
                        + ["kappa", "--annotations-a", str(a_path),
                           "--annotations-b", str(b_path),
                           "--expert", str(e_path)]) == 0
        data = json.loads((workspace["out"] / "kappa.json").read_text())
        assert data["n"] == 10
        assert data["kappa_toxic"] == MT.cohens_kappa(tox_a, tox_b)
        for c, name in enumerate(LABELS):
            assert data["kappa_per_class"][name] == MT.cohens_kappa(
                [l[c] for l in lab_a], [l[c] for l in lab_b])
        assert data["control_n"] == 10
        assert data["trustworthiness_a"] == MT.trustworthiness(tox_a, gold)
        assert data["trustworthiness_b"] == MT.trustworthiness(tox_b, gold)

    def test_disjoint_annotations(self, workspace, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a_path, [{"id": 1, "toxic": 1}])
        self._write(b_path, [{"id": 2, "toxic": 0}])
        assert cli.main(workspace["base"]
                        + ["kappa", "--annotations-a", str(a_path),
                           "--annotations-b", str(b_path)]) == 3
        assert "data error" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_config_key(self, capsys):
        assert cli.main(["--set", "bogus.key=1", "stats"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_value(self, capsys):
        # the dataset is never read: each value fails before it would be;
        # a tab delimiter is stripped to nothing like surrounding space
        for setting in ["train.epochs=soon", "thresholds.binary=nan",
                        "train.learning_rate=nan", "train.l2_lambda=inf",
                        "thresholds.label=-Infinity", "split.val=1e999", "seed=-1",
                        "data.delimiter=;;", "data.delimiter=", "data.delimiter=\t"]:
            assert cli.main(["--set", "data.path=unread.csv", "--set", setting,
                             "stats"]) == 2, setting
            err = capsys.readouterr().err
            assert "config error" in err and setting.split("=")[0] in err, err

    def test_pool_below_one(self, workspace, capsys):
        assert cli.main(workspace["base"] + ["--set", "multilabel.pool=0",
                                             "train-multilabel"]) == 2
        assert "pool must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, stage", [
        ("explain.samples=0", "binary"),
        ("explain.samples=-5", "multilabel"),
        ("explain.features.binary=-1", "binary"),
        ("explain.features.multilabel=-1", "multilabel"),
    ])
    def test_explain_budget_out_of_range(self, tmp_path, capsys, setting, stage):
        # checked before any file is read: the output dir holds nothing
        assert cli.main(["--set", f"output.dir={tmp_path / 'out'}",
                         "--set", setting, "explain", "--text", "hax hox",
                         "--stage", stage, "--label", "hate"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and setting.split("=")[0] in err

    @pytest.mark.parametrize("setting, command", [
        ("binary.lstm_units=0", "train-binary"),
        ("binary.dense_hidden=4,0", "train-binary"),
        ("binary.dropout=1", "train-binary"),
        ("multilabel.bilstm_units=0", "train-multilabel"),
        ("multilabel.conv_stack=0x3", "train-multilabel"),
        ("multilabel.conv_stack=8x-1", "train-multilabel"),
        ("embedding.dim=-3", "train-binary"),
        ("embedding.dim=0", "train-multilabel"),
        ("train.l2_lambda=-1", "train-binary"),
    ])
    def test_model_sizes_below_one(self, workspace, tmp_path, capsys, setting, command):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}",
                                             "--set", setting, command]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, change", [
        ("binary", {"lstm_units": 0}),
        ("binary", {"dropout_rate": -0.5}),
        ("multilabel", {"bilstm_units": 0}),
        ("multilabel", {"conv_stack": [[0, 3]]}),
    ])
    def test_checkpoint_sizes_below_one(self, workspace, tmp_path, capsys,
                                        rewrite_header, kind, change):
        from toxiclass import models as M
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        config = M._header_dict(M.load_model(alt / f"{kind}.ckpt"))["model_config"]
        rewrite_header(alt / f"{kind}.ckpt", {"set": ("model_config", {**config, **change})})
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}",
                                             "evaluate", "--stage", kind]) == 3
        assert "malformed header" in capsys.readouterr().err

    def test_nonzero_pad_row(self, workspace, tmp_path, capsys, write_checkpoint):
        from toxiclass import models as M
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        trained = M.load_model(alt / "binary.ckpt")
        trained.model.embedding.param.value[0, 0] = 1.0
        write_checkpoint(trained, alt / "binary.ckpt")
        lines = tmp_path / "input.txt"
        lines.write_text("vix vox\n", encoding="utf-8")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}", "classify",
                                             "--input", str(lines)]) == 3
        assert "tensor embedding.table has a nonzero PAD row" in capsys.readouterr().err

    def test_vocabulary_not_utf8(self, workspace, tmp_path, capsys):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        (alt / "prepared" / "vocab.txt").write_bytes(b"<pad>\n<unk>\n\xff\xfe\n")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}",
                                             "evaluate", "--stage", "binary"]) == 3
        assert "cannot read vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prepare", "stats"])
    @pytest.mark.parametrize("name, body, message", [
        ("data.csv", b"id,text,toxic\nd0,\xff,1\n", "is not UTF-8"),
        ("data.jsonl", b'{"id": "d0", "text": "\xff", "toxic": 1}\n', "is not UTF-8"),
        ("data.jsonl", b'{"id": "d0", "text": "a", "toxic": 1}\n[]\n',
         "row 2: not a JSON object"),
    ])
    def test_bad_data_file(self, tmp_path, capsys, command, name, body, message):
        path = tmp_path / name
        path.write_bytes(body)
        assert cli.main(["--set", f"data.path={path}",
                         "--set", f"data.format={name.split('.')[1]}",
                         "--set", "data.toxic_field=toxic",
                         "--set", "data.label_fields=none",
                         "--set", f"output.dir={tmp_path / 'out'}", command]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err and message in err

    # each array asks for more than 2**47 bytes (128 TiB), past any address
    # space, so the request fails at once and nothing is allocated
    @pytest.mark.parametrize("setting, command", [
        ("explain.samples=100000000000000", ["explain", "--text", "a b c"]),
        ("embedding.dim=100000000000000", ["train-binary"]),
    ], ids=["explain-samples", "embedding-dim"])
    def test_out_of_memory(self, workspace, tmp_path, capsys, setting, command):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}",
                                             "--set", setting, *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: ") and err.count("\n") == 1

    def test_prepare_requires_data_path(self, capsys):
        assert cli.main(["--set", "data.path=none", "prepare"]) == 2
        assert "data.path is required for prepare" in capsys.readouterr().err

    def test_vocabulary_mismatch_at_classify(self, workspace, tmp_path, capsys):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        with open(alt / "prepared" / "vocab.txt", "a", encoding="utf-8") as fh:
            fh.write("newword\n")
        lines = tmp_path / "input.txt"
        lines.write_text("vix vox\n", encoding="utf-8")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}", "classify",
                                             "--input", str(lines)]) == 3
        assert "different vocabulary" in capsys.readouterr().err

    def test_split_names_unknown_id(self, workspace, tmp_path, capsys):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        (alt / "splits" / "test.ids").write_text("d0\nnope\n", encoding="utf-8")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}",
                                             "evaluate", "--stage", "binary"]) == 3
        assert "unknown document id 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, code", [
        ([], 3), (["--set", "split.train=0.7"], 2)], ids=["good-fractions", "bad-fractions"])
    def test_split_of_empty_corpus(self, tmp_path, capsys, settings, code):
        # the fractions are checked when the split is described, before the
        # documents are looked at
        (tmp_path / "prepared").mkdir()
        (tmp_path / "prepared" / "documents.jsonl").write_text("", encoding="utf-8")
        assert cli.main(["--set", f"output.dir={tmp_path}", *settings, "split"]) == code
        err = capsys.readouterr().err
        assert ("empty document list" if code == 3 else "split fractions sum") in err

    def test_split_before_prepare(self, tmp_path, capsys):
        assert cli.main(["--set", f"output.dir={tmp_path / 'none'}",
                         "split"]) == 3
        assert "run prepare first" in capsys.readouterr().err


# reader site -> (exit code, the file: an artifact under output.dir or None
# for a file named on the command line, two good lines for a named file,
# arguments after the base ones that make the command read ``t``)
READERS = {
    "config": (2, None, b"# one\n# two\n", lambda t: ["--config", t, "stats"]),
    "stopwords": (2, None, b"a\nb\n",
                  lambda t: ["--set", f"stopwords.path={t}", "prepare"]),
    "dataset-csv": (3, None, b"id,text,toxic\nd0,a,1\n",
                    lambda t: ["--set", f"data.path={t}", "--set", "data.label_fields=none",
                               "stats"]),
    "dataset-jsonl": (3, None, b'{"id": 1, "text": "a", "toxic": 1}\n'
                      b'{"id": 2, "text": "b", "toxic": 0}\n',
                      lambda t: ["--set", f"data.path={t}", "--set", "data.format=jsonl",
                                 "--set", "data.label_fields=none", "stats"]),
    "documents": (3, "prepared/documents.jsonl", None, lambda t: ["split"]),
    "vocabulary": (3, "prepared/vocab.txt", None,
                   lambda t: ["evaluate", "--stage", "binary"]),
    "split-ids": (3, "splits/test.ids", None, lambda t: ["evaluate", "--stage", "binary"]),
    "embedding": (3, None, b"1 8\n<unk> 0 0 0 0 0 0 0 0\n",
                  lambda t: ["--set", f"embedding.path={t}", "train-binary"]),
    "classify-input": (3, None, b"vix vox\nriver cloud\n",
                       lambda t: ["classify", "--input", t]),
    "annotations": (3, None, b'{"id": 1, "toxic": 1}\n{"id": 2, "toxic": 0}\n',
                    lambda t: ["kappa", "--annotations-a", t, "--annotations-b", t + ".ok"]),
}


class TestReaders:
    @pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("site", sorted(READERS))
    def test_bad_file_exits_cleanly(self, workspace, tmp_path, capsys, site, fault):
        code, artifact, good, args = READERS[site]
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        target = alt / artifact if artifact else tmp_path / "input"
        if artifact:
            good = b"".join(target.read_bytes().splitlines(keepends=True)[:2])
            target.unlink()
        else:
            (tmp_path / "input.ok").write_bytes(good)
        if fault == "directory":
            target.mkdir()
        elif fault == "not-utf8":
            target.write_bytes(good + b"\xff\n")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}"]
                        + args(str(target))) == code
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err
        assert ("is not UTF-8 at line 3" in err) == (fault == "not-utf8")

    def test_bad_classify_input_leaves_output_alone(self, workspace, tmp_path, capsys):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        (alt / "classified.jsonl").write_text("kept\n", encoding="utf-8")
        bad = tmp_path / "input.txt"
        bad.write_bytes(b"vix vox\n\xff\n")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}",
                                             "classify", "--input", str(bad)]) == 3
        assert (alt / "classified.jsonl").read_text(encoding="utf-8") == "kept\n"


class TestDocumentIds:
    def _corpus(self, tmp_path, ids):
        """The 24-document corpus with its first ids replaced by ``ids``."""
        path = tmp_path / "corpus.csv"
        _make_corpus_csv(path, n=24)
        rows = path.read_text(encoding="utf-8").split("\n")
        for i, new_id in enumerate(ids, start=1):
            rows[i] = new_id + rows[i][rows[i].index(","):]
        path.write_text("\n".join(rows), encoding="utf-8")
        return path

    def test_ids_survive_prepare_split_train(self, workspace, tmp_path):
        # U+2028 is not a line break for text-mode reading, and " 1" is not "1"
        ids = ["a\u2028b", " 1", "1", "c\x85d"]
        data = self._corpus(tmp_path, ids)
        out = tmp_path / "out"
        base = workspace["base"] + ["--set", f"data.path={data}",
                                    "--set", f"output.dir={out}",
                                    "--set", "train.epochs=1"]
        for command in (["prepare"], ["split"], ["train-binary"],
                        ["evaluate", "--stage", "binary"]):
            assert cli.main(base + command) == 0, command
        split = [i for fold in ("train", "val", "test") for i in
                 (out / "splits" / f"{fold}.ids").read_text(encoding="utf-8")
                 .split("\n")[:-1]]
        assert sorted(split) == sorted(ids + [f"d{i}" for i in range(len(ids), 24)])

    @pytest.mark.parametrize("row, message", [
        (b'{"id": null, "text": "b", "toxic": 0}', "row 2: id field 'id' is null"),
        (b'{"text": "b", "toxic": 0}', "row 2: missing id field 'id'"),
    ], ids=["null", "missing"])
    def test_null_or_missing_jsonl_id(self, workspace, tmp_path, capsys, row, message):
        data = tmp_path / "corpus.jsonl"
        data.write_bytes(b'{"id": "None", "text": "a", "toxic": 1}\n' + row + b"\n")
        assert cli.main(workspace["base"] + ["--set", f"data.path={data}",
                                             "--set", "data.format=jsonl",
                                             "--set", "data.label_fields=none",
                                             "--set", f"output.dir={tmp_path / 'out'}",
                                             "prepare"]) == 3
        err = capsys.readouterr().err
        assert message in err and "1 bad rows" in err

    @pytest.mark.parametrize("ids, row", [(["x", "x"], 3), ([""], 2),
                                          (['"a\nb"'], 2)])
    def test_empty_repeated_or_multiline_id(self, workspace, tmp_path, capsys, ids, row):
        data = self._corpus(tmp_path, ids)
        assert cli.main(workspace["base"] + ["--set", f"data.path={data}",
                                             "--set", f"output.dir={tmp_path / 'out'}",
                                             "prepare"]) == 3
        err = capsys.readouterr().err
        assert f"row {row}: id" in err and "1 bad rows" in err


def test_classify_refuses_non_finite_checkpoint(workspace, tmp_path, capsys,
                                                write_checkpoint):
    alt = tmp_path / "out"
    shutil.copytree(workspace["out"], alt)
    (alt / "classified.jsonl").unlink(missing_ok=True)
    trained = M.load_model(alt / "binary.ckpt")
    trained.model.lstm.w_h.value[0, 0] = np.nan
    write_checkpoint(trained, alt / "binary.ckpt")
    text = tmp_path / "input.txt"
    text.write_text("vix vox river\n", encoding="utf-8")
    assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}",
                                         "classify", "--input", str(text)]) == 3
    err = capsys.readouterr().err
    assert "tensor lstm.w_h holds a non-finite value" in err and "Traceback" not in err
    assert not (alt / "classified.jsonl").exists()


class TestOnlyTheVocabulary:
    @pytest.mark.parametrize("args", [
        ["classify", "--input", "{input}"],
        ["explain", "--text", "vix vox river", "--stage", "multilabel"],
    ], ids=["classify", "explain"])
    def test_runs_without_prepared_documents(self, workspace, tmp_path, args):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        (alt / "prepared" / "documents.jsonl").unlink()
        text = tmp_path / "input.txt"
        text.write_text("vix vox river\n", encoding="utf-8")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}"]
                        + [a.format(input=text) for a in args]) == 0


# artifact under output.dir -> arguments of a command that writes it
WRITERS = {
    "classified.jsonl": ["classify", "--input", "{input}"],
    "explanation_binary_toxic.json": ["explain", "--text", "vix vox", "--stage", "binary"],
    "binary.ckpt": ["--set", "train.epochs=1", "train-binary"],
    "binary_history.json": ["--set", "train.epochs=1", "train-binary"],
    "report_binary.json": ["evaluate", "--stage", "binary"],
    "roc_binary.csv": ["evaluate", "--stage", "binary"],
    "splits/train.ids": ["split"],
    "prepared/documents.jsonl": ["prepare"],
    "prepared/vocab.txt": ["prepare"],
}


class TestWrites:
    @pytest.mark.parametrize("artifact", sorted(WRITERS))
    def test_unwritable_artifact_exits_cleanly(self, workspace, tmp_path, capsys, artifact):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        target = alt / artifact
        if target.exists():
            target.unlink()
        target.mkdir()
        text = tmp_path / "input.txt"
        text.write_text("vix vox river\n", encoding="utf-8")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}"]
                        + [a.format(input=text) for a in WRITERS[artifact]]) == 3
        err = capsys.readouterr().err
        assert f"cannot write {target}" in err and "Traceback" not in err


class TestBadRows:
    @pytest.mark.parametrize("line", [
        b"not json", b"[]", b"5", b'{"id": "x"}', b'{"text": "y"}',
        b'{"id": "x", "text": 5}', b'{"id": "x", "text": "y", "toxic": 1, "labels": [1]}',
        b'{"id": "x", "text": "y", "toxic": 1, "labels": 7}',
        pytest.param(b"[" * 100_000, id="nested"),
    ])
    def test_prepared_documents(self, workspace, tmp_path, capsys, line):
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        path = alt / "prepared" / "documents.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + line + b"\n" + b"".join(lines[2:]))
        assert cli.main(workspace["base"] + ["--set", f"output.dir={alt}", "split"]) == 3
        err = capsys.readouterr().err
        assert f"{path}:2: not a prepared document" in err

    @pytest.mark.parametrize("line", [
        b"5", b"[]", b"{", b'{"toxic": 1}', b'{"id": 2}', b'{"id": 2, "toxic": "yes"}',
        b'{"id": 2, "toxic": "1"}', b'{"id": 2, "toxic": 0.5}',
        b'{"id": 2, "toxic": 1, "labels": [1, 0]}', b'{"id": 2, "toxic": 1, "labels": null}',
        b'{"id": 2, "toxic": 1, "labels": [0, 0, 0, 0, 0, "1"]}',
    ])
    def test_annotations(self, workspace, tmp_path, capsys, line):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"id": 1, "toxic": 1, "labels": [1, 0, 0, 0, 0, 0]}\n'
                         + line + b"\n")
        assert cli.main(workspace["base"]
                        + ["--set", f"output.dir={tmp_path / 'out'}", "kappa",
                           "--annotations-a", str(path),
                           "--annotations-b", str(path)]) == 3
        assert f"{path}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["prepare"], ["stats"]])
    def test_output_dir_is_a_file(self, workspace, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert cli.main(workspace["base"] + ["--set", f"output.dir={taken}"]
                        + command) == 3
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(taken) in err


def _test_fold_scores(out, kind):
    """The stage's test documents and ``M.predict`` over them, read from the
    prepared files without the CLI's helpers."""
    rows = {}
    for line in (out / "prepared" / "documents.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        rows[row["id"]] = row
    members = [rows[i] for i in (out / "splits" / "test.ids").read_text().split()]
    if kind == "multilabel":
        members = [r for r in members if r["toxic"]]
    vocab = Vocabulary.load(out / "prepared" / "vocab.txt")
    model = M.load_model(out / f"{kind}.ckpt").model
    return members, M.predict(model, encode([r["text"] for r in members], vocab, 12))


def _csv_rows(path):
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def weak_run(workspace, tmp_path_factory):
    """The shared run with both stages trained one slow epoch, so that their
    test reports are neither perfect nor empty."""
    out = tmp_path_factory.mktemp("weak") / "out"
    shutil.copytree(workspace["out"], out)
    base = workspace["base"] + ["--set", f"output.dir={out}", "--set", "train.epochs=1",
                                "--set", "train.learning_rate=0.002"]
    for kind in ("binary", "multilabel"):
        assert cli.main(base + [f"train-{kind}"]) == 0
        assert cli.main(base + ["evaluate", "--stage", kind]) == 0
    return out


class TestEvaluateOracle:
    """Every number ``evaluate`` writes equals, with ``==``, what the metric
    functions give on ``M.predict`` over the stage's test documents."""

    def test_binary(self, weak_run):
        members, scores = _test_fold_scores(weak_run, "binary")
        gold = np.array([r["toxic"] for r in members])
        conf = MT.confusion((scores[:, 0] >= 0.5).astype(int), gold)
        p, r, f1 = MT.prf(conf)
        curve = MT.roc_auc(scores[:, 0], gold)
        assert 0.0 < conf.accuracy < 1.0 and 0.0 < curve.auc < 1.0
        assert json.loads((weak_run / "report_binary.json").read_text()) == {
            "stage": "binary", "n": len(members), "threshold": 0.5,
            "accuracy": conf.accuracy, "precision": p, "recall": r, "f1": f1,
            "auc": curve.auc,
            "confusion": {"tp": conf.tp, "fp": conf.fp, "fn": conf.fn, "tn": conf.tn},
        }
        assert _csv_rows(weak_run / "confusion_binary.csv") == [
            ["label", "tp", "fp", "fn", "tn"],
            ["toxic", str(conf.tp), str(conf.fp), str(conf.fn), str(conf.tn)]]
        roc = _csv_rows(weak_run / "roc_binary.csv")
        assert roc[0] == ["threshold", "fpr", "tpr"]
        assert [tuple(map(float, row)) for row in roc[1:]] == \
            [(t, fpr, tpr) for fpr, tpr, t in curve.points]

    def test_multilabel(self, weak_run):
        members, scores = _test_fold_scores(weak_run, "multilabel")
        gold = np.array([r["labels"] for r in members])
        report = MT.multilabel_report((scores >= 0.5).astype(int), gold)
        assert 0.0 < report.weighted_f1 < 1.0
        assert json.loads((weak_run / "report_multilabel.json").read_text()) == {
            "stage": "multilabel", "n": len(members), "threshold": 0.5,
            **report.to_dict()}
        assert _csv_rows(weak_run / "confusion_multilabel.csv") == [
            ["label", "tp", "fp", "fn", "tn"]] + [
            [m.label, str(m.tp), str(m.fp), str(m.fn), str(m.tn)] for m in report.per_class]
        roc = _csv_rows(weak_run / "roc_multilabel.csv")
        assert roc[0] == ["label", "threshold", "fpr", "tpr"]
        assert [(row[0], *map(float, row[1:])) for row in roc[1:]] == [
            (name, t, fpr, tpr) for c, name in enumerate(LABELS)
            for fpr, tpr, t in MT.roc_auc(scores[:, c], gold[:, c]).points]


class TestStageData:
    def _non_toxic_only(self, workspace, tmp_path, fold):
        """A copy of the run whose ``fold`` holds only non-toxic documents."""
        alt = tmp_path / "out"
        shutil.copytree(workspace["out"], alt)
        rows = [json.loads(line) for line in
                (alt / "prepared" / "documents.jsonl").read_text().splitlines()]
        (alt / "splits" / f"{fold}.ids").write_text(
            "".join(r["id"] + "\n" for r in rows if not r["toxic"]), encoding="utf-8")
        return workspace["base"] + ["--set", f"output.dir={alt}"]

    def test_no_toxic_document_in_val_fold(self, workspace, tmp_path, capsys):
        base = self._non_toxic_only(workspace, tmp_path, "val")
        assert cli.main(base + ["--set", "train.epochs=1", "train-multilabel"]) == 3
        err = capsys.readouterr().err
        assert "non-empty train and validation folds" in err and "Traceback" not in err

    def test_no_toxic_document_in_test_fold(self, workspace, tmp_path, capsys):
        base = self._non_toxic_only(workspace, tmp_path, "test")
        assert cli.main(base + ["evaluate", "--stage", "multilabel"]) == 3
        err = capsys.readouterr().err
        assert "test fold has no documents for the multilabel stage" in err
        assert "Traceback" not in err

    def test_toxic_only_dataset_without_labels(self, tmp_path, capsys):
        data = tmp_path / "toxic.csv"
        data.write_text("id,text,toxic\n" + "".join(
            f"t{i},{SIG['hate'][0]} {FILL[i % len(FILL)]},1\n" for i in range(20)),
            encoding="utf-8")
        base = ["--set", f"data.path={data}", "--set", "data.toxic_field=toxic",
                "--set", "data.id_field=id", "--set", "data.label_fields=none",
                "--set", "tokenize.max_len=12", "--set", "embedding.dim=8",
                "--set", "multilabel.conv_stack=8x3", "--set", "train.epochs=1",
                "--set", f"output.dir={tmp_path / 'out'}"]
        assert cli.main(base + ["prepare"]) == 0
        assert cli.main(base + ["split"]) == 0
        capsys.readouterr()
        assert cli.main(base + ["train-multilabel"]) == 3
        err = capsys.readouterr().err
        first = (tmp_path / "out" / "splits" / "train.ids").read_text().split()[0]
        assert f"train fold: document {first} has no label vector" in err


class TestDelimiter:
    def test_tab_separated_twin_prepares_the_same(self, tmp_path):
        comma = tmp_path / "comma.csv"
        _make_corpus_csv(comma, n=24)
        tab = tmp_path / "tab.tsv"
        tab.write_text(comma.read_text(encoding="utf-8").replace(",", "\t"),
                       encoding="utf-8")
        cfg = tmp_path / "tab.cfg"
        cfg.write_text("data.delimiter = \\t\n", encoding="utf-8")
        runs = {"comma": [],
                "tab-set": ["--set", "data.delimiter=\\t"],
                "tab-file": ["--config", str(cfg)]}
        for name, extra in runs.items():
            data = comma if name == "comma" else tab
            assert cli.main(extra + ["--set", f"data.path={data}",
                                     "--set", "data.toxic_field=toxic",
                                     "--set", "data.id_field=id",
                                     "--set", f"output.dir={tmp_path / name}",
                                     "prepare"]) == 0
        want = (tmp_path / "comma" / "prepared" / "documents.jsonl").read_bytes()
        assert want.count(b"\n") == 24
        for name in ("tab-set", "tab-file"):
            assert (tmp_path / name / "prepared" / "documents.jsonl").read_bytes() == want
