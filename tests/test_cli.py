import json
import shutil

import pytest

from toxiclass import cli
from toxiclass import metrics as MT
from toxiclass.config import RunConfig, load_config
from toxiclass.corpus import LABELS
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
        assert cli.main(["--set", "train.epochs=soon", "stats"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_pool_below_one(self, workspace, capsys):
        assert cli.main(workspace["base"] + ["--set", "multilabel.pool=0",
                                             "train-multilabel"]) == 2
        assert "pool must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, command", [
        ("binary.lstm_units=0", "train-binary"),
        ("binary.dense_hidden=4,0", "train-binary"),
        ("binary.dropout=1", "train-binary"),
        ("multilabel.bilstm_units=0", "train-multilabel"),
        ("multilabel.conv_stack=0x3", "train-multilabel"),
        ("multilabel.conv_stack=8x-1", "train-multilabel"),
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

    def test_split_before_prepare(self, tmp_path, capsys):
        assert cli.main(["--set", f"output.dir={tmp_path / 'none'}",
                         "split"]) == 3
        assert "run prepare first" in capsys.readouterr().err
