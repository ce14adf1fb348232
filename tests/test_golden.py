"""Golden explanations and training losses.

``explain`` at desk size, from the committed fixture checkpoints, writes the
committed JSON. Every number must match to 1e-9 of its size (the untrained
fixtures' weights are about 1e-4) and the feature order exactly, so that a
change that moves explanations by more than fp64 reassociation fails here.

A seeded desk-size ``train-binary`` and ``train-multilabel`` on a synthetic
corpus of ragged documents write each epoch's train and validation loss,
which must match the committed histories to 1e-9: every forward and backward
of both models, Adam and dropout's draws, pinned end to end.

Rewrite the expected files only with a change that means to move the
explanations or the losses, and say so where that change is recorded:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import _rewrite_header
from toxiclass import cli
from toxiclass.corpus import LABELS, build_vocab

FIXTURES = Path(__file__).parent / "fixtures"
# The fixtures' 12-row table: PAD, UNK and these ten words.
WORDS = ["ash", "bat", "cod", "dew", "elm", "fig", "gnu", "hay", "ivy", "jay"]
# Repeated words, and one ("owl") that reads as UNK.
TEXT = "ash bat cod ash dew elm fig gnu owl hay ivy jay bat elm cod ash"
# 52 words at ``tokenize.max_len`` 40: "jay" and the UNK words "yak" and "kid"
# appear only past the cut, so a drop of earlier words pulls them in.
LONG_TEXT = ("ash bat cod ash dew elm fig gnu owl hay ivy bat elm cod ash "
             "ivy hay gnu fig elm dew cod bat ash owl "
             "ash bat cod dew elm fig gnu hay ivy ash bat cod dew elm fig "
             "jay yak elm kid jay ash yak bat jay hay kid cod")
# fixture name -> the explained text
TEXTS = {"": TEXT, "_long": LONG_TEXT}
# stage -> (explained class, the checkpoint's sizes as config lines)
STAGES = {
    "binary": ("toxic", "binary.lstm_units = 8\nbinary.dense_hidden = 8\n"),
    "multilabel": ("threat", "multilabel.conv_stack = 16x4,12x3,8x2\n"
                             "multilabel.bilstm_units = 8\n"),
}


def explain(stage: str, root: Path, text: str = TEXT) -> dict:
    """The explanation JSON that ``explain`` writes for ``text`` from the
    stage's fixture checkpoint, run in a fresh ``root``."""
    label, sizes = STAGES[stage]
    vocab = build_vocab([" ".join(WORDS)])
    (root / "prepared").mkdir(parents=True)
    vocab.save(root / "prepared" / "vocab.txt")
    ckpt = root / f"{stage}.ckpt"
    shutil.copyfile(FIXTURES / f"desk_{stage}.ckpt", ckpt)
    _rewrite_header(ckpt, {"set": ("vocab_hash", vocab.content_hash())})
    cfg = root / "run.cfg"
    cfg.write_text(f"output.dir = {root}\ntokenize.max_len = 40\nembedding.dim = 5\n"
                   f"{sizes}explain.samples = 1000\nseed = 3\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(cfg), "explain", "--text", text,
                         "--stage", stage, "--label", label])
    assert code == 0
    return json.loads((root / f"explanation_{stage}_{label}.json")
                      .read_text(encoding="utf-8"))


# The training corpus's words: two per label, and filler.
TRAIN_WORDS = {"vulgar": ("vix", "vox"), "hate": ("hax", "hox"),
               "religious": ("rel", "rix"), "threat": ("thx", "tox"),
               "troll": ("trl", "trx"), "insult": ("inx", "isx")}
TRAIN_FILL = ("river", "cloud", "stone", "light", "grass", "plain", "brook", "field")
TRAIN_HISTORY = FIXTURES / "desk_train_history.json"


def _write_train_corpus(path: Path, n: int = 64) -> None:
    """``n`` documents of 1 to 40 words, half toxic, each toxic one with one
    or two labels and their words among filler; drawn from a fixed seed."""
    rng = np.random.default_rng(5)
    rows = ["id,text,toxic," + ",".join(LABELS)]
    for i in range(n):
        words = list(rng.choice(TRAIN_FILL, size=int(rng.integers(1, 41))))
        labels = [0] * len(LABELS)
        if i % 2:
            for c in rng.choice(len(LABELS), size=int(rng.integers(1, 3)), replace=False):
                labels[c] = 1
                for word in TRAIN_WORDS[LABELS[c]]:
                    words.insert(int(rng.integers(0, len(words) + 1)), word)
        rows.append(f"d{i}," + " ".join(words) + f",{i % 2}," + ",".join(map(str, labels)))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def train_histories(root: Path) -> dict:
    """Each stage's ``*_history.json`` after a seeded desk-size prepare,
    split and three epochs of training per stage in a fresh ``root``. At
    ``tokenize.max_len`` 30 the tagger's stack has a receptive field of 19
    and a stride of 8, so its documents run 1 to 4 stack rows of their own,
    and some are cut at 30."""
    csv_path = root / "corpus.csv"
    _write_train_corpus(csv_path)
    cfg = root / "run.cfg"
    cfg.write_text(f"data.path = {csv_path}\ndata.toxic_field = toxic\n"
                   f"data.id_field = id\ntokenize.max_len = 30\nembedding.dim = 5\n"
                   f"{STAGES['binary'][1]}{STAGES['multilabel'][1]}"
                   "train.batch_size = 8\ntrain.learning_rate = 0.01\ntrain.epochs = 3\n"
                   f"output.dir = {root / 'out'}\nseed = 3\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("prepare", "split", "train-binary", "train-multilabel"):
            assert cli.main(["--config", str(cfg), command]) == 0
    return {stage: json.loads((root / "out" / f"{stage}_history.json")
                              .read_text(encoding="utf-8"))
            for stage in STAGES}


def _expected_path(stage: str, name: str = "") -> Path:
    return FIXTURES / f"desk_explanation_{stage}{name}.json"


def _numbers(obj) -> list[float]:
    """Every number in a JSON value, in document order; keys sorted."""
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _numbers(obj[key])]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


@pytest.mark.parametrize("stage", STAGES)
def test_explanation_matches_golden(stage, tmp_path):
    got = explain(stage, tmp_path)
    want = json.loads(_expected_path(stage).read_text(encoding="utf-8"))
    _assert_matches(got, want)


@pytest.mark.parametrize("stage", STAGES)
def test_long_text_explanation_matches_golden(stage, tmp_path):
    assert len(LONG_TEXT.split()) > 40
    got = explain(stage, tmp_path, LONG_TEXT)
    want = json.loads(_expected_path(stage, "_long").read_text(encoding="utf-8"))
    _assert_matches(got, want)


def _assert_matches(got: dict, want: dict) -> None:
    assert [word for word, _ in got["features"]] == [word for word, _ in want["features"]]
    assert sorted(got) == sorted(want)
    assert len(_numbers(got)) == len(_numbers(want))
    assert _numbers(got) == pytest.approx(_numbers(want), rel=1e-9, abs=1e-12)


def test_training_losses_match_golden(tmp_path):
    got = train_histories(tmp_path)
    want = json.loads(TRAIN_HISTORY.read_text(encoding="utf-8"))
    for stage in STAGES:
        assert got[stage]["best_epoch"] == want[stage]["best_epoch"]
        assert [h["epoch"] for h in got[stage]["history"]] \
            == [h["epoch"] for h in want[stage]["history"]]
        assert _numbers(got[stage]["history"]) \
            == pytest.approx(_numbers(want[stage]["history"]), rel=1e-9, abs=0)


if __name__ == "__main__":
    import tempfile

    for stage in STAGES:
        for name, text in TEXTS.items():
            with tempfile.TemporaryDirectory() as tmp:
                result = explain(stage, Path(tmp), text)
            path = _expected_path(stage, name)
            path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        result = train_histories(Path(tmp))
    TRAIN_HISTORY.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TRAIN_HISTORY}", file=sys.stderr)
