"""Golden explanations: ``explain`` at desk size, from the committed fixture
checkpoints, writes the committed JSON. Every number must match to 1e-9 of
its size (the untrained fixtures' weights are about 1e-4) and the feature
order exactly, so that a change that moves explanations by more than fp64
reassociation fails here.

Rewrite the expected files only with a change that means to move the
explanations, and say so where that change is recorded:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest
from conftest import _rewrite_header
from toxiclass import cli
from toxiclass.corpus import build_vocab

FIXTURES = Path(__file__).parent / "fixtures"
# The fixtures' 12-row table: PAD, UNK and these ten words.
WORDS = ["ash", "bat", "cod", "dew", "elm", "fig", "gnu", "hay", "ivy", "jay"]
# Repeated words, and one ("owl") that reads as UNK.
TEXT = "ash bat cod ash dew elm fig gnu owl hay ivy jay bat elm cod ash"
# stage -> (explained class, the checkpoint's sizes as config lines)
STAGES = {
    "binary": ("toxic", "binary.lstm_units = 8\nbinary.dense_hidden = 8\n"),
    "multilabel": ("threat", "multilabel.conv_stack = 16x4,12x3,8x2\n"
                             "multilabel.bilstm_units = 8\n"),
}


def explain(stage: str, root: Path) -> dict:
    """The explanation JSON that ``explain`` writes for ``TEXT`` from the
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
        code = cli.main(["--config", str(cfg), "explain", "--text", TEXT,
                         "--stage", stage, "--label", label])
    assert code == 0
    return json.loads((root / f"explanation_{stage}_{label}.json")
                      .read_text(encoding="utf-8"))


def _expected_path(stage: str) -> Path:
    return FIXTURES / f"desk_explanation_{stage}.json"


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
    assert [word for word, _ in got["features"]] == [word for word, _ in want["features"]]
    assert sorted(got) == sorted(want)
    assert len(_numbers(got)) == len(_numbers(want))
    assert _numbers(got) == pytest.approx(_numbers(want), rel=1e-9, abs=1e-12)


if __name__ == "__main__":
    import tempfile

    for stage in STAGES:
        with tempfile.TemporaryDirectory() as tmp:
            result = explain(stage, Path(tmp))
        _expected_path(stage).write_text(json.dumps(result, indent=1) + "\n",
                                         encoding="utf-8")
        print(f"wrote {_expected_path(stage)}", file=sys.stderr)
