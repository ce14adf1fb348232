"""The three benchmark workloads: set-up, operations with their output
checks, and the metrics computed from the operations' timings.

Each workload drives the public API or ``toxiclass.cli.main`` in-process.
A workload is a fixed list of operations; one pass runs each once, in
order. Every operation returns a digest of its outputs, so repeated runs
of an operation can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import synth
from toxiclass import cli
from toxiclass import corpus as C
from toxiclass import models as M
from toxiclass.config import load_config
from toxiclass.embedding import random_table


@dataclass(frozen=True)
class Sizes:
    """Every size the workloads use. ``PAPER`` is the benchmark; ``TINY``
    only exercises the harness."""

    dim: int = 100
    max_len: int = 300
    lstm_units: int = 128
    dense_hidden: str = "128,64"
    conv_stack: str = "512x4,256x3,128x2"
    bilstm_units: int = 128
    batch_size: int = 16
    epochs: int = 1
    samples: int = 1000
    train_docs: int = 500
    train_tokens: tuple[int, int] = (5, 40)
    train_toxic_share: float = 0.4
    classify_docs: int = 500
    classify_tokens: tuple[int, int] = (60, 400)
    classify_toxic_share: float = 0.3
    # the gate passes exactly the documents whose planted markers survive
    # truncation, a little under the toxic share
    pass_band: tuple[float, float] = (0.25, 0.35)
    explain_binary_words: tuple[int, ...] = (5, 11, 17, 24, 30)
    explain_multilabel_words: int = 15
    k_binary: int = 6
    k_multilabel: int = 10


PAPER = Sizes()
TINY = Sizes(dim=8, max_len=40, lstm_units=8, dense_hidden="8", conv_stack="8x4,6x3,4x2",
             bilstm_units=4, batch_size=4, samples=30, train_docs=40,
             classify_docs=20, classify_tokens=(10, 50), pass_band=(0.1, 0.5),
             explain_binary_words=(5, 8), explain_multilabel_words=6)


class OpFailed(Exception):
    """An operation's output check failed."""


@dataclass(frozen=True)
class Op:
    """One operation. ``run`` is the timed work; ``check`` takes its result,
    checks the outputs and returns their digest, or raises ``OpFailed``."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], str]


def config_text(sizes: Sizes, data: Path, out: Path, seed: int) -> str:
    """A full run config. Every size, epoch, threshold and seed key is set
    here, so a change of a package default cannot resize a workload."""
    keys = {
        "data.path": data,
        "data.format": "csv",
        "data.text_field": "text",
        "data.toxic_field": "toxic",
        "data.label_fields": ",".join(synth.LABELS),
        "data.id_field": "id",
        "data.delimiter": ",",
        "stopwords.path": "none",
        "preprocess.remove_urls": "true",
        "preprocess.remove_punctuation": "true",
        "preprocess.remove_emoticons": "true",
        "vocab.max_size": 50000,
        "vocab.min_freq": 1,
        "tokenize.max_len": sizes.max_len,
        "embedding.dim": sizes.dim,
        "embedding.path": "none",
        "embedding.trainable": "true",
        "binary.lstm_units": sizes.lstm_units,
        "binary.dense_hidden": sizes.dense_hidden,
        "binary.dropout": 0.3,
        "binary.leaky_slope": 0.01,
        "binary.pooled_input": "false",
        "multilabel.conv_stack": sizes.conv_stack,
        "multilabel.pool": 2,
        "multilabel.bilstm_units": sizes.bilstm_units,
        "multilabel.use_attention": "true",
        "train.batch_size": sizes.batch_size,
        "train.learning_rate": 1e-5,
        "train.epochs": sizes.epochs,
        "train.l2_lambda": 1e-4,
        "train.patience": 10,
        "split.train": 0.6,
        "split.val": 0.24,
        "split.test": 0.16,
        "thresholds.binary": 0.5,
        "thresholds.label": 0.5,
        "explain.samples": sizes.samples,
        "explain.features.binary": sizes.k_binary,
        "explain.features.multilabel": sizes.k_multilabel,
        "output.dir": out,
        "seed": seed,
    }
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def run_cli(*argv) -> None:
    """``cli.main`` with its output captured; raises OpFailed on a non-zero exit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")


def digest(*parts) -> str:
    """Hash of strings and numbers; numbers are rounded to 1e-9 so two
    commits can be compared within fp64 reassociation noise."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode("utf-8"))
        else:
            h.update(",".join("nan" if v != v else f"{v:.9f}" for v in part).encode())
        h.update(b"|")
    return h.hexdigest()


def numbers(obj) -> list[float]:
    """Every number in a JSON value, in document order."""
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in numbers(obj[k])]
    if isinstance(obj, list):
        return [x for v in obj for x in numbers(v)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    return []


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def mean_times(times: dict[str, list[float]]) -> dict[str, float]:
    """Each operation's mean time in seconds over its repeats in the run."""
    return {key: statistics.fmean(ts) for key, ts in times.items()}


def prepare_corpus(work: Path, sizes: Sizes, seed: int) -> Path:
    """Write the labelled short-comment CSV and its config; -> config path."""
    work.mkdir(parents=True, exist_ok=True)
    data = work / "comments.csv"
    synth.write_csv(data, synth.corpus(seed, sizes.train_docs, *sizes.train_tokens,
                                       sizes.train_toxic_share))
    cfg = work / "run.cfg"
    cfg.write_text(config_text(sizes, data, work / "out", seed), encoding="utf-8")
    return cfg


# ------------------------------------------------------------------ train


class Train:
    """prepare -> split -> train-binary -> train-multilabel -> evaluate x2,
    all through ``cli.main``, one epoch each, on 500 short comments."""

    name = "train"
    independent = False  # each command reads what the one before wrote

    def setup(self, work: Path, sizes: Sizes, seed: int) -> dict:
        return {"cfg": prepare_corpus(work, sizes, seed), "out": work / "out",
                "sizes": sizes}

    def ops(self, state: dict) -> list[Op]:
        cfg, out, epochs = state["cfg"], state["out"], state["sizes"].epochs

        def command(*args):
            return functools.partial(run_cli, "--config", cfg, *args)

        def prepare():
            shutil.rmtree(out, ignore_errors=True)  # each pass starts afresh
            run_cli("--config", cfg, "prepare")

        def check_prepare(_):
            return digest((out / "prepared" / "meta.json").read_text(encoding="utf-8"))

        def check_split(_):
            toxic = {}
            with open(out / "prepared" / "documents.jsonl", encoding="utf-8") as fh:
                for line in fh:
                    row = json.loads(line)
                    toxic[row["id"]] = bool(row["toxic"])
            folds = {f: (out / "splits" / f"{f}.ids").read_text(encoding="utf-8").split()
                     for f in ("train", "test")}
            state["docs"] = {
                "binary": len(folds["train"]) * epochs,
                "multilabel": sum(toxic[i] for i in folds["train"]) * epochs,
                "evaluated": len(folds["test"]) + sum(toxic[i] for i in folds["test"]),
            }
            return digest(" ".join(folds["train"]), " ".join(folds["test"]))

        def check_train(kind, _):
            history = read_json(out / f"{kind}_history.json")["history"]
            trained = M.load_model(out / f"{kind}.ckpt", expect_kind=kind)
            if len(history) != epochs or len(trained.history) != epochs:
                raise OpFailed(f"{kind} history has {len(history)} epochs, expected {epochs}")
            return digest(numbers(history))

        def check_evaluate(kind, _):
            report = read_json(out / f"report_{kind}.json")
            if not all(math.isfinite(v) for v in numbers(report)) or \
                    report.get("auc", 0.0) is None:
                raise OpFailed(f"report_{kind}.json has an undefined metric: {report}")
            return digest(numbers(report))

        ops = [Op("prepare", prepare, check_prepare),
               Op("split", command("split"), check_split)]
        for kind in ("binary", "multilabel"):
            ops.append(Op(f"train-{kind}", command(f"train-{kind}"),
                          functools.partial(check_train, kind)))
        for kind in ("binary", "multilabel"):
            ops.append(Op(f"evaluate {kind}", command("evaluate", "--stage", kind),
                          functools.partial(check_evaluate, kind)))
        return ops

    def metrics(self, state: dict, times: dict) -> tuple[dict, dict, list[str]]:
        m, docs = mean_times(times), state["docs"]
        binary_ms = m["train-binary"] * 1e3 / docs["binary"]
        multi_ms = m["train-multilabel"] * 1e3 / docs["multilabel"]
        wall = sum(m.values())
        detail = {
            "train_binary_docs_per_s": (1e3 / binary_ms, "docs/s"),
            "train_multilabel_docs_per_s": (1e3 / multi_ms, "docs/s"),
            "evaluate_docs_per_s": (docs["evaluated"] / (m["evaluate binary"]
                                                         + m["evaluate multilabel"]), "docs/s"),
            "train_wall_s": (wall, "s"),
        }
        return {"wall_s": wall, "binary_ms": binary_ms, "multilabel_ms": multi_ms}, detail, []


# --------------------------------------------------------------- classify


def marker_gate(model: M.BinaryModel, vocab: C.Vocabulary) -> None:
    """Set the gate's weights so that one LSTM unit fires on marker words.

    The benchmark needs a gate that passes the same share of documents to
    stage 2 for every seed, and a few training steps do not reliably give
    one. Only the weights on the marker path are set; the rest keep their
    seeded initialisation, and the model does the same arithmetic as a
    trained one. Tensors are addressed by their checkpoint names.
    """
    t = dict(model.named_tensors())
    table = t["embedding.table"].value
    dim, h = table.shape[1], t["lstm.w_h"].value.shape[1]
    sign = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    for words in synth.marker_words().values():
        for w in words:
            if w in vocab:  # an absent marker reads as UNK and is not detected
                table[vocab.get(w)] = 0.5 * sign
    # unit 0's rows in the stacked (input, forget, candidate, output) gates:
    # a marker puts 10 on input, candidate and output, any other word well
    # under 1; the forget gate stays mostly shut, so the unit's output peaks
    # at tanh(1) = 0.76 on a marker and stays near 0 elsewhere
    for gate, (reads, bias) in enumerate(((True, -2.0), (False, -2.0),
                                          (True, 0.0), (True, 0.0))):
        row = gate * h
        t["lstm.w_x"].value[row] = 20.0 / dim * sign if reads else 0.0
        t["lstm.w_h"].value[row] = 0.0
        t["lstm.b"].value[row] = bias
    # the dense stack passes pooled unit 0 through: logit = 20 * h - 8
    for name, scale in (("hidden0.w", 10.0), ("hidden1.w", 1.0), ("out.w", 2.0)):
        if name in t:
            t[name].value[0] = 0.0
            t[name].value[0, 0] = scale
    t["out.b"].value[0] = -8.0


def build_checkpoints(cfg: Path, seed: int) -> Path:
    """prepare through the CLI, then write the marker gate and an untrained
    tagger, sized by the run config, with ``save_model``; -> output dir."""
    run_cli("--config", cfg, "prepare")
    conf = load_config(cfg)
    out = conf.output_dir()
    vocab = C.Vocabulary.load(out / "prepared" / "vocab.txt")
    dim = conf["embedding.dim"]
    gate = M.BinaryModel(conf.binary_model_config(),
                         random_table(len(vocab), dim, seed), seed=seed)
    marker_gate(gate, vocab)
    tagger = M.MultiLabelModel(conf.multilabel_model_config(),
                               random_table(len(vocab), dim, seed + 1),
                               seq_len=conf["tokenize.max_len"], seed=seed)
    for kind, model in (("binary", gate), ("multilabel", tagger)):
        M.save_model(M.TrainedModel(model=model, vocab_hash=vocab.content_hash()),
                     out / f"{kind}.ckpt")
    return out


class Classify:
    """500 long documents, one at a time through
    ``TwoStagePipeline.classify``: a closed loop with one client."""

    name = "classify"
    independent = True

    def setup(self, work: Path, sizes: Sizes, seed: int) -> dict:
        out = build_checkpoints(prepare_corpus(work, sizes, seed), seed)
        pipe = M.TwoStagePipeline(
            binary=M.load_model(out / "binary.ckpt", expect_kind="binary").model,
            multilabel=M.load_model(out / "multilabel.ckpt", expect_kind="multilabel").model,
            vocab=C.Vocabulary.load(out / "prepared" / "vocab.txt"),
            preprocess_config=C.PreprocessConfig(), max_len=sizes.max_len,
            tau_binary=0.5, tau_label=0.5)
        docs = [r.text for r in synth.corpus(seed + 1, sizes.classify_docs,
                                             *sizes.classify_tokens,
                                             sizes.classify_toxic_share)]
        return {"pipe": pipe, "docs": docs, "sizes": sizes, "tagged": {}}

    def ops(self, state: dict) -> list[Op]:
        pipe, tagged, allowed = state["pipe"], state["tagged"], set(C.LABELS)

        def check(key, result):
            labels, p, probs = result["labels"], result["p_toxic"], result["label_probs"]
            tagged[key] = probs is not None
            ok = 0.0 < p < 1.0 and (
                (labels == ["Non-toxic"] and probs is None)
                or (probs is not None and labels and set(labels) <= allowed
                    and len(set(labels)) == len(labels)
                    and all(0.0 < q < 1.0 for q in probs)))
            if not ok:
                raise OpFailed(f"bad verdict {result}")
            return digest([p] + (probs or []), "|".join(labels))

        def classify(text):
            return pipe.classify(text)  # looked up per call, so tracing sees it

        return [Op(f"doc {i}", functools.partial(classify, text),
                   functools.partial(check, f"doc {i}"))
                for i, text in enumerate(state["docs"])]

    def metrics(self, state: dict, times: dict) -> tuple[dict, dict, list[str]]:
        m, tagged = mean_times(times), state["tagged"]
        # latencies pool every call of the run: the p95 then has well over
        # ten calls beyond it
        gate = [t * 1e3 for k, ts in times.items() if not tagged.get(k, False) for t in ts]
        stage2 = [t * 1e3 for k, ts in times.items() if tagged.get(k, False) for t in ts]
        rate = sum(tagged.get(k, False) for k in m) / len(m)
        lo, hi = state["sizes"].pass_band
        failures = [] if lo <= rate <= hi else [
            f"stage-2 pass rate {rate:.3f} outside [{lo}, {hi}]"]
        if not gate or not stage2:
            return {}, {}, failures
        p50, p95 = float(np.percentile(gate, 50)), float(np.percentile(stage2, 95))
        wall = sum(m.values())
        detail = {
            "classify_docs_per_s": (len(m) / wall, "docs/s"),
            "classify_p50_ms": (p50, f"ms (gate only, n={len(gate)})"),
            "classify_p95_ms": (p95, f"ms (gate and tagger, n={len(stage2)})"),
            "stage2_pass_rate": (rate, "ratio"),
        }
        return {"wall_s": wall, "binary_ms": p50, "multilabel_ms": p95}, detail, failures


# ---------------------------------------------------------------- explain


class Explain:
    """``cli.main(["explain", ...])`` on 5 short documents at the binary
    stage and 1 at the multilabel stage, 1000 perturbations each."""

    name = "explain"
    independent = True

    def setup(self, work: Path, sizes: Sizes, seed: int) -> dict:
        cfg = prepare_corpus(work, sizes, seed)
        out = build_checkpoints(cfg, seed)
        texts = synth.explain_texts(seed + 2, (*sizes.explain_binary_words,
                                               sizes.explain_multilabel_words))
        # The multilabel explanation targets the label of its planted marker.
        # It is most of a pass and goes first, so a run has time to repeat it.
        label, text = texts[-1]
        commands = [("multilabel", label, text, sizes.k_multilabel)]
        commands += [("binary", "toxic", t, sizes.k_binary) for _, t in texts[:-1]]
        return {"cfg": cfg, "out": out, "commands": commands, "sizes": sizes}

    def ops(self, state: dict) -> list[Op]:
        cfg, out, samples = state["cfg"], state["out"], state["sizes"].samples

        def check(stage, label, k, _):
            result = read_json(out / f"explanation_{stage}_{label}.json")
            weights = [w for _, w in result["features"]]
            if not (len(weights) <= k and all(math.isfinite(w) for w in weights)
                    and math.isfinite(result["r2"]) and math.isfinite(result["intercept"])
                    and result["n_samples"] == samples):
                raise OpFailed(f"bad explanation {result}")
            return digest(" ".join(w for w, _ in result["features"]), numbers(result))

        ops = []
        for i, (stage, label, text, k) in enumerate(state["commands"]):
            extra = ["--label", label] if stage == "multilabel" else []
            ops.append(Op(f"explain {stage} {i}",
                          functools.partial(run_cli, "--config", cfg, "explain", "--text",
                                            text, "--stage", stage, *extra),
                          functools.partial(check, stage, label, k)))
        return ops

    def metrics(self, state: dict, times: dict) -> tuple[dict, dict, list[str]]:
        m = mean_times(times)
        binary = statistics.mean(v for k, v in m.items() if " binary " in k)
        multi = statistics.mean(v for k, v in m.items() if " multilabel " in k)
        samples = state["sizes"].samples
        detail = {"explain_binary_s": (binary, "s"), "explain_multilabel_s": (multi, "s")}
        return {"wall_s": sum(m.values()), "binary_ms": binary * 1e3 / samples,
                "multilabel_ms": multi * 1e3 / samples}, detail, []


WORKLOADS = {w.name: w for w in (Train(), Classify(), Explain())}
