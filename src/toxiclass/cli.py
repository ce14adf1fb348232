"""Command-line entry point.

Commands: prepare, split, train-binary, train-multilabel, evaluate,
classify, explain, stats, kappa. One config file (dotted keys) plus
``--set key=value`` overrides drives everything; artifacts land under
``output.dir`` and are byte-identical across reruns with the same seed.

Exit codes: 0 success, 2 config error or out of memory, 3 data error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import corpus as C
from . import explain as X
from . import metrics as MT
from . import models as M
from .config import RunConfig, _section_keys, load_config
from .embedding import EmbeddingTable, load_table, random_table
from .errors import ConfigError, DataError, NumericError


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _write(path: Path, write) -> None:
    """``write(path)``, for every file written under ``output.dir``: a
    failure to write it is a DataError that names it."""
    try:
        write(path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_text(path: Path, text: str) -> None:
    _write(path, lambda p: p.write_text(text, encoding="utf-8"))


def _write_json(path: Path, obj) -> None:
    _write_text(path, _dumps(obj) + "\n")


def _json_float(v: float):
    # strict JSON has no NaN; undefined metrics serialize as null
    return None if v != v else v


# ---------------------------------------------------------------- artifacts


def _prepared_dir(cfg: RunConfig) -> Path:
    return cfg.output_dir() / "prepared"


def _splits_dir(cfg: RunConfig) -> Path:
    return cfg.output_dir() / "splits"


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"cannot create output directory {path}: {exc.strerror or exc}") from exc
    return path


def _load_documents_file(path: Path) -> list[C.Document]:
    return list(C.read_labelled(
        path, "prepared documents", "a prepared document",
        lambda row: C.Document(row["id"], row.get("text"), row["toxic"], row["labels"]),
        hint="run prepare first"))


def _load_vocab(cfg: RunConfig) -> C.Vocabulary:
    return C.Vocabulary.load(_prepared_dir(cfg) / "vocab.txt")


def _load_prepared(cfg: RunConfig):
    return _load_documents_file(_prepared_dir(cfg) / "documents.jsonl"), _load_vocab(cfg)


def _fold_documents(cfg: RunConfig, docs: list[C.Document], fold: str):
    """The prepared documents that the fold's split file names, in its order."""
    path, by_id, out = _splits_dir(cfg) / f"{fold}.ids", {d.id: d for d in docs}, {}
    for lineno, line in C.read_lines(path, "split file", hint="run split first"):
        doc_id = line.rstrip("\n")
        if not doc_id:
            continue
        if doc_id in out or doc_id not in by_id:
            fault = "repeated" if doc_id in out else "unknown"
            raise DataError(f"{path}:{lineno}: {fault} document id {doc_id!r}")
        out[doc_id] = by_id[doc_id]
    return list(out.values())


def _embedding_table(cfg: RunConfig, vocab: C.Vocabulary) -> EmbeddingTable:
    if cfg["embedding.path"]:
        return load_table(cfg["embedding.path"], vocab,
                          trainable=cfg["embedding.trainable"])
    return random_table(len(vocab), dim=cfg["embedding.dim"],
                        seed=cfg["seed"], trainable=cfg["embedding.trainable"])


def _checkpoint_path(cfg: RunConfig, kind: str) -> Path:
    return cfg.output_dir() / f"{kind}.ckpt"


# ----------------------------------------------------------------- commands


def cmd_prepare(cfg: RunConfig, args) -> int:
    if not cfg["data.path"]:
        raise ConfigError("data.path is required for prepare")
    spec = cfg.format_spec()
    pconf = cfg.preprocess_config()
    docs = C.ingest(cfg["data.path"], spec)
    cleaned = [C.Document(id=d.id, text=C.preprocess(d.text, pconf),
                          toxic=d.toxic, labels=d.labels) for d in docs]
    vocab = C.build_vocab((d.text for d in cleaned),
                          max_size=cfg["vocab.max_size"],
                          min_freq=cfg["vocab.min_freq"])
    pdir = _make_dir(_prepared_dir(cfg))
    _write_text(pdir / "documents.jsonl",
                "".join(_dumps(C.document_record(d)) + "\n" for d in cleaned))
    _write(pdir / "vocab.txt", vocab.save)
    _write_json(pdir / "meta.json", {
        "num_documents": len(cleaned),
        "vocab_size": len(vocab),
        "vocab_hash": vocab.content_hash(),
        "max_len": cfg["tokenize.max_len"],
        "labels": list(C.LABELS),
    })
    print(f"prepared {len(cleaned)} documents, vocabulary size {len(vocab)}")
    return 0


def cmd_split(cfg: RunConfig, args) -> int:
    docs = _load_documents_file(_prepared_dir(cfg) / "documents.jsonl")
    train, val, test = C.stratified_split(docs, cfg.split_spec())
    sdir = _make_dir(_splits_dir(cfg))
    for name, fold in (("train", train), ("val", val), ("test", test)):
        _write_text(sdir / f"{name}.ids", "".join(d.id + "\n" for d in fold))
    print(f"split {len(docs)} documents into "
          f"{len(train)}/{len(val)}/{len(test)} (train/val/test)")
    return 0


def _stage_data(cfg: RunConfig, docs: list[C.Document], vocab: C.Vocabulary,
                kind: str, fold: str) -> tuple[np.ndarray, np.ndarray]:
    """The (n, L) ids and (n, classes) targets that stage ``kind`` reads
    from ``fold``: the gate reads every document and its toxic flag, the
    tagger the toxic documents and their label vectors."""
    members = _fold_documents(cfg, docs, fold)
    if kind == "binary":
        gold = [d.toxic for d in members]
    else:
        members = [d for d in members if d.toxic]
        gold = [d.labels for d in members]
        for d in members:
            if d.labels is None:
                raise DataError(f"{fold} fold: document {d.id} has no label vector")
    targets = np.array(gold, dtype=np.float64).reshape(
        len(members), len(M.MODELS[kind].class_names))
    return C.encode([d.text for d in members], vocab, cfg["tokenize.max_len"]), targets


def _train_stage(cfg: RunConfig, kind: str) -> int:
    # a bad config fails before any file is read
    model_config, train_config = cfg.section(kind), cfg.training_config()
    if kind == "multilabel":
        M.MultiLabelModel.post_stack_length(model_config, cfg["tokenize.max_len"])
    if not cfg["embedding.path"] and cfg["embedding.dim"] < 1:
        raise ConfigError(f"embedding.dim must be >= 1, got {cfg['embedding.dim']}")
    docs, vocab = _load_prepared(cfg)
    table = _embedding_table(cfg, vocab)
    folds = {fold: _stage_data(cfg, docs, vocab, kind, fold) for fold in ("train", "val")}

    if kind == "binary":
        model = M.BinaryModel(model_config, table, seed=cfg["seed"])
    else:
        model = M.MultiLabelModel(model_config, table,
                                  seq_len=cfg["tokenize.max_len"], seed=cfg["seed"])
    trained = M.train(model, folds["train"], folds["val"], train_config,
                      vocab_hash=vocab.content_hash())
    out = _make_dir(cfg.output_dir())
    _write(_checkpoint_path(cfg, kind), lambda p: M.save_model(trained, p))
    _write_json(out / f"{kind}_history.json", {
        "best_epoch": trained.best_epoch,
        "history": trained.history,
    })
    last = trained.history[-1]
    print(f"trained {kind} model: {len(trained.history)} epochs, "
          f"best epoch {trained.best_epoch}, "
          f"final val loss {last['val_loss']:.6f}")
    return 0


def cmd_train_binary(cfg: RunConfig, args) -> int:
    return _train_stage(cfg, "binary")


def cmd_train_multilabel(cfg: RunConfig, args) -> int:
    return _train_stage(cfg, "multilabel")


def _config_text(value) -> str:
    """A value as config text: ``6,4`` for a tuple, ``8x3,4x2`` for a
    stack, ``true`` for True."""
    if isinstance(value, tuple):
        return ",".join("x".join(map(str, v)) if isinstance(v, tuple) else str(v)
                        for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _load_checkpoint(cfg: RunConfig, vocab: C.Vocabulary, kind: str) -> M.TrainedModel:
    """The stage's checkpoint, checked against the vocabulary and against
    the config: every key of the stage's model section, the tagger's
    sequence length, and the table's width unless a table file sets that."""
    trained = M.load_model(_checkpoint_path(cfg, kind), expect_kind=kind)
    if trained.vocab_hash and trained.vocab_hash != vocab.content_hash():
        raise DataError("checkpoint was trained with a different vocabulary")
    model = trained.model
    built = {key: getattr(model.config, f.name) for f, _, key in _section_keys(kind)}
    if kind == "multilabel":
        built["tokenize.max_len"] = model.seq_len
    if not cfg["embedding.path"]:
        built["embedding.dim"] = model.embedding.table.dim
    for key, value in built.items():
        if cfg[key] != value:
            raise ConfigError(f"{key} is {_config_text(cfg[key])} but the {kind} "
                              f"checkpoint was built with {_config_text(value)}")
    return trained


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(str(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def cmd_evaluate(cfg: RunConfig, args) -> int:
    # one path for both stages: the gate's report is the one-class case
    kind = args.stage
    docs, vocab = _load_prepared(cfg)
    out = _make_dir(cfg.output_dir())
    model = _load_checkpoint(cfg, vocab, kind).model
    ids, gold = _stage_data(cfg, docs, vocab, kind, "test")
    if not len(ids):
        raise DataError(f"test fold has no documents for the {kind} stage")
    threshold = cfg["thresholds.binary" if kind == "binary" else "thresholds.label"]
    scores = M.predict(model, ids)
    report = MT.multilabel_report((scores >= threshold).astype(int), gold,
                                  model.class_names)
    curves = [MT.roc_auc(scores[:, c], gold[:, c]) for c in range(model.output_dim)]
    roc_rows = [(name, repr(t), repr(fpr), repr(tpr))
                for name, curve in zip(model.class_names, curves)
                for fpr, tpr, t in curve.points]
    head = {"stage": kind, "n": len(ids), "threshold": threshold}

    _write_csv(out / f"confusion_{kind}.csv", "label,tp,fp,fn,tn",
               [(m.label, m.tp, m.fp, m.fn, m.tn) for m in report.per_class])
    if kind == "binary":
        (m,), (curve,) = report.per_class, curves
        _write_json(out / "report_binary.json", {
            **head, "accuracy": m.accuracy, "precision": m.precision,
            "recall": m.recall, "f1": m.f1, "auc": _json_float(curve.auc),
            "confusion": {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn},
        })
        _write_csv(out / "roc_binary.csv", "threshold,fpr,tpr",
                   [row[1:] for row in roc_rows])
        print(f"binary test: n={len(ids)} accuracy={m.accuracy:.4f} "
              f"f1={m.f1:.4f} auc={curve.auc:.4f}")
    else:
        _write_json(out / "report_multilabel.json", {**head, **report.to_dict()})
        _write_csv(out / "roc_multilabel.csv", "label,threshold,fpr,tpr", roc_rows)
        print(f"multilabel test: n={len(ids)} "
              f"subset_accuracy={report.subset_accuracy:.4f} "
              f"weighted_f1={report.weighted_f1:.4f}")
    return 0


def _load_pipeline(cfg: RunConfig, vocab: C.Vocabulary) -> M.TwoStagePipeline:
    binary = _load_checkpoint(cfg, vocab, "binary")
    multi = _load_checkpoint(cfg, vocab, "multilabel")
    return M.TwoStagePipeline(
        binary=binary.model, multilabel=multi.model, vocab=vocab,
        preprocess_config=cfg.preprocess_config(),
        max_len=cfg["tokenize.max_len"],
        tau_binary=cfg["thresholds.binary"],
        tau_label=cfg["thresholds.label"],
    )


def cmd_classify(cfg: RunConfig, args) -> int:
    pipe = _load_pipeline(cfg, _load_vocab(cfg))
    # read in full first: a bad input fails before the output is touched
    lines = list(C.read_lines(args.input, "input file"))
    out_path = _make_dir(cfg.output_dir()) / "classified.jsonl"
    kept = [(lineno, line.rstrip("\n")) for lineno, line in lines if line.strip()]
    results = pipe.classify_many([text for _, text in kept])
    _write_text(out_path, "".join(_dumps({"id": str(lineno), **result}) + "\n"
                                  for (lineno, _), result in zip(kept, results)))
    toxic = sum(result["label_probs"] is not None for result in results)
    print(f"classified {len(results)} documents ({toxic} toxic) -> {out_path}")
    return 0


def cmd_explain(cfg: RunConfig, args) -> int:
    names = M.MODELS[args.stage].class_names
    # the one-class gate ignores --label
    class_name = args.label if len(names) > 1 else names[0]
    if class_name not in names:
        raise ConfigError(f"--label must be one of {', '.join(names)}; got {args.label!r}")
    class_index = names.index(class_name)
    k_key = f"explain.features.{args.stage}"
    n, k = cfg["explain.samples"], cfg[k_key]
    if n < 1:
        raise ConfigError(f"explain.samples must be >= 1, got {n}")
    if k < 1:
        raise ConfigError(f"{k_key} must be >= 1, got {k}")

    vocab = _load_vocab(cfg)
    tokens = C.preprocess(args.text, cfg.preprocess_config()).split()
    model = _load_checkpoint(cfg, vocab, args.stage).model
    explanation = X.explain_instance(
        functools.partial(M.predict, model), tokens, C.encode(tokens, vocab, 1)[:, 0],
        cfg["tokenize.max_len"], class_index, n=n, k=k,
        seed=cfg["seed"], class_name=class_name)
    out = _make_dir(cfg.output_dir())
    _write_json(out / f"explanation_{args.stage}_{class_name}.json",
                asdict(explanation))
    print(explanation.render())
    return 0


def cmd_stats(cfg: RunConfig, args) -> int:
    if not cfg["data.path"]:
        raise ConfigError("data.path is required for stats")
    docs = C.ingest(cfg["data.path"], cfg.format_spec())
    result = C.stats(docs)
    out = _make_dir(cfg.output_dir())
    _write_json(out / "stats.json", result)
    print(f"total {result['total']}")
    print(f"toxic {result['toxic']}")
    print(f"non_toxic {result['non_toxic']}")
    for name in C.LABELS:
        print(f"{name} {result['per_class'][name]}")
    for count in sorted(result["cardinality"]):
        print(f"labels_per_doc_{count} {result['cardinality'][count]}")
    return 0


def _load_annotations(path) -> dict[str, dict]:
    rows = {row["id"]: row
            for row in C.read_labelled(path, "annotation file", "an annotation")}
    if not rows:
        raise DataError(f"annotation file is empty: {path}")
    return rows


def cmd_kappa(cfg: RunConfig, args) -> int:
    ann_a = _load_annotations(args.annotations_a)
    ann_b = _load_annotations(args.annotations_b)
    shared = [doc_id for doc_id in ann_a if doc_id in ann_b]
    if not shared:
        raise DataError("annotation files share no document ids")
    tox_a = [int(ann_a[i]["toxic"]) for i in shared]
    tox_b = [int(ann_b[i]["toxic"]) for i in shared]
    result = {"n": len(shared), "kappa_toxic": MT.cohens_kappa(tox_a, tox_b)}

    per_class = {}
    if all(ann_a[i]["labels"] is not None and ann_b[i]["labels"] is not None
           for i in shared):
        for c, name in enumerate(C.LABELS):
            la = [int(ann_a[i]["labels"][c]) for i in shared]
            lb = [int(ann_b[i]["labels"][c]) for i in shared]
            per_class[name] = MT.cohens_kappa(la, lb)
    result["kappa_per_class"] = per_class or None

    if args.expert:
        expert = _load_annotations(args.expert)
        control = [i for i in shared if i in expert]
        if not control:
            raise DataError("expert file shares no ids with the annotation files")
        gold = [int(expert[i]["toxic"]) for i in control]
        result["control_n"] = len(control)
        result["trustworthiness_a"] = MT.trustworthiness(
            [int(ann_a[i]["toxic"]) for i in control], gold)
        result["trustworthiness_b"] = MT.trustworthiness(
            [int(ann_b[i]["toxic"]) for i in control], gold)

    out = _make_dir(cfg.output_dir())
    _write_json(out / "kappa.json", result)
    print(f"kappa_toxic {result['kappa_toxic']:.6f} on {result['n']} items")
    for name, value in (per_class or {}).items():
        print(f"kappa_{name} {value:.6f}")
    if args.expert:
        print(f"trustworthiness_a {result['trustworthiness_a']:.6f}")
        print(f"trustworthiness_b {result['trustworthiness_b']:.6f}")
    return 0


# --------------------------------------------------------------- arg parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toxiclass",
        description="Two-stage toxic comment classification pipeline.",
    )
    parser.add_argument("--config", help="path to the dotted-key config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config value (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("prepare", help="ingest, preprocess and build the vocabulary")
    sub.add_parser("split", help="stratified train/val/test split")
    sub.add_parser("train-binary", help="train the toxic-or-not gate model")
    sub.add_parser("train-multilabel", help="train the six-label tagger")

    p = sub.add_parser("evaluate", help="evaluate a trained stage on the test fold")
    p.add_argument("--stage", choices=("binary", "multilabel"), required=True)

    p = sub.add_parser("classify", help="run the two-stage pipeline over a text file")
    p.add_argument("--input", required=True, help="file with one document per line")

    p = sub.add_parser("explain", help="word-level attribution for one document")
    p.add_argument("--text", required=True)
    p.add_argument("--stage", choices=("binary", "multilabel"), default="binary")
    p.add_argument("--label", default="vulgar",
                   help="target class for the multilabel stage")

    sub.add_parser("stats", help="dataset statistics")

    p = sub.add_parser("kappa", help="inter-annotator agreement")
    p.add_argument("--annotations-a", required=True)
    p.add_argument("--annotations-b", required=True)
    p.add_argument("--expert", help="expert labels for the control subset")
    return parser


COMMANDS = {
    "prepare": cmd_prepare,
    "split": cmd_split,
    "train-binary": cmd_train_binary,
    "train-multilabel": cmd_train_multilabel,
    "evaluate": cmd_evaluate,
    "classify": cmd_classify,
    "explain": cmd_explain,
    "stats": cmd_stats,
    "kappa": cmd_kappa,
}


# the exit code and stderr prefix of each failure a user can reach
FAILURES = ((ConfigError, 2, "config error"), (DataError, 3, "data error"),
            (NumericError, 4, "numeric error"), (RuntimeWarning, 4, "numeric error"),
            # a config value sized an array past memory
            (MemoryError, 2, "config error: out of memory"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a numpy overflow exits 4
            cfg = load_config(args.config, args.set)
            return COMMANDS[args.command](cfg, args)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        code, what = next((c, w) for cls, c, w in FAILURES if isinstance(exc, cls))
        # one stderr line, whatever line breaks a path or value in the message holds
        print(f"{what}: {exc}".replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
