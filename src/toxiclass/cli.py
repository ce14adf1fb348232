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
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus as C
from . import explain as X
from . import metrics as MT
from . import models as M
from .config import RunConfig, load_config
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
    docs = []
    for lineno, line in C.read_lines(path, "prepared documents", hint="run prepare first"):
        try:
            row = json.loads(line)
            labels = row.get("labels")
            doc = C.Document(
                id=str(row["id"]), text=row["text"],
                toxic=None if row.get("toxic") is None else bool(row["toxic"]),
                labels=None if labels is None else tuple(int(v) for v in labels),
            )
            if not isinstance(doc.text, str):
                raise TypeError("text is not a string")
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
                DataError) as exc:
            raise DataError(f"{path}:{lineno}: not a prepared document: {exc!r}") from exc
        docs.append(doc)
    return docs


def _load_vocab(cfg: RunConfig) -> C.Vocabulary:
    return C.Vocabulary.load(_prepared_dir(cfg) / "vocab.txt")


def _load_prepared(cfg: RunConfig):
    return _load_documents_file(_prepared_dir(cfg) / "documents.jsonl"), _load_vocab(cfg)


def _load_fold_ids(cfg: RunConfig, fold: str) -> list[str]:
    lines = C.read_lines(_splits_dir(cfg) / f"{fold}.ids", "split file",
                         hint="run split first")
    return [line.rstrip("\n") for _, line in lines if line != "\n"]


def _fold_documents(cfg: RunConfig, docs: list[C.Document], fold: str):
    by_id = {d.id: d for d in docs}
    out = []
    for doc_id in _load_fold_ids(cfg, fold):
        if doc_id not in by_id:
            raise DataError(f"split references unknown document id {doc_id!r}")
        out.append(by_id[doc_id])
    return out


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
    _write_text(pdir / "documents.jsonl", "".join(_dumps({
        "id": d.id, "text": d.text,
        "toxic": None if d.toxic is None else int(d.toxic),
        "labels": None if d.labels is None else list(d.labels),
    }) + "\n" for d in cleaned))
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
        gold, missing = [d.toxic for d in members], "toxic flag"
    else:
        members = [d for d in members if d.toxic]
        gold, missing = [d.labels for d in members], "label vector"
    for d, value in zip(members, gold):
        if value is None:
            raise DataError(f"{fold} fold: document {d.id} has no {missing}")
    targets = np.array(gold, dtype=np.float64).reshape(
        len(members), len(M.MODELS[kind].class_names))
    return C.encode([d.text for d in members], vocab, cfg["tokenize.max_len"]), targets


def _train_stage(cfg: RunConfig, kind: str) -> int:
    docs, vocab = _load_prepared(cfg)
    max_len = cfg["tokenize.max_len"]
    table = _embedding_table(cfg, vocab)
    folds = {fold: _stage_data(cfg, docs, vocab, kind, fold) for fold in ("train", "val")}

    if kind == "binary":
        model = M.BinaryModel(cfg.binary_model_config(), table, seed=cfg["seed"])
    else:
        model = M.MultiLabelModel(cfg.multilabel_model_config(), table,
                                  seq_len=max_len, seed=cfg["seed"])
    trained = M.train(model, folds["train"], folds["val"], cfg.training_config(),
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


def _load_checkpoint(cfg: RunConfig, vocab: C.Vocabulary, kind: str) -> M.TrainedModel:
    """The stage's checkpoint, checked against the vocabulary and, for the
    tagger, against the configured sequence length it was built for."""
    trained = M.load_model(_checkpoint_path(cfg, kind), expect_kind=kind)
    if trained.vocab_hash and trained.vocab_hash != vocab.content_hash():
        raise DataError("checkpoint was trained with a different vocabulary")
    max_len = cfg["tokenize.max_len"]
    if kind == "multilabel" and trained.model.seq_len != max_len:
        raise ConfigError(
            f"tokenize.max_len is {max_len} but the multilabel checkpoint was "
            f"built for sequence length {trained.model.seq_len}"
        )
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
    if k < 0:
        raise ConfigError(f"{k_key} must be >= 0, got {k}")

    vocab = _load_vocab(cfg)
    max_len = cfg["tokenize.max_len"]
    text = C.preprocess(args.text, cfg.preprocess_config())
    model = _load_checkpoint(cfg, vocab, args.stage).model

    def predict(texts: list[str]) -> np.ndarray:
        return M.predict(model, C.encode(texts, vocab, max_len))

    explanation = X.explain_instance(
        predict, text, class_index, n=n, k=k,
        seed=cfg["seed"], class_name=class_name)
    out = _make_dir(cfg.output_dir())
    _write_json(out / f"explanation_{args.stage}_{class_name}.json",
                explanation.to_dict())
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


def _zero_one(value) -> bool:
    return not isinstance(value, str) and value in (0, 1)


def _load_annotations(path) -> dict[str, dict]:
    rows = {}
    for lineno, line in C.read_lines(path, "annotation file"):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: bad JSON ({exc})") from exc
        if not isinstance(row, dict) or "id" not in row or not _zero_one(row.get("toxic")):
            raise DataError(f"{path}:{lineno}: needs an object with 'id' and a 0/1 'toxic'")
        labels = row.get("labels", [0] * C.NUM_LABELS)
        if not (isinstance(labels, list) and len(labels) == C.NUM_LABELS
                and all(map(_zero_one, labels))):
            raise DataError(f"{path}:{lineno}: 'labels' must be {C.NUM_LABELS} 0/1 values")
        rows[str(row["id"])] = row
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
    if all("labels" in ann_a[i] and "labels" in ann_b[i] for i in shared):
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a config value sized an array past memory
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
