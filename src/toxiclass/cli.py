"""Command-line entry point.

Commands: prepare, split, train-binary, train-multilabel, evaluate,
classify, explain, stats, kappa. One config file (dotted keys) plus
``--set key=value`` overrides drives everything; artifacts land under
``output.dir`` and are byte-identical across reruns with the same seed.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error.
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


def _write_json(path: Path, obj) -> None:
    path.write_text(_dumps(obj) + "\n", encoding="utf-8")


def _json_float(v: float):
    # strict JSON has no NaN; undefined metrics serialize as null
    return None if v != v else v


# ---------------------------------------------------------------- artifacts


def _prepared_dir(cfg: RunConfig) -> Path:
    return cfg.output_dir() / "prepared"


def _splits_dir(cfg: RunConfig) -> Path:
    return cfg.output_dir() / "splits"


def _load_documents_file(path: Path) -> list[C.Document]:
    if not path.exists():
        raise DataError(f"missing prepared documents: {path} (run prepare first)")
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            labels = row.get("labels")
            docs.append(C.Document(
                id=str(row["id"]), text=row["text"],
                toxic=None if row.get("toxic") is None else bool(row["toxic"]),
                labels=None if labels is None else tuple(int(v) for v in labels),
            ))
    return docs


def _load_prepared(cfg: RunConfig):
    pdir = _prepared_dir(cfg)
    docs = _load_documents_file(pdir / "documents.jsonl")
    vocab_path = pdir / "vocab.txt"
    if not vocab_path.exists():
        raise DataError(f"missing vocabulary: {vocab_path} (run prepare first)")
    return docs, C.Vocabulary.load(vocab_path)


def _load_fold_ids(cfg: RunConfig, fold: str) -> list[str]:
    path = _splits_dir(cfg) / f"{fold}.ids"
    if not path.exists():
        raise DataError(f"missing split file: {path} (run split first)")
    return [line.strip() for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


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


def _sequences(docs, vocab, max_len):
    return [C.tokenize(d.text, vocab, max_len) for d in docs]


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
    pdir = _prepared_dir(cfg)
    pdir.mkdir(parents=True, exist_ok=True)
    with open(pdir / "documents.jsonl", "w", encoding="utf-8") as fh:
        for d in cleaned:
            fh.write(_dumps({
                "id": d.id, "text": d.text,
                "toxic": None if d.toxic is None else int(d.toxic),
                "labels": None if d.labels is None else list(d.labels),
            }) + "\n")
    vocab.save(pdir / "vocab.txt")
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
    sdir = _splits_dir(cfg)
    sdir.mkdir(parents=True, exist_ok=True)
    for name, fold in (("train", train), ("val", val), ("test", test)):
        (sdir / f"{name}.ids").write_text(
            "".join(d.id + "\n" for d in fold), encoding="utf-8")
    print(f"split {len(docs)} documents into "
          f"{len(train)}/{len(val)}/{len(test)} (train/val/test)")
    return 0


def _train_stage(cfg: RunConfig, kind: str) -> int:
    docs, vocab = _load_prepared(cfg)
    max_len = cfg["tokenize.max_len"]
    table = _embedding_table(cfg, vocab)
    folds = {}
    for fold in ("train", "val"):
        members = _fold_documents(cfg, docs, fold)
        if kind == "multilabel":
            members = [d for d in members if d.toxic]
        pairs = []
        for d in members:
            seq = C.tokenize(d.text, vocab, max_len)
            if kind == "binary":
                if d.toxic is None:
                    raise DataError(f"document {d.id} has no toxic flag")
                target = np.array([1.0 if d.toxic else 0.0])
            else:
                if d.labels is None:
                    raise DataError(f"document {d.id} has no label vector")
                target = np.asarray(d.labels, dtype=np.float64)
            pairs.append((seq, target))
        folds[fold] = pairs

    if kind == "binary":
        model = M.BinaryModel(cfg.binary_model_config(), table, seed=cfg["seed"])
    else:
        model = M.MultiLabelModel(cfg.multilabel_model_config(), table,
                                  seq_len=max_len, seed=cfg["seed"])
    trained = M.train(model, folds["train"], folds["val"], cfg.training_config(),
                      vocab_hash=vocab.content_hash())
    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    M.save_model(trained, _checkpoint_path(cfg, kind))
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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _evaluate_binary(cfg: RunConfig, docs, vocab) -> int:
    trained = _load_checkpoint(cfg, vocab, "binary")
    members = _fold_documents(cfg, docs, "test")
    if any(d.toxic is None for d in members):
        raise DataError("test fold has documents without gold toxic flags")
    seqs = _sequences(members, vocab, cfg["tokenize.max_len"])
    scores = M.predict(trained.model, seqs)[:, 0]
    gold = np.array([1 if d.toxic else 0 for d in members])
    pred = (scores >= cfg["thresholds.binary"]).astype(int)
    conf = MT.confusion(pred, gold)
    p, r, f1 = MT.prf(conf)
    curve = MT.roc_auc(scores, gold)

    out = cfg.output_dir()
    _write_json(out / "report_binary.json", {
        "stage": "binary",
        "n": len(members),
        "threshold": cfg["thresholds.binary"],
        "accuracy": conf.accuracy,
        "precision": p,
        "recall": r,
        "f1": f1,
        "auc": _json_float(curve.auc),
        "confusion": {"tp": conf.tp, "fp": conf.fp, "fn": conf.fn, "tn": conf.tn},
    })
    _write_csv(out / "confusion_binary.csv", "label,tp,fp,fn,tn",
               [("toxic", conf.tp, conf.fp, conf.fn, conf.tn)])
    _write_csv(out / "roc_binary.csv", "threshold,fpr,tpr",
               [(repr(t), repr(fpr), repr(tpr)) for fpr, tpr, t in curve.points])
    print(f"binary test: n={len(members)} accuracy={conf.accuracy:.4f} "
          f"f1={f1:.4f} auc={curve.auc:.4f}")
    return 0


def _evaluate_multilabel(cfg: RunConfig, docs, vocab) -> int:
    trained = _load_checkpoint(cfg, vocab, "multilabel")
    members = [d for d in _fold_documents(cfg, docs, "test") if d.toxic]
    if not members:
        raise DataError("test fold has no toxic documents to tag")
    if any(d.labels is None for d in members):
        raise DataError("test fold has toxic documents without gold labels")
    seqs = _sequences(members, vocab, cfg["tokenize.max_len"])
    scores = M.predict(trained.model, seqs)
    gold = np.array([d.labels for d in members])
    pred = (scores >= cfg["thresholds.label"]).astype(int)
    report = MT.multilabel_report(pred, gold)

    out = cfg.output_dir()
    _write_json(out / "report_multilabel.json",
                {"stage": "multilabel", "n": len(members),
                 "threshold": cfg["thresholds.label"], **report.to_dict()})
    _write_csv(out / "confusion_multilabel.csv", "label,tp,fp,fn,tn",
               [(m.label, m.tp, m.fp, m.fn, m.tn) for m in report.per_class])
    roc_rows = []
    for c, name in enumerate(C.LABELS):
        curve = MT.roc_auc(scores[:, c], gold[:, c])
        roc_rows += [(name, repr(t), repr(fpr), repr(tpr))
                     for fpr, tpr, t in curve.points]
    _write_csv(out / "roc_multilabel.csv", "label,threshold,fpr,tpr", roc_rows)
    print(f"multilabel test: n={len(members)} "
          f"subset_accuracy={report.subset_accuracy:.4f} "
          f"weighted_f1={report.weighted_f1:.4f}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    docs, vocab = _load_prepared(cfg)
    cfg.output_dir().mkdir(parents=True, exist_ok=True)
    if args.stage == "binary":
        return _evaluate_binary(cfg, docs, vocab)
    return _evaluate_multilabel(cfg, docs, vocab)


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
    _, vocab = _load_prepared(cfg)
    pipe = _load_pipeline(cfg, vocab)
    in_path = Path(args.input)
    if not in_path.exists():
        raise DataError(f"input file does not exist: {in_path}")
    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    out_path = out / "classified.jsonl"
    n = toxic_count = 0
    with open(in_path, encoding="utf-8") as src, \
            open(out_path, "w", encoding="utf-8") as dst:
        for lineno, line in enumerate(src, start=1):
            text = line.rstrip("\n")
            if not text.strip():
                continue
            result = pipe.classify(text)
            n += 1
            if result["labels"] != ["Non-toxic"]:
                toxic_count += 1
            dst.write(_dumps({"id": str(lineno), **result}) + "\n")
    print(f"classified {n} documents ({toxic_count} toxic) -> {out_path}")
    return 0


def cmd_explain(cfg: RunConfig, args) -> int:
    _, vocab = _load_prepared(cfg)
    pconf = cfg.preprocess_config()
    max_len = cfg["tokenize.max_len"]
    text = C.preprocess(args.text, pconf)
    model = _load_checkpoint(cfg, vocab, args.stage).model

    def predict(texts: list[str]) -> np.ndarray:
        return M.predict(model, [C.tokenize(t, vocab, max_len) for t in texts])

    if args.stage == "binary":
        class_index, class_name = 0, "toxic"
        k = cfg["explain.features.binary"]
    else:
        if args.label not in C.LABELS:
            raise ConfigError(
                f"--label must be one of {', '.join(C.LABELS)}; got {args.label!r}"
            )
        class_index = C.LABELS.index(args.label)
        class_name = args.label
        k = cfg["explain.features.multilabel"]

    explanation = X.explain_instance(
        predict, text, class_index, n=cfg["explain.samples"], k=k,
        seed=cfg["seed"], class_name=class_name)
    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"explanation_{args.stage}_{class_name}.json",
                explanation.to_dict())
    print(explanation.render())
    return 0


def cmd_stats(cfg: RunConfig, args) -> int:
    if not cfg["data.path"]:
        raise ConfigError("data.path is required for stats")
    docs = C.ingest(cfg["data.path"], cfg.format_spec())
    result = C.stats(docs)
    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
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
    p = Path(path)
    if not p.exists():
        raise DataError(f"annotation file does not exist: {p}")
    rows = {}
    with open(p, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{p}:{lineno}: bad JSON ({exc})") from exc
            if "id" not in row or "toxic" not in row:
                raise DataError(f"{p}:{lineno}: needs 'id' and 'toxic' fields")
            rows[str(row["id"])] = row
    if not rows:
        raise DataError(f"annotation file is empty: {p}")
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

    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
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


if __name__ == "__main__":
    sys.exit(main())
