"""Span tracing installed from outside the package, and the per-layer
metrics computed from the spans.

``Tracer.install`` wraps every public function and method of the layers
below, in every namespace where a caller looks the name up: a module
attribute (``cli`` reaches ``corpus.tokenize`` as ``C.tokenize``), a name
imported into another module (``toxiclass.models.tokenize``), a
module-level dict (``cli.COMMANDS``) or a class attribute. Nothing under
``src/`` changes. ``uninstall`` puts every original back.

A span is ``[name, start, end, parent]``; spans live in memory and are
written once at the end of the run. The parent chain ends at a root span
opened by the benchmark around one operation, so spans of one operation
share that root.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
import types

MODULES = {
    "corpus": ("toxiclass.corpus",),
    "embedding": ("toxiclass.embedding",),
    "neural": ("toxiclass.neural.layers", "toxiclass.neural.optim",
               "toxiclass.neural.losses"),
    "models": ("toxiclass.models",),
    "metrics": ("toxiclass.metrics",),
    "explain": ("toxiclass.explain",),
    "cli": ("toxiclass.cli",),
}
LAYERS = tuple(MODULES)
# Modules that hold references to the functions above.
NAMESPACES = ("toxiclass", "toxiclass.neural", "toxiclass.config") + tuple(
    m for mods in MODULES.values() for m in mods)
# Helpers called once per time step or per token. A span each would cost
# more than the work it times, so they are left to their caller's self time.
SKIP = {"sigmoid", "softmax", "glorot", "Vocabulary.get"}


class Tracer:
    """Records spans for wrapped callables while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- spans

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span: the root of one operation's spans."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.extra[idx] = observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        namespaces = [importlib.import_module(n) for n in NAMESPACES]
        originals: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, mods in MODULES.items():
            for mod_name in mods:
                mod = importlib.import_module(mod_name)
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                        continue
                    if isinstance(obj, types.FunctionType):
                        if attr not in SKIP:
                            originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    elif isinstance(obj, type):
                        self._wrap_class(layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals:
                    self._set(ns, attr, obj, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            self._undo.append(("item", obj, key, value))
                            obj[key] = originals[id(value)]

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or f"{cls.__name__}.{attr}" in SKIP:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, types.FunctionType):
                self._set(cls, attr, raw, self._wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, raw, type(raw)(self._wrap(name, raw.__func__)))

    def _set(self, owner, attr, original, wrapper) -> None:
        self._undo.append(("attr", owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._undo):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# ------------------------------------------------------------ observers


def _tokens_observer(args, seq):
    return (len(seq), seq.true_length)


def _input_observer(args, result):
    return hash(args[1].input_ids.tobytes())


def _adam_observer(args, result):
    return sum(p.value.size for p in args[0].params)


def _roc_observer(args, result):
    return len(args[0])


# span name -> fn(args, result) -> a value kept in ``Tracer.extra[span index]``
OBSERVERS = {
    "corpus.tokenize": _tokens_observer,
    "models.predict_binary": _input_observer,
    "models.predict_multilabel": _input_observer,
    "neural.Adam.step": _adam_observer,
    "metrics.roc_auc": _roc_observer,
}


# -------------------------------------------------------------- metrics

# metric -> (unit, span names); reported as the p50 duration per call
PER_CALL = {
    "corpus.preprocess_us": ("us", ("corpus.preprocess",)),
    "corpus.tokenize_us": ("us", ("corpus.tokenize",)),
    "corpus.ingest_ms": ("ms", ("corpus.ingest",)),
    "corpus.build_vocab_ms": ("ms", ("corpus.build_vocab",)),
    "corpus.stratified_split_ms": ("ms", ("corpus.stratified_split",)),
    "corpus.vocab_load_ms": ("ms", ("corpus.Vocabulary.load",)),
    "embedding.random_table_ms": ("ms", ("embedding.random_table",)),
    "neural.adam_step_ms": ("ms", ("neural.Adam.step",)),
    "models.binary_forward_ms": ("ms", ("models.BinaryModel.forward",)),
    "models.multilabel_forward_ms": ("ms", ("models.MultiLabelModel.forward",)),
    "models.binary_backward_ms": ("ms", ("models.BinaryModel.backward",)),
    "models.multilabel_backward_ms": ("ms", ("models.MultiLabelModel.backward",)),
    "models.embedding_bwd_ms": ("ms", ("models.EmbeddingLayer.backward",)),
    "models.zero_grad_ms": ("ms", ("models.BinaryModel.zero_grad",
                                   "models.MultiLabelModel.zero_grad")),
    "models.load_model_ms": ("ms", ("models.load_model",)),
    "models.save_model_ms": ("ms", ("models.save_model",)),
    "metrics.roc_auc_ms": ("ms", ("metrics.roc_auc",)),
    "metrics.multilabel_report_ms": ("ms", ("metrics.multilabel_report",)),
    "explain.sample_perturbations_ms": ("ms", ("explain.sample_perturbations",)),
    "explain.select_features_ms": ("ms", ("explain.select_features",)),
    "explain.fit_surrogate_ms": ("ms", ("explain.fit_surrogate",)),
}
# metric -> (layer span, parent model span); reported as the p50 over model
# calls of the summed duration of that layer's spans inside one model call
PER_MODEL_CALL = {
    "neural.lstm_fwd_ms": ("neural.LSTM.forward", "models.BinaryModel.forward"),
    "neural.lstm_bwd_ms": ("neural.LSTM.backward", "models.BinaryModel.backward"),
    "neural.conv1d_fwd_ms": ("neural.Conv1D.forward", "models.MultiLabelModel.forward"),
    "neural.conv1d_bwd_ms": ("neural.Conv1D.backward", "models.MultiLabelModel.backward"),
    "neural.bilstm_fwd_ms": ("neural.BiLSTM.forward", "models.MultiLabelModel.forward"),
    "neural.bilstm_bwd_ms": ("neural.BiLSTM.backward", "models.MultiLabelModel.backward"),
    "neural.maxpool_ms": ("neural.MaxPool1D.forward", "models.MultiLabelModel.forward"),
    "neural.attention_ms": ("neural.Attention.forward", "models.MultiLabelModel.forward"),
}
MODEL_FORWARDS = ("models.BinaryModel.forward", "models.MultiLabelModel.forward")
EXPLAIN_ROOT = "explain.explain_instance"


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric this module emits, with its unit."""
    names = {m: unit for m, (unit, _) in PER_CALL.items()}
    names.update({m: "ms" for m in PER_MODEL_CALL})
    names.update({f"{m[:-3]}_calls": "count" for m in PER_MODEL_CALL})
    names.update({
        "neural.adam_params": "count",
        "metrics.roc_auc_n": "count",
        "models.forward_calls": "count",
        "models.stage2_pass_rate": "ratio",
        "models.pad_share": "ratio",
        "explain.model_share": "ratio",
        "explain.unique_input_share": "ratio",
        "cli.self_ms": "ms",
        "trace.overhead": "ratio",
        "trace.spans": "count",
    })
    for layer in LAYERS:
        names[f"{layer}.busy_ms"] = "ms"
        names[f"{layer}.calls"] = "count"
    return names


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(spans, extra, passes: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    Times are p50 per call (or per model call) over all passes; counts are
    per pass, so they repeat exactly for a seed. A layer that does no work on
    the workload reports 0 calls and 0 time.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    name = [s[0] for s in spans]
    parent = [s[3] for s in spans]
    layer = [s.split(".", 1)[0] for s in name]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(name):
        by_name.setdefault(s, []).append(i)

    out: dict[str, float] = {}
    for metric, (unit, span_names) in PER_CALL.items():
        scale = 1e6 if unit == "us" else 1e3
        out[metric] = _p50([dur[i] * scale for s in span_names
                            for i in by_name.get(s, ())])

    for metric, (span_name, model_span) in PER_MODEL_CALL.items():
        sums: dict[int, float] = {}
        calls = 0
        for i in by_name.get(span_name, ()):
            p = parent[i]
            # LSTM spans of the binary model sit directly under it; the
            # BiLSTM's two LSTM passes are children of the BiLSTM span
            if p < 0 or name[p] != model_span:
                continue
            sums[p] = sums.get(p, 0.0) + dur[i] * 1e3
            calls += 1
        out[metric] = _p50(list(sums.values()))
        out[f"{metric[:-3]}_calls"] = calls / passes

    adam = [extra[i] for i in by_name.get("neural.Adam.step", ())]
    out["neural.adam_params"] = float(max(adam)) if adam else 0.0
    roc = [extra[i] for i in by_name.get("metrics.roc_auc", ())]
    out["metrics.roc_auc_n"] = float(max(roc)) if roc else 0.0

    binary = len(by_name.get(MODEL_FORWARDS[0], ()))
    multi = len(by_name.get(MODEL_FORWARDS[1], ()))
    out["models.forward_calls"] = (binary + multi) / passes
    # stage 2 runs inside classify through route's lazy callback
    classify = set(by_name.get("models.TwoStagePipeline.classify", ()))
    stage2 = set()
    for i in by_name.get(MODEL_FORWARDS[1], ()):
        while i >= 0 and i not in classify:
            i = parent[i]
        if i >= 0:
            stage2.add(i)
    out["models.stage2_pass_rate"] = len(stage2) / len(classify) if classify else 0.0
    toks = [extra[i] for i in by_name.get("corpus.tokenize", ())]
    slots = sum(t[0] for t in toks)
    out["models.pad_share"] = sum(t[0] - t[1] for t in toks) / slots if slots else 0.0

    # explain: model-call time is what explain_instance spends in other layers
    roots = by_name.get(EXPLAIN_ROOT, ())
    model_time = 0.0
    inputs: dict[int, list[int]] = {r: [] for r in roots}
    for i in range(n):
        p = parent[i]
        if p >= 0 and name[p] == EXPLAIN_ROOT:
            if layer[i] != "explain":
                model_time += dur[i]
            if i in extra and name[i].startswith("models.predict_"):
                inputs[p].append(extra[i])
    root_time = sum(dur[r] for r in roots)
    out["explain.model_share"] = model_time / root_time if root_time else 0.0
    model_calls = sum(len(v) for v in inputs.values())
    unique = sum(len(set(v)) for v in inputs.values())
    out["explain.unique_input_share"] = unique / model_calls if model_calls else 0.0

    # self time: a span's duration minus its direct children's
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    busy = {lay: 0.0 for lay in LAYERS}
    count = {lay: 0 for lay in LAYERS}
    for i in range(n):
        if layer[i] in busy:
            busy[layer[i]] += dur[i] - child[i]
            count[layer[i]] += 1
    for lay in LAYERS:
        out[f"{lay}.busy_ms"] = busy[lay] * 1e3 / passes
        out[f"{lay}.calls"] = count[lay] / passes

    # cli.self_ms: per command, cli.main's wall minus the time spent in
    # spans of other layers called from cli code
    cli_root = [-1] * n
    outside = {}
    for i in range(n):
        p = parent[i]
        if name[i] == "cli.main":
            cli_root[i] = i
            outside[i] = 0.0
        elif p >= 0 and cli_root[p] >= 0 and layer[p] == "cli":
            if layer[i] == "cli":
                cli_root[i] = cli_root[p]
            else:
                outside[cli_root[p]] += dur[i]
    out["cli.self_ms"] = _p50([(dur[r] - t) * 1e3 for r, t in outside.items()])

    out["trace.overhead"] = overhead
    out["trace.spans"] = n / passes
    return out
