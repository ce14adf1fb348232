"""Two-stage toxic comment classification: a binary toxic-or-not gate
followed by a six-label tagger, with from-scratch neural layers, evaluation
metrics and local surrogate explanations."""

from .corpus import (
    LABELS,
    NUM_LABELS,
    Document,
    FormatSpec,
    PreprocessConfig,
    SplitSpec,
    Vocabulary,
    build_vocab,
    encode,
    ingest,
    preprocess,
    stats,
    stratified_split,
)
from .embedding import EmbeddingTable, load_table, random_table
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    IngestError,
    NumericError,
    ToxiclassError,
)
from .explain import (
    Explanation,
    explain_instance,
    fit_surrogate,
    kernel_weights,
    sample_perturbations,
    select_features,
)
from .metrics import (
    ClassReport,
    ConfusionMatrix2x2,
    RocCurve,
    cohens_kappa,
    confusion,
    multilabel_report,
    prf,
    roc_auc,
    trustworthiness,
)
from .models import (
    BinaryModel,
    BinaryModelConfig,
    MultiLabelModel,
    MultiLabelModelConfig,
    TrainedModel,
    TrainingConfig,
    TwoStagePipeline,
    load_model,
    predict,
    route,
    save_model,
    train,
)

__version__ = "0.1.0"
