"""Exact-gradient neural building blocks (fp64 throughout)."""

from .layers import (
    Attention,
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    LSTM,
    LeakyReLULayer,
    MaxOverTime,
    MaxPool1D,
    Param,
    ReLULayer,
    SigmoidLayer,
    sigmoid,
)
from .losses import bce_loss, l2_penalty
from .optim import Adam

__all__ = [
    "Adam",
    "Attention",
    "BiLSTM",
    "Conv1D",
    "Dense",
    "Dropout",
    "LSTM",
    "LeakyReLULayer",
    "MaxOverTime",
    "MaxPool1D",
    "Param",
    "ReLULayer",
    "SigmoidLayer",
    "bce_loss",
    "l2_penalty",
    "sigmoid",
]
