"""News-article classification over sentence graphs.

Documents become fully connected graphs whose nodes are sentence
encodings; graph convolution or graph attention layers, trained with an
internal reverse-mode autodiff core, produce the class decision. CNN and
LSTM baselines, evaluation protocols, and attention-map export round out
the toolkit. See the ``docgraph`` CLI for the command surface.
"""

from .autodiff import AdamState, Tape, Tensor, adam_step, adam_sync, backward
from .corpus import (
    ClassSet,
    Document,
    RawDocument,
    Vocabulary,
    build_vocab,
    encode_corpus,
    load_corpus,
    split_sentences,
    split_train_dev,
    tokenize,
)
from .errors import DocGraphError
from .evaluation import Metrics, compute_metrics, evaluate
from .graph import EdgeWeightSet, build_adjacency, build_graph, load_edge_weights
from .model import ModelConfig, ModelParams, forward, init_params
from .training import Checkpoint, TrainRun, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Checkpoint",
    "ClassSet",
    "DocGraphError",
    "Document",
    "EdgeWeightSet",
    "Metrics",
    "ModelConfig",
    "ModelParams",
    "RawDocument",
    "Tape",
    "Tensor",
    "TrainRun",
    "Vocabulary",
    "adam_step",
    "adam_sync",
    "backward",
    "build_adjacency",
    "build_graph",
    "build_vocab",
    "compute_metrics",
    "encode_corpus",
    "evaluate",
    "forward",
    "init_params",
    "load_checkpoint",
    "load_corpus",
    "load_edge_weights",
    "save_checkpoint",
    "split_sentences",
    "split_train_dev",
    "tokenize",
    "train",
]
