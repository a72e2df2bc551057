"""Run configuration: a flat dataclass, stored as a JSON object of its fields."""

import math
from dataclasses import dataclass, replace

from .files import check_fields, check_least, one_line_errors, read_json_object
from .retrieval import BM25_B, BM25_K1

MODES = ("sr", "sr2", "r3")  # reader only; plus a KL-trained ranker; joint policy gradient


@dataclass
class Config:
    # model
    hidden_size: int = 16   # l; per-direction LSTM width is l/2
    embed_dim: int = 16
    reader_layers: int = 3
    ranker_layers: int = 1
    dropout: float = 0.15
    # training
    mode: str = "sr2"
    learning_rate: float = 0.01
    batch_size: int = 8
    epochs: int = 6
    pretrain_epochs: int = 6   # sr2 epochs before r3 when no init checkpoint is given
    train_sample_k: int = 10
    min_negatives: int = 2
    kl_weight: float = 1.0
    grad_clip: float = 5.0
    seed: int = 0
    # retrieval
    top_a: int = 10
    top_s: int = 30
    retrieve_n: int = 10
    bm25_k1: float = BM25_K1
    bm25_b: float = BM25_B
    # prediction
    max_span_len: int = 15
    # word vectors file; empty string means synthetic embeddings
    embeddings_path: str = ""

    def validate(self):
        check_fields("config", self)
        for key in ("learning_rate", "kl_weight", "grad_clip", "bm25_k1", "bm25_b"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        check_least(self, _LEAST)
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ValueError(f"bm25_b must be in [0, 1], got {self.bm25_b}")
        if self.hidden_size % 2 != 0:
            raise ValueError(f"hidden_size must be even, got {self.hidden_size}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be sr, sr2 or r3, got {self.mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.train_sample_k < self.min_negatives + 1:
            raise ValueError("train_sample_k must be at least min_negatives + 1")
        if self.retrieve_n > self.top_s:
            raise ValueError(
                f"retrieve_n must be at most top_s, got {self.retrieve_n} > {self.top_s}")
        return self

    def model_config(self):
        # the model takes the Config itself; this alias stays because
        # perfbench/workloads.py builds its models with cfg.model_config()
        return self.validate()

    @classmethod
    def from_file(cls, path):
        """The Config a JSON object holds, as a checkpoint stores it under extra.config;
        a missing field takes its default. Errors are one line naming path."""
        stored = read_json_object(path, "config")
        with one_line_errors(path):
            return cls(**stored).validate()

    def with_overrides(self, overrides):
        """New Config with the non-None {field: value} overrides; validates the result."""
        return replace(self, **{k: v for k, v in overrides.items() if v is not None}).validate()


# the smallest value each setting may take; a zero grad_clip turns clipping off
_LEAST = {"hidden_size": 2, "embed_dim": 1, "reader_layers": 1, "ranker_layers": 1,
          "batch_size": 1, "epochs": 0, "pretrain_epochs": 0, "min_negatives": 0,
          "seed": 0, "top_a": 1, "top_s": 1, "retrieve_n": 1, "max_span_len": 1,
          "learning_rate": 0, "kl_weight": 0, "grad_clip": 0, "bm25_k1": 0}
