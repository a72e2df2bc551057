"""Run configuration: a flat dataclass, stored as a JSON object of its fields."""

import math
from dataclasses import dataclass, replace

from .files import check_fields, check_least, one_line_errors, read_json_object
from .retrieval import BM25_B, BM25_K1, RETRIEVE_N, TOP_A, TOP_S

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
    # prediction
    max_span_len: int = 15
    # word vectors file; empty string means synthetic embeddings
    embeddings_path: str = ""

    # not fields: retrieval's constants, which perfbench/workloads.py's retrieve
    # call reads from its Config (self.cfg.top_a, ...); they go with that line
    retrieve_n = RETRIEVE_N
    top_a = TOP_A
    top_s = TOP_S
    bm25_k1 = BM25_K1
    bm25_b = BM25_B

    def validate(self):
        check_fields("config", self)
        for key in ("learning_rate", "kl_weight", "grad_clip"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        check_least(self, _LEAST)
        if self.hidden_size % 2 != 0:
            raise ValueError(f"hidden_size must be even, got {self.hidden_size}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be sr, sr2 or r3, got {self.mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.train_sample_k < self.min_negatives + 1:
            raise ValueError("train_sample_k must be at least min_negatives + 1")
        return self

    def model_config(self):
        # the model takes the Config itself; this alias stays because
        # perfbench/workloads.py builds its models with cfg.model_config()
        return self.validate()

    @classmethod
    def from_stored(cls, stored):
        """The Config a stored object holds; a missing field takes its default, and
        the retrieval keys that older files hold are ignored."""
        return cls(**{key: value for key, value in stored.items()
                      if key not in _RETIRED}).validate()

    @classmethod
    def from_file(cls, path):
        """The Config a JSON object holds, as a checkpoint stores it under
        extra.config. Errors are one line naming path."""
        stored = read_json_object(path, "config")
        with one_line_errors(path):
            return cls.from_stored(stored)

    def with_overrides(self, overrides):
        """New Config with the non-None {field: value} overrides; validates the result."""
        return replace(self, **{k: v for k, v in overrides.items() if v is not None}).validate()


# the smallest value each setting may take; a zero grad_clip turns clipping off
_LEAST = {"hidden_size": 2, "embed_dim": 1, "reader_layers": 1, "ranker_layers": 1,
          "batch_size": 1, "epochs": 0, "pretrain_epochs": 0, "min_negatives": 0,
          "seed": 0, "max_span_len": 1, "learning_rate": 0, "kl_weight": 0, "grad_clip": 0}

_RETIRED = {"retrieve_n", "top_a", "top_s", "bm25_k1", "bm25_b"}  # moved to retrieval.py
