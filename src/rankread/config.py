"""Run configuration: a flat dataclass with a key=value file format."""

from dataclasses import dataclass, fields, asdict


@dataclass
class Config:
    # model
    hidden_size: int = 16   # l; per-direction LSTM width is l/2
    embed_dim: int = 16
    reader_layers: int = 3
    ranker_layers: int = 1
    dropout: float = 0.2
    # training
    mode: str = "sr2"
    learning_rate: float = 0.002
    batch_size: int = 8
    epochs: int = 3
    pretrain_epochs: int = 2
    train_sample_k: int = 10
    min_negatives: int = 2
    kl_weight: float = 1.0
    grad_clip: float = 5.0
    seed: int = 0
    # retrieval
    top_a: int = 20
    top_s: int = 50
    retrieve_n: int = 10
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    # prediction
    max_span_len: int = 15
    # word vectors file; empty string means synthetic embeddings
    embeddings_path: str = ""

    def validate(self):
        if self.hidden_size % 2 != 0:
            raise ValueError(f"hidden_size must be even, got {self.hidden_size}")
        if self.mode not in ("sr", "sr2", "r3"):
            raise ValueError(f"mode must be sr, sr2 or r3, got {self.mode!r}")
        if self.train_sample_k < self.min_negatives + 1:
            raise ValueError("train_sample_k must be at least min_negatives + 1")
        return self

    def model_config(self):
        # the model takes the Config itself; this alias stays because
        # perfbench/workloads.py builds its models with cfg.model_config()
        return self.validate()

    def to_file(self, path):
        with open(path, "w") as f:
            for field in fields(self):
                f.write(f"{field.name}={getattr(self, field.name)!r}\n")

    @classmethod
    def from_file(cls, path):
        values = {}
        types = {f.name: f.type for f in fields(cls)}
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in types:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _parse(raw.strip(), types[key])
        return cls(**values).validate()

    def with_overrides(self, overrides):
        """New Config with non-None overrides applied; validates the result."""
        data = asdict(self)
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in data:
                raise ValueError(f"unknown config key {key!r}")
            data[key] = value
        return Config(**data).validate()


def _parse(raw, typ):
    if raw.startswith("'") and raw.endswith("'") or raw.startswith('"') and raw.endswith('"'):
        raw = raw[1:-1]
    if typ in (int, "int"):
        return int(raw)
    if typ in (float, "float"):
        return float(raw)
    return raw
