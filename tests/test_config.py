import re
from dataclasses import fields
from pathlib import Path

import pytest

import rankread
from rankread.config import Config


def test_defaults_validate():
    Config().validate()


def test_roundtrip_through_file_is_lossless(tmp_path):
    cfg = Config(hidden_size=24, learning_rate=0.00325, mode="r3",
                 dropout=0.17, embeddings_path="data/glove.txt", seed=42)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{f.name}={getattr(cfg, f.name)!r}\n" for f in fields(cfg)))
    assert Config.from_file(path) == cfg


def test_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("hidden_size=16\nnot_a_key=3\n")
    with pytest.raises(ValueError, match="not_a_key"):
        Config.from_file(path)


def test_file_allows_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# comment\n\nhidden_size=8\nmode=sr\n")
    cfg = Config.from_file(path)
    assert cfg.hidden_size == 8 and cfg.mode == "sr"


@pytest.mark.parametrize("field,value,msg", [
    ("hidden_size", 7, "even"),
    ("mode", "reinforce", "mode"),
    ("train_sample_k", 2, "min_negatives"),
    ("reader_layers", 0, "at least 1"),
    ("ranker_layers", 0, "at least 1"),
    ("retrieve_n", 0, "at least 1"),
    ("batch_size", 0, "at least 1"),
    ("dropout", 1.0, "dropout must be in"),
    ("dropout", -0.1, "dropout must be in"),
    ("learning_rate", float("nan"), "^learning_rate must be finite, got nan$"),
    ("kl_weight", float("inf"), "^kl_weight must be finite, got inf$"),
    ("grad_clip", float("-inf"), "^grad_clip must be finite, got -inf$"),
    ("bm25_k1", float("nan"), "^bm25_k1 must be finite, got nan$"),
    ("bm25_b", float("inf"), "^bm25_b must be finite, got inf$"),
    ("hidden_size", 0, "^hidden_size must be at least 2, got 0$"),
    ("hidden_size", -2, "^hidden_size must be at least 2, got -2$"),
    ("embed_dim", 0, "^embed_dim must be at least 1, got 0$"),
    ("epochs", -1, "^epochs must be at least 0, got -1$"),
    ("pretrain_epochs", -1, "^pretrain_epochs must be at least 0, got -1$"),
    ("min_negatives", -1, "^min_negatives must be at least 0, got -1$"),
    ("max_span_len", 0, "^max_span_len must be at least 1, got 0$"),
    ("seed", -5, "^seed must be at least 0, got -5$"),
    ("learning_rate", -0.01, "^learning_rate must be at least 0, got -0.01$"),
    ("kl_weight", -1.0, "^kl_weight must be at least 0, got -1.0$"),
    ("grad_clip", -5.0, "^grad_clip must be at least 0, got -5.0$"),
    ("bm25_k1", -1.0, "^bm25_k1 must be at least 0, got -1.0$"),
    ("bm25_b", 7, r"^bm25_b must be in \[0, 1\], got 7$"),
    ("bm25_b", -0.25, r"^bm25_b must be in \[0, 1\], got -0.25$"),
])
def test_validation_errors(field, value, msg):
    with pytest.raises(ValueError, match=msg):
        Config(**{field: value}).validate()


def test_zero_and_unit_bounds_are_accepted():
    # a zero learning rate or kl weight is a frozen run, a zero grad_clip
    # turns clipping off, and bm25_b may take either end of [0, 1]
    Config(learning_rate=0.0, kl_weight=0.0, grad_clip=0.0, bm25_k1=0.0, bm25_b=0.0).validate()
    Config(bm25_b=1.0).validate()


def test_overrides_skip_none_and_validate():
    cfg = Config().with_overrides({"hidden_size": 20, "dropout": None})
    assert cfg.hidden_size == 20
    assert cfg.dropout == Config().dropout
    with pytest.raises(ValueError):
        Config().with_overrides({"hidden_size": 9})


def test_every_config_field_is_read():
    # a setting that no module reads is a flag that silently does nothing
    package = Path(rankread.__file__).parent
    sources = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                        if p.name != "config.py")
    unread = [f.name for f in fields(Config)
              if not re.search(rf"\.{f.name}\b", sources)]
    assert unread == []


def test_experiment_runs_on_the_config_defaults():
    from rankread.experiment import default_config
    assert default_config() == Config()
